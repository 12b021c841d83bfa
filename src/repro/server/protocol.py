"""The wire protocol of the network serving layer.

A connection is a plain TCP byte stream carrying **frames**: each frame is
a 4-byte big-endian unsigned length followed by that many bytes of UTF-8
JSON — one JSON object per frame.  Requests and responses are both frames;
the server processes a connection's requests strictly in order and sends
exactly one response per request, so a client may **pipeline** (write many
request frames before reading any response) and match responses to
requests positionally or by the echoed ``id``.  Each side writes what it
has ready in one ``sendall``: a pipeline's requests together, and the
server's replies while another whole request is already buffered.

A result reply omits its ``description`` when it equals the last
non-null description sent on the connection (protocol 2); the client
keeps that one.  A statement without a result set says
``"description": null``.

Requests are objects ``{"id": <int>, "op": <str>, ...}``; responses are
``{"id": <int>, "ok": true, ...}`` on success and

.. code-block:: json

    {"id": 7, "ok": false,
     "error": {"code": "ProgrammingError", "message": "no table 'Tsak'"}}

on failure.  ``code`` is the name of an exception class from
:mod:`repro.errors` (plus :class:`ProtocolError`); the client driver
re-raises the matching class, so remote failures surface exactly like
in-process ones.  The full message catalog lives in ``docs/serving.md``.

Values (statement parameters and result rows) travel as JSON, which
restricts them to ``None``, ``bool``, ``int``, ``float``, and ``str`` —
exactly the repro type system.  Rows arrive as JSON arrays; the client
driver converts them back to the tuples PEP 249 promises.

Framing errors are unrecoverable: after a frame that is not valid JSON,
exceeds :data:`MAX_FRAME_BYTES`, or is truncated, the stream position is
unknowable, so both sides answer with a best-effort ``ProtocolError``
response and drop the connection rather than resynchronise.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

import repro.errors as _errors
from repro.errors import OperationalError, ReproError
from repro.relational.types import DataType

PROTOCOL_VERSION = 2

#: Default TCP port of ``python -m repro.server`` (unassigned by IANA).
DEFAULT_PORT = 7512

#: Hard ceiling on a single frame; a length prefix beyond this is treated
#: as garbage (a malformed or hostile stream), not as a huge allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: How many rows ride along in an ``execute`` response / ``fetch`` page
#: unless the client asks otherwise.
DEFAULT_PAGE_SIZE = 256

_HEADER = struct.Struct(">I")

#: What one ``recv`` asks for at least: a reply page, or a whole pipeline.
_RECV_BYTES = 64 * 1024


class ProtocolError(ReproError):
    """The byte stream violated the framing or message rules."""


#: One encoder for every frame: ``json.dumps`` with arguments builds a new
#: one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_frame(message: dict) -> bytes:
    """``message`` as one length-prefixed frame, ready for ``sendall``."""
    try:
        payload = _ENCODER.encode(message).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


class FrameReader:
    """The frames arriving on ``sock``, through one receive buffer: a
    ``recv`` may carry many frames or part of one."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = bytearray()

    def buffered(self) -> bool:
        """Is another whole frame already received — can :meth:`read`
        return without waiting on the socket?"""
        buffer = self._buffer
        if len(buffer) < _HEADER.size:
            return False
        (length,) = _HEADER.unpack_from(buffer)
        return len(buffer) >= _HEADER.size + length

    def _fill(self, need: int) -> bool:
        """Receive until ``need`` bytes are buffered; False on EOF."""
        while len(self._buffer) < need:
            chunk = self._sock.recv(max(need - len(self._buffer), _RECV_BYTES))
            if not chunk:
                return False
            self._buffer += chunk
        return True

    def read(self) -> dict | None:
        """The next frame's message, or ``None`` on a clean EOF."""
        buffer = self._buffer
        if not self._fill(_HEADER.size):
            if not buffer:
                return None
            raise ProtocolError(
                f"stream truncated: expected {_HEADER.size} bytes, got {len(buffer)}"
            )
        (length,) = _HEADER.unpack_from(buffer)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame header announces {length} bytes "
                f"(limit {MAX_FRAME_BYTES}); treating the stream as corrupt"
            )
        end = _HEADER.size + length
        if not self._fill(end):
            raise ProtocolError(
                f"stream truncated: expected {length} body bytes, "
                f"got {len(buffer) - _HEADER.size}"
            )
        body = buffer[_HEADER.size:end]
        del buffer[:end]
        try:
            message = json.loads(body)
        except ValueError as exc:
            raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
        if not isinstance(message, dict):
            raise ProtocolError(f"frame must carry a JSON object, got {type(message).__name__}")
        return message


# ---------------------------------------------------------------------------
# Error marshalling
# ---------------------------------------------------------------------------

#: Every error class a response may name, by its wire code.
ERROR_CODES: dict[str, type[Exception]] = {
    name: obj
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}
ERROR_CODES["ProtocolError"] = ProtocolError


def error_response(request_id: Any, exc: BaseException) -> dict:
    code = type(exc).__name__
    if code not in ERROR_CODES:  # an unexpected non-repro failure
        code = "OperationalError"
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": str(exc)},
    }


def exception_from(error: dict) -> Exception:
    """Rebuild the exception a failure response describes."""
    cls = ERROR_CODES.get(str(error.get("code")), OperationalError)
    return cls(str(error.get("message", "unknown server error")))


def rows_to_wire(rows: list[tuple]) -> list[list]:
    return [list(row) for row in rows]


def rows_from_wire(rows: list) -> list[tuple]:
    return [tuple(row) for row in rows]


def description_to_wire(description) -> list[list] | None:
    """Cursor description with ``DataType`` type codes as their names."""
    if description is None:
        return None
    out = []
    for column in description:
        column = list(column)
        if len(column) > 1 and isinstance(column[1], DataType):
            column[1] = column[1].value
        out.append(column)
    return out


def description_from_wire(description) -> tuple[tuple, ...] | None:
    """Inverse of :func:`description_to_wire`: type-code names become
    :class:`DataType` members again, so both transports describe results
    identically."""
    if description is None:
        return None
    out = []
    for column in description:
        column = list(column)
        if len(column) > 1 and isinstance(column[1], str):
            try:
                column[1] = DataType(column[1])
            except ValueError:
                pass  # an opaque non-DataType type code stays a string
        out.append(tuple(column))
    return tuple(out)
