"""Unit tests for the length-prefixed JSON wire protocol."""

import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    InterfaceError,
    OperationalError,
    ProgrammingError,
)
from repro.relational.types import DataType
from repro.server import protocol
from repro.server.protocol import ProtocolError


@pytest.fixture
def stream():
    """``stream(data)``: a :class:`protocol.FrameReader` on one end of a
    socket pair whose other end sent ``data`` and closed."""
    sockets = []

    def make(data: bytes) -> protocol.FrameReader:
        ours, theirs = socket.socketpair()
        sockets.extend((ours, theirs))
        ours.settimeout(10)
        theirs.sendall(data)
        theirs.close()
        return protocol.FrameReader(ours)

    yield make
    for sock in sockets:
        sock.close()


class TestFraming:
    def test_round_trip(self, stream):
        message = {"op": "execute", "sql": "SELECT 1", "params": [1, "a", None, 2.5]}
        assert stream(protocol.encode_frame(message)).read() == message

    def test_multiple_frames_in_one_stream(self, stream):
        reader = stream(protocol.encode_frame({"id": 1}) + protocol.encode_frame({"id": 2}))
        assert not reader.buffered()  # nothing received yet
        assert reader.read() == {"id": 1}
        assert reader.buffered()  # the second frame came with the first
        assert reader.read() == {"id": 2}
        assert not reader.buffered()
        assert reader.read() is None  # clean EOF

    def test_empty_stream_is_clean_eof(self, stream):
        assert stream(b"").read() is None

    def test_truncated_header(self, stream):
        with pytest.raises(ProtocolError, match="truncated"):
            stream(b"\x00\x00").read()

    def test_truncated_body(self, stream):
        with pytest.raises(ProtocolError, match="truncated"):
            stream(struct.pack(">I", 100) + b'{"id": 1}').read()

    def test_body_not_json(self, stream):
        body = b"certainly not json"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            stream(struct.pack(">I", len(body)) + body).read()

    def test_body_not_an_object(self, stream):
        body = b"[1, 2, 3]"
        with pytest.raises(ProtocolError, match="JSON object"):
            stream(struct.pack(">I", len(body)) + body).read()

    def test_oversized_header_rejected_without_allocation(self, stream):
        with pytest.raises(ProtocolError, match="limit"):
            stream(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)).read()

    def test_unserializable_message_rejected(self):
        with pytest.raises(ProtocolError, match="JSON-serializable"):
            protocol.encode_frame({"x": object()})

    def test_a_frame_arriving_one_byte_per_send(self):
        message = {"id": 3, "op": "execute", "sql": "SELECT 1"}
        frame = protocol.encode_frame(message)
        ours, theirs = socket.socketpair()
        ours.settimeout(10)

        def trickle():
            for i in range(len(frame)):
                theirs.sendall(frame[i:i + 1])
                time.sleep(0.001)

        sender = threading.Thread(target=trickle)
        sender.start()
        try:
            reader = protocol.FrameReader(ours)
            assert reader.read() == message
            assert not reader.buffered()
        finally:
            sender.join(timeout=10)
            ours.close()
            theirs.close()
        assert not sender.is_alive()


class TestErrorMarshalling:
    @pytest.mark.parametrize(
        "exc",
        [
            ProgrammingError("no table 'Tsak'"),
            OperationalError("version accepts no writes"),
            InterfaceError("cursor(): cannot operate on a closed connection"),
            ProtocolError("unknown op"),
        ],
    )
    def test_known_errors_round_trip_by_class(self, exc):
        payload = protocol.error_response(7, exc)
        assert payload == {
            "id": 7,
            "ok": False,
            "error": {"code": type(exc).__name__, "message": str(exc)},
        }
        rebuilt = protocol.exception_from(payload["error"])
        assert type(rebuilt) is type(exc)
        assert str(rebuilt) == str(exc)

    def test_unexpected_exception_becomes_operational(self):
        payload = protocol.error_response(1, RuntimeError("boom"))
        assert payload["error"]["code"] == "OperationalError"
        assert isinstance(protocol.exception_from(payload["error"]), OperationalError)

    def test_unknown_code_becomes_operational(self):
        exc = protocol.exception_from({"code": "NoSuchError", "message": "m"})
        assert isinstance(exc, OperationalError)


class TestValueMarshalling:
    def test_rows_round_trip_as_tuples(self):
        rows = [("Ann", 1, None, 2.5), ("Ben", 2, "x", 0.0)]
        assert protocol.rows_from_wire(protocol.rows_to_wire(rows)) == rows

    def test_description_type_codes_round_trip(self):
        description = (
            ("author", DataType.TEXT, None, None, None, None, None),
            ("prio", DataType.INTEGER, None, None, None, None, None),
            ("expr", None, None, None, None, None, None),
        )
        wire = protocol.description_to_wire(description)
        assert wire[0][1] == "TEXT"  # JSON-safe on the wire
        assert protocol.description_from_wire(wire) == description

    def test_none_description(self):
        assert protocol.description_to_wire(None) is None
        assert protocol.description_from_wire(None) is None
