"""What one exchange costs on the wire, pinned as counts: writes per
pipeline on each side, and the bytes a repeated result shape no longer
carries."""

import socket

from repro.server import protocol
from repro.server.client import RemoteConnection, connect_remote


class CountingSocket:
    """A socket that counts its ``sendall`` calls and delegates the rest."""

    def __init__(self, sock):
        self._sock = sock
        self.sends = 0

    def sendall(self, data):
        self.sends += 1
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_pipeline_is_one_send_each_way(tasky_server):
    _, server = tasky_server
    sock = socket.create_connection(server.address, timeout=30)
    client = CountingSocket(sock)
    conn = RemoteConnection(client, version="TasKy", autocommit=True)
    (handler,) = server._handlers
    handler.sock = replies = CountingSocket(handler.sock)
    client.sends = 0
    cursors = conn.pipeline(
        [("SELECT * FROM Task WHERE prio = ?", [i % 3 + 1]) for i in range(8)]
    )
    assert len(cursors) == 8
    assert (client.sends, replies.sends) == (1, 1)
    conn.close()


def test_a_repeated_result_shape_travels_once(tasky_server):
    _, server = tasky_server
    conn = connect_remote(*server.address, "TasKy", autocommit=True, timeout=30)
    replies = []
    read = conn._reader.read
    conn._reader.read = lambda: replies.append(read()) or replies[-1]
    sql = "SELECT author, task, prio FROM Task"
    first = conn.execute(sql).description
    second = conn.cursor().execute(sql).description
    assert [len(r["description"]) for r in replies[:1]] == [3]
    assert "description" not in replies[1]
    assert second == first and [column[0] for column in second] == ["author", "task", "prio"]
    # A statement without a result set says so, and leaves the held shape.
    assert conn.execute("UPDATE Task SET prio = prio WHERE 0").description is None
    assert replies[2]["description"] is None
    assert conn.execute(sql).description == first
    assert "description" not in replies[3]
    conn.close()


def test_a_protocol_1_hello_is_refused(tasky_server):
    _, server = tasky_server
    sock = socket.create_connection(server.address, timeout=10)
    try:
        sock.sendall(protocol.encode_frame(
            {"id": 1, "op": "hello", "version": "TasKy", "protocol": 1}
        ))
        reply = protocol.FrameReader(sock).read()
        assert reply["ok"] is False
        assert reply["error"]["code"] == "ProtocolError"
        assert "protocol 1" in reply["error"]["message"]
    finally:
        sock.close()
