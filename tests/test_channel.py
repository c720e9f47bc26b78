"""Controller channel: sans-IO session behaviour and the TCP transport."""

import socket
import struct
import threading

import pytest

from ofswitch import messages as m
from ofswitch import wire
from ofswitch.channel import (
    CAPABILITIES,
    SwitchConnection,
    SwitchTcpServer,
    TRACE_LEN,
    connect_active,
)
from ofswitch.errors import HelloFailed
from ofswitch.oxm import STATE_EXPERIMENTER_ID, MatchSet
from ofswitch.pkt import build
from ofswitch.stateful import (
    EXPMSG_SET_PKT_TEMPLATE,
    EXPMSG_SET_STATE_ENTRY,
    EXPMSG_SET_STATE_TABLE_CONFIG,
    PacketTemplate,
    StateTableConfig,
    TemplateSlot,
    encode_pkt_template,
    encode_set_state_entry,
    encode_state_table_config,
)


class Pipe:
    """Captures raw frames the switch sends and decodes them on demand."""

    def __init__(self):
        self.raw = []

    def __call__(self, data):
        self.raw.append(data)

    def messages(self):
        out = []
        buf = wire.FrameBuffer()
        for chunk in self.raw:
            out.extend(wire.unpack(f) for f in buf.feed(chunk))
        return out


@pytest.fixture
def session(datapath):
    pipe = Pipe()
    conn = SwitchConnection(datapath, pipe)
    conn.start()
    conn.feed(wire.pack(m.OfMessage(0, m.Hello())))
    pipe.raw.clear()
    return conn, pipe


def flow_mod_bytes(xid=7, **kw):
    kw.setdefault("command", m.OFPFC_ADD)
    kw.setdefault("priority", 10)
    kw.setdefault("match", MatchSet.from_pairs({"in_port": 1}))
    kw.setdefault("instructions", [m.ApplyActions([m.OutputAction(2)])])
    return wire.pack(m.OfMessage(xid, m.FlowMod(**kw)))


def test_handshake_sends_hello_first(datapath):
    pipe = Pipe()
    conn = SwitchConnection(datapath, pipe)
    conn.start()
    first = pipe.messages()[0]
    assert isinstance(first.body, m.Hello)
    assert conn.state == "handshake"
    conn.feed(wire.pack(m.OfMessage(0, m.Hello())))
    assert conn.state == "active"


def test_version_mismatch_rejected(datapath):
    pipe = Pipe()
    conn = SwitchConnection(datapath, pipe)
    conn.start()
    bad = b"\x01" + wire.pack(m.OfMessage(0, m.Hello()))[1:]
    with pytest.raises(HelloFailed):
        conn.feed(bad)
    err = pipe.messages()[-1].body
    assert isinstance(err, m.Error)
    assert (err.err_type, err.code) == (m.OFPET_HELLO_FAILED, m.OFPHFC_INCOMPATIBLE)
    assert err.data == bad[:64]
    assert conn.state == "closed"


def test_echo_mirrors_xid_and_payload(session):
    conn, pipe = session
    conn.feed(wire.pack(m.OfMessage(0xABCD, m.EchoRequest(b"ping"))))
    reply = pipe.messages()[-1]
    assert reply.xid == 0xABCD
    assert isinstance(reply.body, m.EchoReply)
    assert reply.body.payload == b"ping"


def test_features_reply(session, datapath):
    conn, pipe = session
    conn.feed(wire.pack(m.OfMessage(5, m.FeaturesRequest())))
    body = pipe.messages()[-1].body
    assert isinstance(body, m.FeaturesReply)
    assert body.datapath_id == datapath.datapath_id
    assert body.n_tables == 64
    assert body.capabilities == CAPABILITIES


def test_flow_mod_applied_silently(session, datapath):
    conn, pipe = session
    conn.feed(flow_mod_bytes())
    assert not pipe.messages()
    assert len(datapath.tables[0]) == 1


def test_overlap_error_mapping(session):
    conn, pipe = session
    conn.feed(flow_mod_bytes(match=MatchSet.from_pairs({})))
    conn.feed(flow_mod_bytes(xid=8, match=MatchSet.from_pairs({"in_port": 1}),
                             flags=m.OFPFF_CHECK_OVERLAP))
    err = pipe.messages()[-1]
    assert err.xid == 8
    assert (err.body.err_type, err.body.code) == (
        m.OFPET_FLOW_MOD_FAILED, m.OFPFMFC_OVERLAP)


def test_bad_table_error_mapping(session):
    conn, pipe = session
    conn.feed(flow_mod_bytes(table_id=200))
    body = pipe.messages()[-1].body
    assert (body.err_type, body.code) == (
        m.OFPET_FLOW_MOD_FAILED, m.OFPFMFC_BAD_TABLE_ID)


def test_unknown_group_error_mapping(session):
    conn, pipe = session
    conn.feed(wire.pack(m.OfMessage(9, m.GroupMod(
        command=m.OFPGC_MODIFY, group_type=m.OFPGT_ALL, group_id=42,
        buckets=[m.Bucket(actions=[m.OutputAction(2)])]))))
    body = pipe.messages()[-1].body
    assert (body.err_type, body.code) == (
        m.OFPET_GROUP_MOD_FAILED, m.OFPGMFC_INVALID_GROUP)


def test_unknown_meter_error_mapping(session):
    conn, pipe = session
    conn.feed(wire.pack(m.OfMessage(9, m.MeterMod(
        command=m.OFPMC_MODIFY, flags=m.OFPMF_PKTPS, meter_id=42,
        bands=[m.DropBand(100, 10)]))))
    body = pipe.messages()[-1].body
    assert (body.err_type, body.code) == (
        m.OFPET_METER_MOD_FAILED, m.OFPMMFC_UNKNOWN_METER)


def test_undecodable_frame_gets_error_with_prefix(session):
    conn, pipe = session
    junk = bytes([4, 99, 0, 12, 0, 0, 0, 1]) + b"abcd"
    conn.feed(junk)
    body = pipe.messages()[-1].body
    assert isinstance(body, m.Error)
    assert body.err_type == m.OFPET_BAD_REQUEST
    assert body.data == junk[:64]


def test_foreign_experimenter_rejected(session):
    conn, pipe = session
    conn.feed(wire.pack(m.OfMessage(3, m.Experimenter(0xDEADBEEF, 1, b"??"))))
    body = pipe.messages()[-1].body
    assert (body.err_type, body.code) == (m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_TYPE)


def _one_error(conn, pipe, xid, body) -> m.Error:
    """Feed one request; it must get exactly one Error with its xid and
    leave the session open."""
    conn.feed(wire.pack(m.OfMessage(xid, body)))
    replies = pipe.messages()
    assert len(replies) == 1
    assert replies[0].xid == xid
    assert isinstance(replies[0].body, m.Error)
    assert conn.state == "active"
    return replies[0].body


def test_short_packet_out_gets_bad_packet_error(session):
    conn, pipe = session
    po = m.PacketOut(m.OFP_NO_BUFFER, m.OFPP_CONTROLLER, [m.OutputAction(1)], b"\x00" * 5)
    err = _one_error(conn, pipe, 21, po)
    assert (err.err_type, err.code) == (m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_PACKET)


_DANGLING = {
    "group": (m.ApplyActions([m.GroupAction(7)]), (2, 9)),
    "meter": (m.MeterInstruction(7), (12, 3)),
    "template": (m.ApplyActions([m.PktGenAction(7)]), (0xFFFF, 1)),
    "state-table": (m.WriteActions([m.SetStateAction(0, 5)]), (0xFFFF, 1)),
}


@pytest.mark.parametrize("command", [m.OFPFC_ADD, m.OFPFC_MODIFY, m.OFPFC_MODIFY_STRICT],
                         ids=["add", "modify", "modify-strict"])
@pytest.mark.parametrize("kind", list(_DANGLING))
def test_flow_mod_naming_an_absent_object_is_rejected(session, datapath, kind, command):
    """A flow whose instructions name a group, meter, packet template or
    state table that does not exist is refused, so no packet can meet it."""
    conn, pipe = session
    conn.feed(flow_mod_bytes(xid=5))
    instruction, code = _DANGLING[kind]
    err = _one_error(conn, pipe, 6, m.FlowMod(
        command=command, priority=10, match=MatchSet.from_pairs({"in_port": 1}),
        instructions=[instruction, m.ApplyActions([m.OutputAction(3)])]))
    assert (err.err_type, err.code) == code
    assert [e.instructions for e in datapath.tables[0].entries] == [
        (m.ApplyActions([m.OutputAction(2)]),)]
    frame = build.udp4_frame("0a:00:00:00:00:02", "0a:00:00:00:00:01",
                             "10.0.0.1", "10.0.0.2", 1000, 2000, b"x")
    assert [p for p, _ in datapath.receive_packet(1, frame).egress] == [2]


def test_error_codes_are_openflow_13_numbers(session):
    """The literal (type, code) pairs of openflow.h 1.3, not the symbols."""
    conn, pipe = session
    conn.feed(flow_mod_bytes(match=MatchSet.from_pairs({})))
    conn.feed(flow_mod_bytes(xid=8, match=MatchSet.from_pairs({"in_port": 1}),
                             flags=m.OFPFF_CHECK_OVERLAP))
    conn.feed(wire.pack(m.OfMessage(9, m.GroupMod(
        command=m.OFPGC_MODIFY, group_type=m.OFPGT_ALL, group_id=42,
        buckets=[m.Bucket(actions=[m.OutputAction(2)])]))))
    conn.feed(wire.pack(m.OfMessage(10, m.MeterMod(
        command=m.OFPMC_MODIFY, flags=m.OFPMF_PKTPS, meter_id=42,
        bands=[m.DropBand(100, 10)]))))
    conn.feed(bytes([4, 14, 0, 12, 0, 0, 0, 11]) + b"\x00" * 4)  # a 12-byte FlowMod
    conn.feed(wire.pack(m.OfMessage(16, m.GroupMod(
        command=m.OFPGC_ADD, group_type=9, group_id=43,
        buckets=[m.Bucket(actions=[m.OutputAction(2)])]))))
    assert [(e.body.err_type, e.body.code) for e in pipe.messages()] == [
        (5, 3), (6, 1), (12, 3), (1, 6), (6, 11)]
    pipe.raw.clear()
    # an unknown action, instruction or band type: the last element of each
    # mod below is patched to type 77
    output = [m.ApplyActions([m.OutputAction(2)])]
    for xid, msg, from_end in [
        (12, m.FlowMod(command=m.OFPFC_ADD, instructions=output), 16),
        (13, m.FlowMod(command=m.OFPFC_ADD, instructions=output), 24),
        (14, m.GroupMod(m.OFPGC_ADD, m.OFPGT_ALL, 5, [m.Bucket([m.OutputAction(2)])]), 16),
        (15, m.MeterMod(m.OFPMC_ADD, m.OFPMF_PKTPS, 5, [m.DropBand(100, 10)]), 16),
    ]:
        raw = bytearray(wire.pack(m.OfMessage(xid, msg)))
        raw[-from_end:-from_end + 2] = struct.pack("!H", 77)
        conn.feed(bytes(raw))
    assert [(e.xid, e.body.err_type, e.body.code) for e in pipe.messages()] == [
        (12, 2, 0), (13, 3, 0), (14, 2, 0), (15, 12, 8)]


def _raw_request(msg_type: int, xid: int, body: bytes) -> bytes:
    return struct.pack("!BBHI", 4, msg_type, 8 + len(body), xid) + body


@pytest.mark.parametrize("raw, code", [
    (_raw_request(99, 31, b"abcd"), m.OFPBRC_BAD_TYPE),
    (_raw_request(m.OFPT_MULTIPART_REQUEST, 32, struct.pack("!HH4x", 3, 0)),  # OFPMP_TABLE
     m.OFPBRC_BAD_MULTIPART),
    (wire.pack(m.OfMessage(33, m.MultipartRequest(
        m.OFPMP_EXPERIMENTER, struct.pack("!II", 0xDEADBEEF, 1)))), m.OFPBRC_BAD_MULTIPART),
    (_raw_request(m.OFPT_FLOW_MOD, 34, b"\x00" * 4), m.OFPBRC_BAD_LEN),
], ids=["unknown-type", "unknown-multipart-kind", "unserved-multipart", "short-flow-mod"])
def test_undecodable_request_gets_its_xid_and_code(session, raw, code):
    conn, pipe = session
    conn.feed(raw)
    replies = pipe.messages()
    assert len(replies) == 1
    assert replies[0].xid == struct.unpack_from("!I", raw, 4)[0]
    assert (replies[0].body.err_type, replies[0].body.code) == (m.OFPET_BAD_REQUEST, code)
    assert conn.state == "active"


_CONFIG = encode_state_table_config(StateTableConfig(0, ["eth_src"], ["eth_src"]))
_ENTRY = encode_set_state_entry(0, b"\x01" * 6, 9).payload
_TEMPLATE = encode_pkt_template(
    PacketTemplate(1, b"\xff" * 20, [TemplateSlot(6, "eth_src")])).payload


@pytest.mark.parametrize("exp_type, payload", [
    (EXPMSG_SET_STATE_ENTRY, b"\x00"),
    (EXPMSG_SET_STATE_ENTRY, _ENTRY[:-1]),  # key_len longer than the key
    (EXPMSG_SET_STATE_TABLE_CONFIG, b"\x00\x00"),
    (EXPMSG_SET_STATE_TABLE_CONFIG, _CONFIG.payload[:-1]),  # update scope cut short
    (EXPMSG_SET_PKT_TEMPLATE, b"\x00" * 5),
    (EXPMSG_SET_PKT_TEMPLATE, _TEMPLATE[:-1]),  # data_len longer than the data
    (EXPMSG_SET_PKT_TEMPLATE, _TEMPLATE[:4] + b"\x07" + _TEMPLATE[5:]),  # unknown egress kind
], ids=["entry-header", "entry-key", "config-header", "config-scope",
        "template-header", "template-data", "template-egress"])
def test_malformed_stateful_payload_gets_one_error(session, datapath, exp_type, payload):
    conn, pipe = session
    conn.feed(wire.pack(m.OfMessage(4, _CONFIG)))
    _one_error(conn, pipe, 22, m.Experimenter(STATE_EXPERIMENTER_ID, exp_type, payload))
    assert datapath.state_tables[0].entries == {}
    assert datapath.templates == {}


def test_state_config_via_channel(session, datapath):
    conn, pipe = session
    body = encode_state_table_config(StateTableConfig(0, ["eth_src"], ["eth_src"]))
    conn.feed(wire.pack(m.OfMessage(4, body)))
    assert not pipe.messages()
    assert 0 in datapath.state_tables


def test_multipart_flow_stats(session, datapath):
    conn, pipe = session
    conn.feed(flow_mod_bytes())
    conn.feed(wire.pack(m.OfMessage(11, m.MultipartRequest(
        m.OFPMP_FLOW, m.FlowStatsRequest()))))
    reply = pipe.messages()[-1]
    assert reply.xid == 11
    assert isinstance(reply.body, m.MultipartReply)
    assert reply.body.kind == m.OFPMP_FLOW
    assert len(reply.body.body) == 1
    assert reply.body.body[0].priority == 10


def test_multipart_port_desc(session, datapath):
    conn, pipe = session
    conn.feed(wire.pack(m.OfMessage(12, m.MultipartRequest(m.OFPMP_PORT_DESC))))
    body = pipe.messages()[-1].body
    assert body.kind == m.OFPMP_PORT_DESC
    assert sorted(p.port_no for p in body.body) == [1, 2, 3, 4]


def test_multipart_state_stats(session, datapath):
    conn, pipe = session
    conn.feed(wire.pack(m.OfMessage(4, encode_state_table_config(
        StateTableConfig(0, ["eth_src"], ["eth_src"])))))
    datapath.set_state_entry(0, b"\x01" * 6, 9)
    conn.feed(wire.pack(m.OfMessage(13, m.MultipartRequest(
        m.OFPMP_EXPERIMENTER, m.StateStatsRequest(0)))))
    body = pipe.messages()[-1].body
    assert body.kind == m.OFPMP_EXPERIMENTER
    assert body.body.entries == ((b"\x01" * 6, 9),)


def test_packet_in_emitted_when_attached(session, datapath):
    conn, pipe = session
    conn.feed(flow_mod_bytes(priority=0, match=MatchSet.from_pairs({}),
                             instructions=[m.ApplyActions(
                                 [m.OutputAction(m.OFPP_CONTROLLER)])]))
    datapath.receive_packet(2, b"\x00" * 60)
    msg = pipe.messages()[-1]
    assert isinstance(msg.body, m.PacketIn)
    assert msg.body.reason == m.OFPR_NO_MATCH
    assert msg.body.payload == b"\x00" * 60
    got = {f.name: f.value for f in msg.body.match}
    assert got["in_port"] == (2).to_bytes(4, "big")


def test_flow_removed_emitted_on_expiry(session, datapath, clock):
    conn, pipe = session
    conn.feed(flow_mod_bytes(hard_timeout=5, flags=m.OFPFF_SEND_FLOW_REM))
    clock.advance(6)
    datapath.expire(clock())
    body = pipe.messages()[-1].body
    assert isinstance(body, m.FlowRemoved)
    assert body.reason == m.OFPRR_HARD_TIMEOUT
    assert body.priority == 10


def test_feed_is_chunk_boundary_agnostic(session, datapath):
    conn, pipe = session
    raw = flow_mod_bytes() + wire.pack(m.OfMessage(21, m.EchoRequest(b"z")))
    for i in range(0, len(raw), 3):
        conn.feed(raw[i:i + 3])
    assert len(datapath.tables[0]) == 1
    assert isinstance(pipe.messages()[-1].body, m.EchoReply)


def test_trace_records_both_directions(session):
    conn, pipe = session
    conn.feed(wire.pack(m.OfMessage(1, m.EchoRequest(b""))))
    dirs = [d for d, _ in conn.trace]
    assert "rx" in dirs and "tx" in dirs


def test_trace_keeps_only_the_newest_messages(session):
    conn, pipe = session
    for xid in range(TRACE_LEN):
        conn.feed(wire.pack(m.OfMessage(xid, m.EchoRequest(b""))))
    assert len(conn.trace) == TRACE_LEN
    direction, last = conn.trace[-1]
    assert direction == "tx" and last.xid == TRACE_LEN - 1
    assert isinstance(last.body, m.EchoReply)


# -- TCP transport --------------------------------------------------------------


def handshake(sock):
    sock.sendall(wire.pack(m.OfMessage(0, m.Hello())))
    buf = wire.FrameBuffer()
    frames = []
    while not frames:
        frames = list(buf.feed(sock.recv(65536)))
    assert isinstance(wire.unpack(frames[0]).body, m.Hello)
    return buf


def rpc(sock, buf, msg):
    sock.sendall(wire.pack(msg))
    frames = []
    while not frames:
        frames = list(buf.feed(sock.recv(65536)))
    return wire.unpack(frames[0])


def test_tcp_server_two_clients(datapath):
    server = SwitchTcpServer(datapath)
    server.start()
    try:
        results = {}

        def client(name):
            with socket.create_connection(server.address, timeout=5) as sock:
                buf = handshake(sock)
                reply = rpc(sock, buf, m.OfMessage(2, m.FeaturesRequest()))
                results[name] = reply.body.datapath_id

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results == {0: 1, 1: 1}
    finally:
        server.stop()


def test_connect_active_backoff(datapath):
    sleeps = []
    with pytest.raises(OSError):
        connect_active(datapath, "127.0.0.1", 1,  # closed port
                       sleep=sleeps.append, attempts=4)
    assert sleeps == [1.0, 2.0, 4.0]


def test_connect_active_dials_out(datapath):
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    try:
        sock, conn = connect_active(datapath, *listener.getsockname())
        peer, _ = listener.accept()
        data = peer.recv(65536)
        assert isinstance(wire.unpack(data).body, m.Hello)
        sock.close()
        peer.close()
    finally:
        listener.close()
