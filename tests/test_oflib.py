"""Wire codec tests: the golden corpus, framing, and structural properties."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofswitch import flowtable, oxm
from ofswitch import messages as m
from ofswitch import wire
from ofswitch.errors import (
    BadLength,
    BadMatch,
    BadVersion,
    CodecError,
    DesyncError,
    Unencodable,
)
from ofswitch.oxm import STATE_EXPERIMENTER_ID, MatchSet, make_field, parse_bytes
from ofswitch.stateful import decode_experimenter


# -- golden corpus ---------------------------------------------------------------

def test_golden_frames_decode_and_repack(golden):
    for fr in golden["frames"]:
        raw = bytes.fromhex(fr["hex"])
        msg = wire.unpack(raw)
        assert msg.xid == fr["xid"], fr["name"]
        assert msg.msg_type == fr["type"], fr["name"]
        assert wire.pack(msg) == raw, fr["name"]


def test_golden_expected_attributes(golden):
    by_name = {fr["name"]: fr for fr in golden["frames"]}

    def body(name):
        return wire.unpack(bytes.fromhex(by_name[name]["hex"])).body

    fr = by_name["features_reply_64_tables"]
    b = body("features_reply_64_tables")
    assert b.datapath_id == fr["datapath_id"]
    assert b.n_tables == 64

    for name, fr in by_name.items():
        b = wire.unpack(bytes.fromhex(fr["hex"])).body
        if "command" in fr:
            assert b.command == fr["command"], name
        if "priority" in fr:
            assert b.priority == fr["priority"], name
        if "table_id" in fr:
            assert b.table_id == fr["table_id"], name
        if "cookie" in fr:
            assert b.cookie == fr["cookie"], name
        if "idle_timeout" in fr:
            assert b.idle_timeout == fr["idle_timeout"], name
        if "hard_timeout" in fr:
            assert b.hard_timeout == fr["hard_timeout"], name
        if "flags" in fr:
            assert b.flags == fr["flags"], name
        if "n_fields" in fr:
            assert len(b.match) == fr["n_fields"], name
        if "n_instructions" in fr:
            assert len(b.instructions) == fr["n_instructions"], name
        if "n_buckets" in fr:
            assert len(b.buckets) == fr["n_buckets"], name
        if "n_bands" in fr:
            assert len(b.bands) == fr["n_bands"], name
        if "group_id" in fr:
            assert b.group_id == fr["group_id"], name
        if "meter_id" in fr:
            assert b.meter_id == fr["meter_id"], name
        if "err_type" in fr:
            assert b.err_type == fr["err_type"], name
        if "err_code" in fr:
            assert b.code == fr["err_code"], name
        if "reason" in fr:
            assert b.reason == fr["reason"], name
        if "pi_table" in fr:
            assert b.table_id == fr["pi_table"], name
        if "po_in_port" in fr:
            assert b.in_port == fr["po_in_port"], name
        if "fr_reason" in fr:
            assert b.reason == fr["fr_reason"], name
        if "mp_kind" in fr:
            assert b.kind == fr["mp_kind"], name
        if "exp_type" in fr:
            assert b.exp_type == fr["exp_type"], name


def test_golden_invalid_frames_rejected(golden):
    for fr in golden["invalid"]:
        with pytest.raises(CodecError):
            wire.unpack(bytes.fromhex(fr["hex"]))


def test_truncated_golden_frames_raise_only_codec_errors(golden):
    # cut 1..n bytes off each body and rewrite the header length to match
    for fr in golden["frames"]:
        raw = bytes.fromhex(fr["hex"])
        for cut in range(1, len(raw) - m.OFP_HEADER_LEN + 1):
            short = raw[:2] + struct.pack("!H", len(raw) - cut) + raw[4:-cut]
            try:
                wire.unpack(short)
            except CodecError:
                pass


def test_truncated_stateful_payloads_raise_bad_length(golden):
    for fr in golden["frames"]:
        body = wire.unpack(bytes.fromhex(fr["hex"])).body
        if not isinstance(body, m.Experimenter) or body.experimenter_id != STATE_EXPERIMENTER_ID:
            continue
        for cut in range(1, len(body.payload) + 1):
            short = m.Experimenter(body.experimenter_id, body.exp_type, body.payload[:-cut])
            with pytest.raises(BadLength):
                decode_experimenter(short)


# -- one message of every kind ------------------------------------------------------

def _every_body(seq):
    """One body of every message type and every multipart reply kind, with
    each sequence field built by ``seq``."""
    match = MatchSet.from_pairs({"in_port": 1, "eth_type": 0x0800})
    acts = seq([m.OutputAction(2), m.SetStateAction(0, 5, idle_timeout=3), m.PktGenAction(1, True)])
    ins = seq([m.ApplyActions(acts), m.WriteActions(seq([m.GroupAction(1)])),
               m.WriteMetadata(5, 7), m.MeterInstruction(1), m.ClearActions(), m.GotoTable(3)])
    return [
        m.Hello(),
        m.Error(m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_LEN, b"abc"),
        m.EchoRequest(b"ping"),
        m.EchoReply(b"pong"),
        m.Experimenter(0xDEADBEEF, 7, b"xy"),
        m.FeaturesRequest(),
        m.FeaturesReply(1, 0, 64, 0x0F),
        m.PacketIn(m.OFP_NO_BUFFER, m.OFPR_ACTION, 0, match, b"\x00" * 60),
        m.FlowRemoved(9, 10, m.OFPRR_IDLE_TIMEOUT, 0, 1, 2, 3, 4, 5, 6, match),
        m.PacketOut(m.OFP_NO_BUFFER, 1, acts, b"\x00" * 60),
        m.FlowMod(command=m.OFPFC_ADD, match=match, priority=10, instructions=ins),
        m.GroupMod(m.OFPGC_ADD, m.OFPGT_SELECT, 1,
                   seq([m.Bucket(acts, 1), m.Bucket(seq([m.OutputAction(3)]), 2)])),
        m.MeterMod(m.OFPMC_ADD, m.OFPMF_KBPS, 1,
                   seq([m.DropBand(100, 10), m.DscpRemarkBand(50, 5, 2)])),
        m.MultipartRequest(m.OFPMP_FLOW, m.FlowStatsRequest(match=match)),
        m.MultipartReply(m.OFPMP_FLOW, seq([m.FlowStats(0, 1, 2, 10, 0, 0, 0, 9, 4, 400,
                                                        match, ins)])),
        m.MultipartReply(m.OFPMP_PORT_STATS, seq([m.PortStats(1, 2, 3, 4, 5, 6, 7)])),
        m.MultipartReply(m.OFPMP_GROUP, seq([m.GroupStats(1, 0, 2, 3, ((1, 2),))])),
        m.MultipartReply(m.OFPMP_METER, seq([m.MeterStats(1, 2, 3, 4)])),
        m.MultipartReply(m.OFPMP_PORT_DESC, seq([m.PortDesc(1, b"\x02" * 6, "eth1")])),
        m.MultipartReply(m.OFPMP_EXPERIMENTER, m.StateStats(0, ((b"\x01" * 6, 9),))),
    ]


def test_every_body_round_trips_whatever_its_sequence_type():
    with_lists = _every_body(list)
    assert {type(b) for b in with_lists} == set(m._BODY_TYPE)
    assert {b.kind for b in with_lists if isinstance(b, m.MultipartReply)} == {
        m.OFPMP_FLOW, m.OFPMP_PORT_STATS, m.OFPMP_GROUP, m.OFPMP_METER,
        m.OFPMP_PORT_DESC, m.OFPMP_EXPERIMENTER}
    for body, same in zip(with_lists, _every_body(tuple)):
        msg = m.OfMessage(7, body)
        assert wire.unpack(wire.pack(msg)) == msg, body
        assert msg == m.OfMessage(7, same), body


# -- header and framing -----------------------------------------------------------

def test_bad_version_is_specific():
    with pytest.raises(BadVersion):
        wire.unpack(struct.pack("!BBHI", 1, 0, 8, 0))


def test_trailing_bytes_rejected():
    raw = wire.pack(m.OfMessage(1, m.Hello())) + b"\x00"
    with pytest.raises(BadLength):
        wire.unpack(raw)


def test_frame_buffer_reassembles_split_frames():
    msgs = [m.OfMessage(i, m.EchoRequest(bytes([i]) * i)) for i in range(6)]
    stream = b"".join(wire.pack(x) for x in msgs)
    for chunk in (1, 2, 3, 7, len(stream)):
        fb = wire.FrameBuffer()
        frames = []
        for i in range(0, len(stream), chunk):
            frames.extend(fb.feed(stream[i:i + chunk]))
        assert [wire.unpack(f).xid for f in frames] == [0, 1, 2, 3, 4, 5]


def test_frame_buffer_desync_on_bad_version():
    fb = wire.FrameBuffer()
    with pytest.raises(DesyncError):
        fb.feed(b"\x99\x00\x00\x08" + b"\x00" * 4)


def test_frame_stream_helper():
    msgs = [wire.pack(m.OfMessage(i, m.Hello())) for i in range(3)]
    joined = b"".join(msgs)
    assert wire.frame_stream([joined[:5], joined[5:]]) == msgs


# -- structural roundtrip properties -----------------------------------------------

_FIELD_VALUES = {
    "in_port": st.integers(0, 2**32 - 1),
    "eth_dst": st.binary(min_size=6, max_size=6),
    "eth_src": st.binary(min_size=6, max_size=6),
    "eth_type": st.integers(0, 2**16 - 1),
    "metadata": st.integers(0, 2**64 - 1),
    "tunnel_id": st.integers(0, 2**64 - 1),
}


@st.composite
def match_sets(draw):
    names = draw(st.lists(st.sampled_from(sorted(_FIELD_VALUES)), unique=True, max_size=4))
    ms = MatchSet()
    for n in names:
        ms.add(make_field(n, draw(_FIELD_VALUES[n])))
    return ms


@st.composite
def actions(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return m.OutputAction(draw(st.integers(1, 100)))
    if kind == 1:
        return m.GroupAction(draw(st.integers(1, 2**32 - 2)))
    if kind == 2:
        return m.PushVlanAction(0x8100)
    if kind == 3:
        return m.SetFieldAction(make_field("eth_dst", draw(st.binary(min_size=6, max_size=6))))
    return m.SetStateAction(draw(st.integers(0, 63)), draw(st.integers(0, 2**32 - 1)))


@st.composite
def flow_mods(draw):
    insts = []
    if draw(st.booleans()):
        insts.append(m.ApplyActions(draw(st.lists(actions(), max_size=3))))
    if draw(st.booleans()):
        insts.append(m.GotoTable(draw(st.integers(1, 63))))
    return m.FlowMod(
        table_id=draw(st.integers(0, 63)),
        command=draw(st.sampled_from([0, 1, 2, 3, 4])),
        match=draw(match_sets()),
        priority=draw(st.integers(0, 2**16 - 1)),
        idle_timeout=draw(st.integers(0, 2**16 - 1)),
        hard_timeout=draw(st.integers(0, 2**16 - 1)),
        cookie=draw(st.integers(0, 2**64 - 1)),
        instructions=insts,
    )


@given(fm=flow_mods(), xid=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_flow_mod_roundtrip_property(fm, xid):
    msg = m.OfMessage(xid, fm)
    again = wire.unpack(wire.pack(msg))
    assert again == msg


@given(data=st.binary(max_size=64))
@settings(max_examples=500, deadline=None)
def test_fuzz_never_crashes_only_codec_errors(data):
    try:
        wire.unpack(data)
    except CodecError:
        pass


@given(payload=st.binary(max_size=32), xid=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_echo_roundtrip_property(payload, xid):
    msg = m.OfMessage(xid, m.EchoRequest(payload))
    assert wire.unpack(wire.pack(msg)) == msg


def test_oxm_experimenter_state_field_roundtrip():
    ms = MatchSet.from_pairs({"state": 7, "in_port": 3})
    fm = m.FlowMod(command=m.OFPFC_ADD, match=ms,
                   instructions=[m.ApplyActions([m.OutputAction(1)])])
    again = wire.unpack(wire.pack(m.OfMessage(5, fm)))
    got = {f.name: f.value for f in again.body.match}
    assert got["state"] == (7).to_bytes(4, "big")


def test_masked_oxm_with_bits_outside_its_mask_is_rejected():
    ms = MatchSet([make_field("ipv4_dst", "10.0.0.0", "255.255.255.0")])
    raw = wire.pack(m.OfMessage(1, m.FlowMod(command=m.OFPFC_ADD, match=ms)))
    at = raw.index(bytes([10, 0, 0, 0, 255, 255, 255, 0]))
    with pytest.raises(BadMatch):
        wire.unpack(raw[:at + 3] + b"\x01" + raw[at + 4:])  # 10.0.0.1/24


@pytest.mark.parametrize("body", [
    m.FlowMod(command=m.OFPFC_ADD, idle_timeout=70000),
    m.FlowMod(command=m.OFPFC_ADD, priority=70000),
    m.GroupMod(m.OFPGC_ADD, m.OFPGT_ALL, 2**33, []),
], ids=["idle_timeout", "priority", "group_id"])
def test_value_too_wide_for_its_wire_field_is_unencodable(body):
    with pytest.raises(Unencodable):
        wire.pack(m.OfMessage(1, body))


def test_header_length_is_recomputed():
    msg = m.OfMessage(1, m.EchoRequest(b"abcdef"))
    raw = wire.pack(msg)
    assert struct.unpack("!H", raw[2:4])[0] == len(raw) == 14


def test_ipv6_fields_take_compressed_and_full_addresses():
    assert make_field("ipv6_dst", "fe80::1").value == bytes.fromhex("fe80" + "00" * 12 + "0001")
    full = make_field("ipv6_dst", "1:2:3:4:5:6:7:8").value
    assert full == bytes.fromhex("00010002000300040005000600070008")


@pytest.mark.parametrize("text, nbytes, value", [
    ("10.0.0.1", 4, "0a000001"),
    ("aa:bb:cc:dd:ee:ff", 6, "aabbccddeeff"),
    ("1:2:3:4:5:6:7:8", 0, "0102030405060708"),
    ("::ffff:1.2.3.4", 16, "00000000000000000000ffff01020304"),
    ("0102aa", 3, "0102aa"),
])
def test_byte_text_forms(text, nbytes, value):
    assert parse_bytes(text, nbytes) == bytes.fromhex(value)


@pytest.mark.parametrize("text", ["10.1", "1.2.3", "10.0.0.256", "1.2.3.999",
                                  "zz:00:00:00:00:00", "0x10", "abc"])
def test_byte_text_rejects_malformed(text):
    with pytest.raises(BadMatch):
        parse_bytes(text)


# -- memory: dataclass instances carry no __dict__ --------------------------------------

_SAMPLES = {"int": 0, "bytes": b"", "str": "", "bool": False, "float": 0.0, "tuple": (),
            "MatchSet": MatchSet()}
_DATACLASSES = [cls for mod in (m, oxm, flowtable) for cls in vars(mod).values()
                if dataclasses.is_dataclass(cls) and cls.__module__ == mod.__name__]


@pytest.mark.parametrize("cls", _DATACLASSES, ids=lambda cls: cls.__name__)
def test_dataclass_instances_have_no_dict(cls):
    """Every message, match field and flow entry is slotted: a switch keeps
    one of each per installed flow, and per-instance dicts made a
    1,002-flow switch about 23 % larger."""
    args = [_SAMPLES.get(f.type.split("[")[0]) for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    assert not hasattr(cls(*args), "__dict__")
