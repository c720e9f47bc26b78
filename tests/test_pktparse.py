"""Packet parser and editor tests."""

import copy
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofswitch.errors import FieldAbsent, PopEmpty, TruncatedFrame
from ofswitch.pkt import apply_set_field, parse, pop_tag, push_tag
from ofswitch.pkt import build
from ofswitch.pkt.checksum import internet_checksum, l4_checksum, ipv4_header_checksum

MAC_A = "0a:00:00:00:00:01"
MAC_B = "0a:00:00:00:00:02"


def ref_checksum(data: bytes) -> int:
    """Independent ones-complement sum for cross-checking."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def test_checksum_matches_reference():
    for blob in (b"", b"\x00\x01", b"\x45\x00\x00\x73\x00\x00\x40\x00\x40\x11",
                 bytes(range(97)), b"\xff" * 40):
        assert internet_checksum(blob) == ref_checksum(blob)


def _sums_to_ffff(data: bytes) -> bytes:
    """``data`` padded to even length and followed by its checksum: the
    one's-complement sum of the result is 0xFFFF, a multiple of 0xFFFF."""
    data += b"\x00" * (len(data) % 2)
    return data + ref_checksum(data).to_bytes(2, "big")


@given(data=st.one_of(
    st.binary(max_size=300),
    st.integers(0, 300).map(lambda n: b"\x00" * n),
    st.integers(0, 300).map(lambda n: b"\xff" * n),
    st.binary(max_size=300).map(_sums_to_ffff),
))
@settings(max_examples=400, deadline=None)
def test_checksum_fold_matches_reference(data):
    assert internet_checksum(data) == ref_checksum(data)


def test_ipv4_header_checksum_validates():
    frame = build.udp4_frame(MAC_B, MAC_A, "192.168.0.1", "192.168.0.2", 68, 67, b"x")
    ip = frame[14:34]
    assert ref_checksum(ip) == 0  # checksum over a valid header sums to zero


def test_udp_checksum_validates():
    frame = build.udp4_frame(MAC_B, MAC_A, "10.1.1.1", "10.1.1.2", 5000, 53, b"query")
    h = parse(frame, 1)
    total_len = struct.unpack("!H", frame[16:18])[0]
    udp = frame[34:14 + total_len]
    pseudo = frame[26:34] + b"\x00\x11" + struct.pack("!H", len(udp))
    assert ref_checksum(pseudo + udp) == 0
    assert h.fields["udp_src"] == (5000).to_bytes(2, "big")


def test_parse_basic_ipv4_udp():
    frame = build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1000, 2000, b"hello")
    h = parse(frame, 7)
    f = h.fields
    assert f["in_port"] == (7).to_bytes(4, "big")
    assert f["eth_dst"] == bytes.fromhex("0a0000000002")
    assert f["eth_type"] == b"\x08\x00"
    assert f["ip_proto"] == b"\x11"
    assert f["ipv4_src"] == bytes([10, 0, 0, 1])
    assert f["udp_dst"] == (2000).to_bytes(2, "big")
    assert "tcp_src" not in f


def test_parse_tcp_flags_ports():
    frame = build.tcp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 4321, 80, b"GET /")
    f = parse(frame, 1).fields
    assert f["ip_proto"] == b"\x06"
    assert f["tcp_src"] == (4321).to_bytes(2, "big")
    assert f["tcp_dst"] == (80).to_bytes(2, "big")


def test_parse_arp():
    frame = build.arp_frame(1, MAC_A, "10.0.0.1", "00:00:00:00:00:00", "10.0.0.2")
    f = parse(frame, 1).fields
    assert f["eth_type"] == b"\x08\x06"
    assert f["arp_op"] == b"\x00\x01"
    assert f["arp_spa"] == bytes([10, 0, 0, 1])
    assert f["arp_tpa"] == bytes([10, 0, 0, 2])
    assert f["arp_sha"] == bytes.fromhex("0a0000000001")


def test_parse_vlan_tag():
    inner = build.ipv4("10.0.0.1", "10.0.0.2", 17, build.udp(1, 2, b"x"))
    frame = build.vlan_tagged(MAC_B, MAC_A, 100, 0x0800, inner)
    f = parse(frame, 1).fields
    # the present bit rides along with the VLAN id
    assert f["vlan_vid"] == struct.pack("!H", 0x1000 | 100)
    assert f["eth_type"] == b"\x08\x00"
    assert f["ipv4_dst"] == bytes([10, 0, 0, 2])


def test_parse_qinq_sees_both_tags():
    inner = build.ipv4("10.0.0.1", "10.0.0.2", 17, build.udp(1, 2, b"x"))
    frame = build.qinq(MAC_B, MAC_A, 200, 30, 0x0800, inner)
    f = parse(frame, 1).fields
    assert f["vlan_vid"] == struct.pack("!H", 0x1000 | 200)
    assert f["vlan_vid_inner"] == struct.pack("!H", 0x1000 | 30)


def test_parse_ipv6_with_extension_headers():
    # hop-by-hop header then UDP
    src = bytes.fromhex("20010db8000000000000000000000001")
    dst = bytes.fromhex("20010db8000000000000000000000002")
    udp = build.udp(9999, 53, b"q")
    hbh = struct.pack("!BB6x", 17, 0)  # next=udp, len=0 (8 bytes)
    payload = hbh + udp
    ip6 = struct.pack("!IHBB", 0x60000000, len(payload), 0, 64) + src + dst + payload
    frame = build.ethernet(MAC_B, MAC_A, 0x86DD, ip6)
    f = parse(frame, 1).fields
    assert f["ipv6_src"] == src
    assert f["ip_proto"] == b"\x11"
    assert f["udp_dst"] == (53).to_bytes(2, "big")


def test_parse_truncated_raises():
    with pytest.raises(TruncatedFrame):
        parse(b"\x00" * 10, 1)


def test_parse_runt_ipv4_raises():
    # ethertype promises an IPv4 header but the bytes are not there
    frame = build.mac(MAC_B) + build.mac(MAC_A) + b"\x08\x00\x45"
    with pytest.raises(TruncatedFrame):
        parse(frame, 1)


def test_set_field_rewrites_and_fixes_checksums():
    frame = build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1000, 2000, b"data")
    h = parse(frame, 1)
    apply_set_field(h, "ipv4_dst", "10.9.9.9")
    assert h.fields["ipv4_dst"] == bytes([10, 9, 9, 9])
    out = bytes(h.buffer)
    assert ref_checksum(out[14:34]) == 0
    total_len = struct.unpack("!H", out[16:18])[0]
    udp = out[34:14 + total_len]
    pseudo = out[26:34] + b"\x00\x11" + struct.pack("!H", len(udp))
    assert ref_checksum(pseudo + udp) == 0


def test_set_field_absent_raises():
    frame = build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1, 2, b"")
    h = parse(frame, 1)
    with pytest.raises(FieldAbsent):
        apply_set_field(h, "tcp_dst", 80)


def test_push_and_pop_vlan_roundtrip():
    frame = build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1, 2, b"p")
    h = parse(frame, 1)
    before = bytes(h.buffer)
    push_tag(h, "vlan", 0x8100)
    apply_set_field(h, "vlan_vid", 0x1000 | 7)
    assert h.fields["vlan_vid"] == struct.pack("!H", 0x1007)
    pop_tag(h, "vlan")
    assert bytes(h.buffer) == before
    assert "vlan_vid" not in h.fields


def test_pop_vlan_empty_raises():
    frame = build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1, 2, b"")
    h = parse(frame, 1)
    with pytest.raises(PopEmpty):
        pop_tag(h, "vlan")


def test_push_and_pop_mpls_roundtrip():
    frame = build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1, 2, b"m")
    h = parse(frame, 1)
    before = bytes(h.buffer)
    push_tag(h, "mpls", 0x8847)
    assert h.fields["eth_type"] == b"\x88\x47"
    apply_set_field(h, "mpls_label", 777)
    assert h.fields["mpls_label"] == (777).to_bytes(4, "big")
    pop_tag(h, "mpls", 0x0800)
    assert bytes(h.buffer) == before


def test_clone_is_independent():
    frame = build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1, 2, b"c")
    h = parse(frame, 3)
    c = h.clone()
    apply_set_field(c, "eth_dst", MAC_A)
    assert h.fields["eth_dst"] == bytes.fromhex("0a0000000002")
    assert c.fields["eth_dst"] == bytes.fromhex("0a0000000001")
    assert c.in_port == 3


def _ipv6(next_hdr: int, payload: bytes) -> bytes:
    src = bytes.fromhex("20010db8000000000000000000000001")
    dst = bytes.fromhex("20010db8000000000000000000000002")
    return struct.pack("!IHBB", 0x6A312345, len(payload), next_hdr, 64) + src + dst + payload


def _mpls_frame() -> bytes:
    inner = build.ipv4("10.0.0.1", "10.0.0.2", 17, build.udp(1, 2, b"m"))
    stack = struct.pack("!II", (100 << 12) | (5 << 9) | 64, (200 << 12) | 0x100 | 64)
    return build.ethernet(MAC_B, MAC_A, 0x8847, stack + inner)


ORACLE_FRAMES = {
    "udp": build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1000, 2000, b"data",
                            dscp=46),
    "tcp": build.tcp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 4321, 80, b"GET /"),
    "icmp": build.ethernet(MAC_B, MAC_A, 0x0800, build.ipv4(
        "10.0.0.1", "10.0.0.2", 1, struct.pack("!BBHI", 8, 0, 0, 7) + b"ping", ecn=1)),
    "arp": build.arp_frame(1, MAC_A, "10.0.0.1", "00:00:00:00:00:00", "10.0.0.2"),
    "ipv6_udp": build.ethernet(MAC_B, MAC_A, 0x86DD, _ipv6(17, build.udp(9999, 53, b"q"))),
    "icmpv6": build.ethernet(MAC_B, MAC_A, 0x86DD,
                             _ipv6(58, struct.pack("!BBHI", 128, 0, 0, 1))),
    "qinq": build.qinq(MAC_B, MAC_A, 200, 30, 0x0800,
                       build.ipv4("10.0.0.1", "10.0.0.2", 17, build.udp(1, 2, b"x"))),
    "mpls": _mpls_frame(),
}

# fields a parse reports but set-field may not write
NOT_WRITABLE = {"eth_type", "ip_proto", "vlan_vid_inner", "vlan_pcp_inner"}


@pytest.mark.parametrize("kind", sorted(ORACLE_FRAMES))
def test_set_field_agrees_with_reparse(kind):
    """Whatever value a field is set to, the field map holds what a reparse
    of the rewritten buffer reads, and a clone holds the same."""
    frame = ORACLE_FRAMES[kind]
    rng = random.Random(kind)
    for name, raw in parse(frame, 3).fields.items():
        ones = (1 << 8 * len(raw)) - 1
        for value in (0, 0xFF, ones, rng.randint(0, ones)):
            h = parse(frame, 3)
            if name in NOT_WRITABLE:
                with pytest.raises(FieldAbsent):
                    apply_set_field(h, name, value)
                assert bytes(h.buffer) == frame
                continue
            apply_set_field(h, name, value)
            assert parse(bytes(h.buffer), h.in_port).fields == h.fields, (name, value)
            c = h.clone()
            assert c.buffer == h.buffer and c.buffer is not h.buffer
            assert c.fields == h.fields and c.fields is not h.fields


def test_mac_rewrite_leaves_the_rest_of_the_frame():
    # a UDP checksum of zero means "none" and is not the one a recompute writes
    frame = bytearray(build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1, 2, b"z"))
    frame[40:42] = b"\x00\x00"
    h = parse(frame, 1)
    apply_set_field(h, "eth_dst", MAC_A)
    assert bytes(h.buffer[:6]) == build.mac(MAC_A)
    assert h.buffer[12:] == frame[12:]


def _layout_state(lay):
    return {k: getattr(lay, k) for k in type(lay).__slots__}


def test_push_tag_on_clone_leaves_original():
    frame = build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1, 2, b"c")
    h = parse(frame, 3)
    fields, layout = dict(h.fields), copy.deepcopy(_layout_state(h.layout))
    for kind in ("vlan", "mpls"):
        c = h.clone()
        push_tag(c, kind)
        assert len(c.buffer) == len(frame) + 4
        assert bytes(h.buffer) == frame
        assert h.fields == fields
        assert _layout_state(h.layout) == layout


@given(sport=st.integers(0, 65535), dport=st.integers(0, 65535),
       payload=st.binary(max_size=64))
@settings(max_examples=100, deadline=None)
def test_udp_parse_roundtrip_property(sport, dport, payload):
    frame = build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2",
                             sport, dport, payload)
    f = parse(frame, 1).fields
    assert f["udp_src"] == sport.to_bytes(2, "big")
    assert f["udp_dst"] == dport.to_bytes(2, "big")


@given(data=st.binary(max_size=120))
@settings(max_examples=300, deadline=None)
def test_parse_fuzz_no_unexpected_exceptions(data):
    try:
        parse(b"\x00" * 12 + b"\x08\x00" + data, 1)
    except TruncatedFrame:
        pass
