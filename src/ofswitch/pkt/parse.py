"""Packet parsing: raw Ethernet frames into a field map.

The parse graph is a pair of dispatch tables (`ETHERTYPE_STEPS`,
`IP_PROTO_STEPS`) mapping protocol numbers to header step functions.  Each
step consumes bytes at a strictly increasing offset, records fields and
returns the next (protocol, offset) hop, so parsing always terminates.
Adding a header means adding one entry to a table.
"""

from __future__ import annotations

from ..errors import RunawayParse, TruncatedFrame

ETH_MIN = 14

ETHERTYPE_VLAN = 0x8100
ETHERTYPE_QINQ = 0x88A8
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_ARP = 0x0806
ETHERTYPE_MPLS = 0x8847
ETHERTYPE_MPLS_MC = 0x8848

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17
IPPROTO_ICMPV6 = 58

# IPv6 extension headers skipped to reach the transport header
_IPV6_EXT = {0, 43, 60}  # hop-by-hop, routing, destination options
_IPV6_FRAGMENT = 44

_MAX_STEPS = 64  # runaway guard; far above any legal header chain


class Layout:
    """Byte positions of parsed headers, used for in-place edits.

    No code changes a Layout after parse: set-field moves no header, and tag
    push/pop assign a fresh one.  Clones therefore share it.
    """

    __slots__ = ("vlan_tags", "mpls_entries", "l3_kind", "l3_off", "l3_hlen",
                 "l4_kind", "l4_off", "l4_end", "eth_type_off")

    def __init__(self):
        self.vlan_tags: list[int] = []      # offsets of 4-byte TPID+TCI tags
        self.mpls_entries: list[int] = []   # offsets of 4-byte label entries
        self.l3_kind = None                 # "ipv4" | "ipv6" | "arp"
        self.l3_off = 0
        self.l3_hlen = 0
        self.l4_kind = None                 # "tcp" | "udp" | "icmp" | "icmp6"
        self.l4_off = 0
        self.l4_end = 0
        self.eth_type_off = 12              # position of the effective ethertype


class PacketHandle:
    """One packet in the pipeline: a single contiguous buffer plus context.

    The buffer is the only copy of the packet bytes; header rewrites mutate
    it in place.  ``fields`` mirrors the buffer and is kept consistent by the
    edit operations.
    """

    __slots__ = ("buffer", "in_port", "fields", "layout", "metadata")

    def __init__(self, buffer: bytearray, in_port: int, fields: dict, layout: Layout):
        self.buffer = buffer
        self.in_port = in_port
        self.fields = fields
        self.layout = layout
        self.metadata = 0

    def __len__(self):
        return len(self.buffer)

    def clone(self) -> "PacketHandle":
        """An independent copy: its own buffer and field map, the same Layout."""
        h = PacketHandle(bytearray(self.buffer), self.in_port, dict(self.fields), self.layout)
        h.metadata = self.metadata
        return h


def _parse_ipv4(buf, off, fields, layout):
    if off + 20 > len(buf):
        raise TruncatedFrame("IPv4 header extends past buffer")
    vihl = buf[off]
    if vihl >> 4 != 4:
        return None, off
    ihl = (vihl & 0x0F) * 4
    if ihl < 20 or off + ihl > len(buf):
        raise TruncatedFrame("IPv4 options extend past buffer")
    tos = buf[off + 1]
    total_len = int.from_bytes(buf[off + 2:off + 4], "big")
    frag = int.from_bytes(buf[off + 6:off + 8], "big")
    proto = buf[off + 9]
    fields["ip_dscp"] = bytes([tos >> 2])
    fields["ip_ecn"] = bytes([tos & 0x03])
    fields["ip_proto"] = bytes([proto])
    fields["ipv4_src"] = bytes(buf[off + 12:off + 16])
    fields["ipv4_dst"] = bytes(buf[off + 16:off + 20])
    layout.l3_kind = "ipv4"
    layout.l3_off = off
    layout.l3_hlen = ihl
    layout.l4_end = min(len(buf), off + total_len)
    if frag & 0x1FFF:  # non-first fragment: no transport header
        return None, off + ihl
    return ("ipproto", proto), off + ihl


def _parse_ipv6(buf, off, fields, layout):
    if off + 40 > len(buf):
        raise TruncatedFrame("IPv6 header extends past buffer")
    if buf[off] >> 4 != 6:
        return None, off
    flabel = int.from_bytes(buf[off:off + 4], "big") & 0xFFFFF
    payload_len = int.from_bytes(buf[off + 4:off + 6], "big")
    next_hdr = buf[off + 6]
    tc = ((buf[off] & 0x0F) << 4) | (buf[off + 1] >> 4)
    fields["ip_dscp"] = bytes([tc >> 2])
    fields["ip_ecn"] = bytes([tc & 0x03])
    fields["ipv6_src"] = bytes(buf[off + 8:off + 24])
    fields["ipv6_dst"] = bytes(buf[off + 24:off + 40])
    fields["ipv6_flabel"] = flabel.to_bytes(4, "big")
    layout.l3_kind = "ipv6"
    layout.l3_off = off
    layout.l3_hlen = 40
    layout.l4_end = min(len(buf), off + 40 + payload_len)
    pos = off + 40
    for _ in range(_MAX_STEPS):
        if next_hdr in _IPV6_EXT:
            if pos + 8 > len(buf):
                raise TruncatedFrame("IPv6 extension header extends past buffer")
            nh, hlen = buf[pos], buf[pos + 1]
            next_hdr, pos = nh, pos + (hlen + 1) * 8
            if pos > len(buf):
                raise TruncatedFrame("IPv6 extension header extends past buffer")
        elif next_hdr == _IPV6_FRAGMENT:
            if pos + 8 > len(buf):
                raise TruncatedFrame("IPv6 fragment header extends past buffer")
            frag_off = int.from_bytes(buf[pos + 2:pos + 4], "big") >> 3
            next_hdr, pos = buf[pos], pos + 8
            if frag_off:
                fields["ip_proto"] = bytes([next_hdr])
                return None, pos
        else:
            break
    else:
        raise RunawayParse("IPv6 extension header chain too long")
    fields["ip_proto"] = bytes([next_hdr])
    return ("ipproto", next_hdr), pos


def _parse_arp(buf, off, fields, layout):
    if off + 28 > len(buf):
        raise TruncatedFrame("ARP extends past buffer")
    htype = int.from_bytes(buf[off:off + 2], "big")
    ptype = int.from_bytes(buf[off + 2:off + 4], "big")
    if htype != 1 or ptype != ETHERTYPE_IPV4:
        return None, off
    layout.l3_kind = "arp"
    layout.l3_off = off
    fields["arp_op"] = bytes(buf[off + 6:off + 8])
    fields["arp_sha"] = bytes(buf[off + 8:off + 14])
    fields["arp_spa"] = bytes(buf[off + 14:off + 18])
    fields["arp_tha"] = bytes(buf[off + 18:off + 24])
    fields["arp_tpa"] = bytes(buf[off + 24:off + 28])
    return None, off + 28


def _parse_mpls(buf, off, fields, layout):
    pos = off
    for _ in range(_MAX_STEPS):
        if pos + 4 > len(buf):
            raise TruncatedFrame("MPLS entry extends past buffer")
        entry = int.from_bytes(buf[pos:pos + 4], "big")
        if pos == off:
            fields["mpls_label"] = ((entry >> 12) & 0xFFFFF).to_bytes(4, "big")
            fields["mpls_tc"] = bytes([(entry >> 9) & 0x07])
            fields["mpls_bos"] = bytes([(entry >> 8) & 0x01])
        layout.mpls_entries.append(pos)
        pos += 4
        if entry & 0x100:  # bottom of stack
            break
    else:
        raise RunawayParse("MPLS stack too deep")
    return None, pos  # payload type below MPLS is not inferred


def _parse_tcp(buf, off, fields, layout):
    if off + 20 > len(buf):
        raise TruncatedFrame("TCP header extends past buffer")
    fields["tcp_src"] = bytes(buf[off:off + 2])
    fields["tcp_dst"] = bytes(buf[off + 2:off + 4])
    layout.l4_kind = "tcp"
    layout.l4_off = off
    return None, off + 20


def _parse_udp(buf, off, fields, layout):
    if off + 8 > len(buf):
        raise TruncatedFrame("UDP header extends past buffer")
    fields["udp_src"] = bytes(buf[off:off + 2])
    fields["udp_dst"] = bytes(buf[off + 2:off + 4])
    layout.l4_kind = "udp"
    layout.l4_off = off
    return None, off + 8


def _parse_icmp(buf, off, fields, layout):
    if off + 4 > len(buf):
        raise TruncatedFrame("ICMP header extends past buffer")
    fields["icmpv4_type"] = bytes([buf[off]])
    fields["icmpv4_code"] = bytes([buf[off + 1]])
    layout.l4_kind = "icmp"
    layout.l4_off = off
    return None, off + 4


def _parse_icmp6(buf, off, fields, layout):
    if off + 4 > len(buf):
        raise TruncatedFrame("ICMPv6 header extends past buffer")
    fields["icmpv6_type"] = bytes([buf[off]])
    fields["icmpv6_code"] = bytes([buf[off + 1]])
    layout.l4_kind = "icmp6"
    layout.l4_off = off
    return None, off + 4


ETHERTYPE_STEPS = {
    ETHERTYPE_IPV4: _parse_ipv4,
    ETHERTYPE_IPV6: _parse_ipv6,
    ETHERTYPE_ARP: _parse_arp,
    ETHERTYPE_MPLS: _parse_mpls,
    ETHERTYPE_MPLS_MC: _parse_mpls,
}

IP_PROTO_STEPS = {
    IPPROTO_TCP: _parse_tcp,
    IPPROTO_UDP: _parse_udp,
    IPPROTO_ICMP: _parse_icmp,
    IPPROTO_ICMPV6: _parse_icmp6,
}


def parse(buffer, in_port: int = 0) -> PacketHandle:
    """Parse a raw Ethernet frame into a PacketHandle.

    Unknown ethertypes or transport protocols stop parsing gracefully;
    fields recognised up to that layer are retained.
    """
    buf = bytearray(buffer)
    if len(buf) < ETH_MIN:
        raise TruncatedFrame(f"{len(buf)}-byte frame is below the Ethernet minimum")

    fields: dict[str, bytes] = {}
    layout = Layout()
    fields["in_port"] = in_port.to_bytes(4, "big")
    fields["eth_dst"] = bytes(buf[0:6])
    fields["eth_src"] = bytes(buf[6:12])

    off = 12
    ethertype = int.from_bytes(buf[off:off + 2], "big")
    tag_index = 0
    for _ in range(_MAX_STEPS):
        if ethertype not in (ETHERTYPE_VLAN, ETHERTYPE_QINQ):
            break
        if off + 6 > len(buf):
            raise TruncatedFrame("VLAN tag extends past buffer")
        tci = int.from_bytes(buf[off + 2:off + 4], "big")
        if tag_index == 0:
            fields["vlan_vid"] = (0x1000 | (tci & 0x0FFF)).to_bytes(2, "big")
            fields["vlan_pcp"] = bytes([tci >> 13])
        elif tag_index == 1:
            # inner tag of a QinQ frame, exposed as derived pseudo-fields
            fields["vlan_vid_inner"] = (0x1000 | (tci & 0x0FFF)).to_bytes(2, "big")
            fields["vlan_pcp_inner"] = bytes([tci >> 13])
        layout.vlan_tags.append(off)
        tag_index += 1
        off += 4
        ethertype = int.from_bytes(buf[off:off + 2], "big")
    else:
        raise RunawayParse("VLAN tag chain too long")

    layout.eth_type_off = off
    fields["eth_type"] = ethertype.to_bytes(2, "big")
    off += 2

    step = ETHERTYPE_STEPS.get(ethertype)
    guard = 0
    while step is not None:
        guard += 1
        if guard > _MAX_STEPS:
            raise RunawayParse("parse step limit exceeded")
        nxt, off = step(buf, off, fields, layout)
        step = None
        if nxt is not None:
            kind, value = nxt
            if kind == "ipproto":
                step = IP_PROTO_STEPS.get(value)

    return PacketHandle(buf, in_port, fields, layout)
