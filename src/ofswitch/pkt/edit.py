"""In-place packet mutation: set-field and tag push/pop.

Set-field writes every buffer field through one table, ``FIELD_POSITIONS``:
``{header kind: {field: (byte offset, byte span[, shift, bit mask])}}``.
The byte offset counts from the start of the header, whose position the
packet's ``Layout`` holds; a field with a shift and bit mask holds the bits
``mask << shift`` of its span.  A field the table leaves out is not writable
and raises ``FieldAbsent``: ``ip_proto``, the inner QinQ tag, and
``eth_type``, since a new ethertype changes how the rest of the frame parses.

The field map holds what the buffer holds: a write stores the value with the
field's mask applied, and bits of the stored value outside the mask (the
VLAN present bit) keep their value, so a reparse of the buffer agrees with
the field map (that is the test oracle).  Checksums are recomputed only when
the written header is one they cover: IPv4, IPv6 (through the
pseudo-header), TCP, UDP, ICMP or ICMPv6.

Tag push/pop reparse, since they shift every later offset.
"""

from __future__ import annotations

from ..errors import FieldAbsent, PopEmpty
from ..oxm import encode_value
from . import checksum as ck
from .parse import (
    ETHERTYPE_MPLS,
    ETHERTYPE_VLAN,
    Layout,
    PacketHandle,
    parse,
)

# Pseudo-fields live only in the field map, not in the buffer.
PSEUDO_FIELDS = {"in_port", "in_phy_port", "metadata", "state", "tunnel_id"}

FIELD_POSITIONS = {
    "eth": {"eth_dst": (0, 6), "eth_src": (6, 6)},
    "vlan": {"vlan_vid": (2, 2, 0, 0x0FFF), "vlan_pcp": (2, 1, 5, 0x07)},
    "mpls": {"mpls_label": (0, 4, 12, 0xFFFFF), "mpls_tc": (0, 4, 9, 0x07),
             "mpls_bos": (0, 4, 8, 0x01)},
    "ipv4": {"ip_dscp": (1, 1, 2, 0x3F), "ip_ecn": (1, 1, 0, 0x03),
             "ipv4_src": (12, 4), "ipv4_dst": (16, 4)},
    # the traffic class straddles the first two bytes
    "ipv6": {"ip_dscp": (0, 2, 6, 0x3F), "ip_ecn": (0, 2, 4, 0x03),
             "ipv6_flabel": (0, 4, 0, 0xFFFFF), "ipv6_src": (8, 16), "ipv6_dst": (24, 16)},
    "arp": {"arp_op": (6, 2), "arp_sha": (8, 6), "arp_spa": (14, 4),
            "arp_tha": (18, 6), "arp_tpa": (24, 4)},
    "tcp": {"tcp_src": (0, 2), "tcp_dst": (2, 2)},
    "udp": {"udp_src": (0, 2), "udp_dst": (2, 2)},
    "icmp": {"icmpv4_type": (0, 1), "icmpv4_code": (1, 1)},
    "icmp6": {"icmpv6_type": (0, 1), "icmpv6_code": (1, 1)},
}

_CHECKSUMMED = {"ipv4", "ipv6", "tcp", "udp", "icmp", "icmp6"}


def _headers(lay: Layout):
    """(kind, offset) of each header a set-field can reach, outermost first;
    a tag stack is reached through its outermost entry."""
    yield "eth", 0
    if lay.vlan_tags:
        yield "vlan", lay.vlan_tags[0]
    if lay.mpls_entries:
        yield "mpls", lay.mpls_entries[0]
    if lay.l3_kind:
        yield lay.l3_kind, lay.l3_off
    if lay.l4_kind:
        yield lay.l4_kind, lay.l4_off


def _fix_checksums(handle: PacketHandle) -> None:
    lay = handle.layout
    if lay.l3_kind == "ipv4":
        ck.write_ipv4_checksum(handle.buffer, lay.l3_off, lay.l3_hlen)
    if lay.l4_kind and lay.l3_kind in ("ipv4", "ipv6"):
        ck.write_l4_checksum(
            handle.buffer, lay.l3_kind, lay.l3_off, lay.l4_kind, lay.l4_off, lay.l4_end
        )


def apply_set_field(handle: PacketHandle, name: str, value) -> None:
    """Rewrite one header field in place, then the checksums covering it."""
    if name not in handle.fields:
        raise FieldAbsent(f"packet carries no {name}")
    if name in PSEUDO_FIELDS:
        vb = encode_value(name, value)
        handle.fields[name] = vb
        if name == "in_port":
            handle.in_port = int.from_bytes(vb, "big")
        return

    for kind, start in _headers(handle.layout):
        pos = FIELD_POSITIONS[kind].get(name)
        if pos is not None:
            break
    else:
        raise FieldAbsent(f"{name} is not writable")
    vb = encode_value(name, value)
    buf = handle.buffer
    off, span = start + pos[0], pos[1]
    if len(pos) == 2:
        buf[off:off + span] = vb
    else:
        shift, mask = pos[2], pos[3]
        bits = int.from_bytes(vb, "big") & mask
        word = int.from_bytes(buf[off:off + span], "big") & ~(mask << shift)
        buf[off:off + span] = (word | bits << shift).to_bytes(span, "big")
        kept = int.from_bytes(handle.fields[name], "big") & ~mask
        vb = (kept | bits).to_bytes(len(vb), "big")
    handle.fields[name] = vb
    if kind in _CHECKSUMMED:
        _fix_checksums(handle)


def _reparse_into(handle: PacketHandle) -> None:
    fresh = parse(bytes(handle.buffer), handle.in_port)
    carry = {k: handle.fields[k] for k in PSEUDO_FIELDS if k in handle.fields}
    handle.fields = fresh.fields
    handle.fields.update(carry)
    handle.layout = fresh.layout


def push_tag(handle: PacketHandle, kind: str, ethertype: int | None = None) -> None:
    """Insert a VLAN tag or MPLS stack entry; field values copy the old
    outermost tag when one exists, else start zeroed."""
    buf = handle.buffer
    lay = handle.layout
    if kind == "vlan":
        tpid = ethertype if ethertype is not None else ETHERTYPE_VLAN
        tci = 0
        if lay.vlan_tags:
            tci = int.from_bytes(buf[lay.vlan_tags[0] + 2:lay.vlan_tags[0] + 4], "big")
        tag = tpid.to_bytes(2, "big") + tci.to_bytes(2, "big")
        buf[12:12] = tag
    elif kind == "mpls":
        tpid = ethertype if ethertype is not None else ETHERTYPE_MPLS
        if lay.mpls_entries:
            first = lay.mpls_entries[0]
            entry = int.from_bytes(buf[first:first + 4], "big") & ~0x100
        else:
            ttl = 64
            if lay.l3_kind == "ipv4":
                ttl = buf[lay.l3_off + 8]
            elif lay.l3_kind == "ipv6":
                ttl = buf[lay.l3_off + 7]
            entry = 0x100 | ttl  # bottom of stack, TTL copied from IP
        pos = lay.eth_type_off
        buf[pos:pos + 2] = tpid.to_bytes(2, "big")
        buf[pos + 2:pos + 2] = entry.to_bytes(4, "big")
    else:
        raise ValueError(f"unknown tag kind {kind!r}")
    _reparse_into(handle)


def pop_tag(handle: PacketHandle, kind: str, ethertype: int | None = None) -> None:
    buf = handle.buffer
    lay = handle.layout
    if kind == "vlan":
        if not lay.vlan_tags:
            raise PopEmpty("no VLAN tag to pop")
        off = lay.vlan_tags[0]
        del buf[off:off + 4]
    elif kind == "mpls":
        if not lay.mpls_entries:
            raise PopEmpty("no MPLS entry to pop")
        off = lay.mpls_entries[0]
        last = len(lay.mpls_entries) == 1
        del buf[off:off + 4]
        if last:
            new_type = ethertype if ethertype is not None else 0x0800
            buf[lay.eth_type_off:lay.eth_type_off + 2] = new_type.to_bytes(2, "big")
    else:
        raise ValueError(f"unknown tag kind {kind!r}")
    _reparse_into(handle)
