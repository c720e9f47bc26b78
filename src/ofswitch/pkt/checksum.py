"""Internet checksum helpers (IPv4 header, TCP/UDP pseudo-header)."""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """RFC 1071 checksum of ``data``, zero-padded to an even length.

    2**16 is 1 modulo 0xFFFF, so the one's-complement sum of the 16-bit
    words is the whole buffer read as one integer, modulo 0xFFFF, with a
    nonzero multiple of 0xFFFF read as 0xFFFF (only an all-zero input sums
    to 0).  The checksum is that sum complemented.
    """
    if len(data) % 2:
        data = data + b"\x00"
    whole = int.from_bytes(data, "big")
    total = whole % 0xFFFF
    if total == 0 and whole:
        total = 0xFFFF
    return ~total & 0xFFFF


def ipv4_header_checksum(buf, off: int, hlen: int) -> int:
    header = bytes(buf[off:off + hlen])
    header = header[:10] + b"\x00\x00" + header[12:]
    return internet_checksum(header)


def _pseudo_v4(buf, l3_off: int, proto: int, l4len: int) -> bytes:
    return (bytes(buf[l3_off + 12:l3_off + 20])
            + bytes([0, proto])
            + l4len.to_bytes(2, "big"))


def _pseudo_v6(buf, l3_off: int, proto: int, l4len: int) -> bytes:
    return (bytes(buf[l3_off + 8:l3_off + 40])
            + l4len.to_bytes(4, "big")
            + bytes([0, 0, 0, proto]))


_CHECKSUM_OFFSET = {"tcp": 16, "udp": 6, "icmp": 2, "icmp6": 2}


def l4_checksum(buf, l3_kind: str, l3_off: int, l4_kind: str, l4_off: int, l4_end: int) -> int:
    """Checksum of the transport segment buf[l4_off:l4_end], with its own
    checksum field zeroed and the pseudo-header prepended where required."""
    seg = bytes(buf[l4_off:l4_end])
    co = _CHECKSUM_OFFSET[l4_kind]
    seg = seg[:co] + b"\x00\x00" + seg[co + 2:]
    l4len = l4_end - l4_off
    if l4_kind == "icmp":
        pseudo = b""
    elif l3_kind == "ipv4":
        proto = {"tcp": 6, "udp": 17}[l4_kind]
        pseudo = _pseudo_v4(buf, l3_off, proto, l4len)
    else:
        proto = {"tcp": 6, "udp": 17, "icmp6": 58}[l4_kind]
        pseudo = _pseudo_v6(buf, l3_off, proto, l4len)
    return internet_checksum(pseudo + seg)


def write_l4_checksum(buf: bytearray, l3_kind: str, l3_off: int,
                      l4_kind: str, l4_off: int, l4_end: int) -> None:
    cs = l4_checksum(buf, l3_kind, l3_off, l4_kind, l4_off, l4_end)
    if l4_kind == "udp" and cs == 0:
        cs = 0xFFFF
    co = l4_off + _CHECKSUM_OFFSET[l4_kind]
    buf[co:co + 2] = cs.to_bytes(2, "big")


def write_ipv4_checksum(buf: bytearray, off: int, hlen: int) -> None:
    cs = ipv4_header_checksum(buf, off, hlen)
    buf[off + 10:off + 12] = cs.to_bytes(2, "big")
