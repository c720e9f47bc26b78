"""OXM match fields: registry, TLV value handling and match sets.

Field values are kept as fixed-width big-endian byte strings so that wire
encoding, packet field maps and match evaluation all share one
representation.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .errors import BadMatch

OFPXMC_OPENFLOW_BASIC = 0x8000
OFPXMC_EXPERIMENTER = 0xFFFF

# Experimenter id under which the flow-state match field and the stateful
# control messages travel.  Project-chosen constant; see docs/stateful-wire.md.
STATE_EXPERIMENTER_ID = 0x0057A7E5

# vlan_vid convention from OpenFlow 1.3: bit 12 set means "a tag is present".
OFPVID_PRESENT = 0x1000
OFPVID_NONE = 0x0000


@dataclass(frozen=True, slots=True)
class OxmType:
    name: str
    oxm_class: int
    field_id: int
    nbytes: int
    maskable: bool
    # prerequisite: list of (field_name, allowed int values or None = just present)
    prereq: tuple = ()


def _ft(name, field_id, nbytes, maskable=False, prereq=()):
    return OxmType(name, OFPXMC_OPENFLOW_BASIC, field_id, nbytes, maskable, tuple(prereq))


_IP = ("eth_type", (0x0800, 0x86DD))
_IP4 = ("eth_type", (0x0800,))
_IP6 = ("eth_type", (0x86DD,))
_ARP = ("eth_type", (0x0806,))
_MPLS = ("eth_type", (0x8847, 0x8848))

FIELDS: dict[str, OxmType] = {
    t.name: t
    for t in [
        _ft("in_port", 0, 4),
        _ft("in_phy_port", 1, 4, prereq=[("in_port", None)]),
        _ft("metadata", 2, 8, maskable=True),
        _ft("eth_dst", 3, 6, maskable=True),
        _ft("eth_src", 4, 6, maskable=True),
        _ft("eth_type", 5, 2),
        _ft("vlan_vid", 6, 2, maskable=True),
        _ft("vlan_pcp", 7, 1, prereq=[("vlan_vid", None)]),
        _ft("ip_dscp", 8, 1, prereq=[_IP]),
        _ft("ip_ecn", 9, 1, prereq=[_IP]),
        _ft("ip_proto", 10, 1, prereq=[_IP]),
        _ft("ipv4_src", 11, 4, maskable=True, prereq=[_IP4]),
        _ft("ipv4_dst", 12, 4, maskable=True, prereq=[_IP4]),
        _ft("tcp_src", 13, 2, prereq=[("ip_proto", (6,))]),
        _ft("tcp_dst", 14, 2, prereq=[("ip_proto", (6,))]),
        _ft("udp_src", 15, 2, prereq=[("ip_proto", (17,))]),
        _ft("udp_dst", 16, 2, prereq=[("ip_proto", (17,))]),
        _ft("icmpv4_type", 19, 1, prereq=[("ip_proto", (1,))]),
        _ft("icmpv4_code", 20, 1, prereq=[("ip_proto", (1,))]),
        _ft("arp_op", 21, 2, prereq=[_ARP]),
        _ft("arp_spa", 22, 4, maskable=True, prereq=[_ARP]),
        _ft("arp_tpa", 23, 4, maskable=True, prereq=[_ARP]),
        _ft("arp_sha", 24, 6, maskable=True, prereq=[_ARP]),
        _ft("arp_tha", 25, 6, maskable=True, prereq=[_ARP]),
        _ft("ipv6_src", 26, 16, maskable=True, prereq=[_IP6]),
        _ft("ipv6_dst", 27, 16, maskable=True, prereq=[_IP6]),
        _ft("ipv6_flabel", 28, 4, maskable=True, prereq=[_IP6]),
        _ft("icmpv6_type", 29, 1, prereq=[("ip_proto", (58,))]),
        _ft("icmpv6_code", 30, 1, prereq=[("ip_proto", (58,))]),
        _ft("mpls_label", 34, 4, prereq=[_MPLS]),
        _ft("mpls_tc", 35, 1, prereq=[_MPLS]),
        _ft("mpls_bos", 36, 1, prereq=[_MPLS]),
        _ft("tunnel_id", 38, 8, maskable=True),
        # flow-state match field (experimenter class, see stateful wire doc)
        OxmType("state", OFPXMC_EXPERIMENTER, 0, 4, True),
    ]
}

_BY_KEY: dict[tuple[int, int], OxmType] = {(t.oxm_class, t.field_id): t for t in FIELDS.values()}
# one shared key tuple per known field, so match sets do not each hold copies
_KEYS = {key: key for key in _BY_KEY}


def field_type(name: str) -> OxmType:
    try:
        return FIELDS[name]
    except KeyError:
        raise BadMatch(f"unknown field {name!r}") from None


def field_by_key(oxm_class: int, field_id: int) -> Optional[OxmType]:
    return _BY_KEY.get((oxm_class, field_id))


def parse_bytes(text: str, nbytes: int = 0) -> bytes:
    """Bytes written as text: dotted IPv4 (10.0.0.1), colon-separated hex
    bytes (aa:bb:cc:dd:ee:ff), IPv6 (fe80::1) or plain hex digits (0102aa).

    Colon-separated text is IPv6 when a group is wider than two digits or
    empty (``::``), or when it is read for a 16-byte field (``nbytes``), so
    that ``1:2:3:4:5:6:7:8`` names an address there and eight bytes elsewhere.
    """
    try:
        if ":" in text:
            groups = text.split(":")
            if nbytes != 16 and all(len(g) in (1, 2) for g in groups):
                return bytes.fromhex("".join(g.zfill(2) for g in groups))
            return ipaddress.IPv6Address(text).packed
        if "." not in text:
            return bytes.fromhex(text)
        parts = text.split(".")
        if len(parts) == 4 and text.isascii() and all(p.isdigit() for p in parts):
            return bytes(int(p) for p in parts)
    except ValueError:
        pass
    raise BadMatch(f"cannot read {text!r} as bytes")


def _to_bytes(value: Union[int, str, bytes, bytearray], nbytes: int) -> bytes:
    if isinstance(value, str):
        value = parse_bytes(value, nbytes)
    if isinstance(value, (bytes, bytearray)):
        if len(value) != nbytes:
            raise BadMatch(f"value is {len(value)} bytes, expected {nbytes}")
        return bytes(value)
    if isinstance(value, int):
        if value < 0 or value >= 1 << (8 * nbytes):
            raise BadMatch(f"value {value} out of range for {nbytes}-byte field")
        return value.to_bytes(nbytes, "big")
    raise BadMatch(f"unsupported value type {type(value).__name__}")


def encode_value(name: str, value) -> bytes:
    return _to_bytes(value, field_type(name).nbytes)


@dataclass(frozen=True, slots=True)
class OxmField:
    oxm_class: int
    field_id: int
    value: bytes
    mask: Optional[bytes] = None

    def __post_init__(self):
        if self.mask is not None:
            if len(self.mask) != len(self.value):
                raise BadMatch("mask length differs from value length")
            if any(v & ~m & 0xFF for v, m in zip(self.value, self.mask)):
                raise BadMatch("masked value not in canonical form (value & ~mask != 0)")

    @property
    def has_mask(self) -> bool:
        return self.mask is not None

    @property
    def name(self) -> Optional[str]:
        t = field_by_key(self.oxm_class, self.field_id)
        return t.name if t else None

    def covers(self, raw: bytes) -> bool:
        """True when a packet field value satisfies this (possibly masked) field."""
        if self.mask is None:
            return raw == self.value
        if len(raw) != len(self.value):
            return False
        return all((r & m) == v for r, m, v in zip(raw, self.mask, self.value))


def make_field(name: str, value, mask=None) -> OxmField:
    t = field_type(name)
    vb = _to_bytes(value, t.nbytes)
    mb = None
    if mask is not None:
        if not t.maskable:
            raise BadMatch(f"field {name} is not maskable")
        mb = _to_bytes(mask, t.nbytes)
        vb = bytes(v & m for v, m in zip(vb, mb))
    return OxmField(t.oxm_class, t.field_id, vb, mb)


class MatchSet:
    """Ordered collection of OXM fields keyed by (class, field_id)."""

    __slots__ = ("_fields",)

    def __init__(self, fields: Iterable[OxmField] = ()):
        self._fields: dict[tuple[int, int], OxmField] = {}
        for f in fields:
            self.add(f)

    @classmethod
    def from_pairs(cls, pairs: Mapping[str, object]) -> "MatchSet":
        """Build from {name: value} or {name: (value, mask)}."""
        ms = cls()
        for name, v in pairs.items():
            if isinstance(v, tuple):
                ms.add(make_field(name, v[0], v[1]))
            else:
                ms.add(make_field(name, v))
        return ms

    def add(self, field: OxmField) -> None:
        key = (field.oxm_class, field.field_id)
        key = _KEYS.get(key, key)
        if key in self._fields:
            raise BadMatch(f"duplicate match field {field.name or key}")
        self._fields[key] = field

    def fields(self) -> list[OxmField]:
        return list(self._fields.values())

    def get(self, name: str) -> Optional[OxmField]:
        t = field_type(name)
        return self._fields.get((t.oxm_class, t.field_id))

    def __len__(self):
        return len(self._fields)

    def __iter__(self):
        return iter(self._fields.values())

    def __eq__(self, other):
        if not isinstance(other, MatchSet):
            return NotImplemented
        return self._fields == other._fields

    def __repr__(self):
        parts = []
        for f in self:
            label = f.name or f"{f.oxm_class:#x}:{f.field_id}"
            v = f.value.hex()
            parts.append(f"{label}={v}" + (f"/{f.mask.hex()}" if f.mask else ""))
        return "MatchSet(" + ", ".join(parts) + ")"

    # -- evaluation ---------------------------------------------------------

    def matches(self, fields: Mapping[str, bytes]) -> bool:
        """True when every match field is satisfied by the packet field map."""
        for f in self:
            name = f.name
            if name is None:
                return False
            raw = fields.get(name)
            if raw is None or not f.covers(raw):
                return False
        return True

    def validate_prerequisites(self) -> None:
        """Raise BadMatch when a field's prerequisite is absent or wrong."""
        for f in self:
            t = field_by_key(f.oxm_class, f.field_id)
            if t is None:
                continue
            for (req_name, allowed) in t.prereq:
                req = self.get(req_name)
                if req is None:
                    raise BadMatch(f"{t.name} requires {req_name}")
                if allowed is not None:
                    got = int.from_bytes(req.value, "big")
                    if got not in allowed:
                        raise BadMatch(
                            f"{t.name} requires {req_name} in {allowed}, got {got:#x}"
                        )
