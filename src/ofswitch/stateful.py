"""Stateful forwarding: per-flow-table state tables and in-switch packet
generation templates.

A state table attaches to one flow table.  Packets entering that flow
table first get a state lookup keyed by the configured lookup scope; the
value lands in the field map as the ``state`` match field.  A fast-path
set-state action rewrites the entry keyed by the update scope, with
optional idle/hard rollback timers.  Entries holding the default state
with no pending rollback are not stored: a miss is the default state.

Rollback timers follow the flow-table rule, ``flowtable.timeout_reason``.
A due rollback is applied when its key is looked up, and by ``expire``,
which sweeps the whole table; ``dump`` sweeps before it reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import BadScope, BadTable, BadTemplate, ScopeWidthMismatch
from .flowtable import timeout_reason
from .messages import OFPRR_HARD_TIMEOUT, Experimenter, SetStateAction
from .oxm import FIELDS, STATE_EXPERIMENTER_ID, field_by_key
from .wire import _Reader

DEFAULT_STATE = 0

# Experimenter message subtypes (see docs/stateful-wire.md, version 1)
EXPMSG_SET_STATE_TABLE_CONFIG = 1
EXPMSG_SET_STATE_ENTRY = 2
EXPMSG_DEL_STATE_ENTRY = 3
EXPMSG_SET_PKT_TEMPLATE = 4

# Where a generated packet goes.  A kind's index here is its wire
# ``egress_kind``; only "port" carries a port number.
EGRESS_KINDS = ("port", "in_port", "pipeline")


def _scope_width(scope: list[str]) -> int:
    total = 0
    for name in scope:
        t = FIELDS.get(name)
        if t is None:
            raise BadScope(f"unknown scope field {name!r}")
        total += t.nbytes
    return total


@dataclass
class StateTableConfig:
    table_id: int
    lookup_scope: list[str]
    update_scope: list[str]

    def validate(self) -> None:
        if not self.lookup_scope or not self.update_scope:
            raise BadScope("lookup and update scopes must be nonempty")
        lw = _scope_width(self.lookup_scope)
        uw = _scope_width(self.update_scope)
        if lw != uw:
            raise ScopeWidthMismatch(
                f"lookup scope is {lw} bytes, update scope is {uw} bytes"
            )


@dataclass
class StateEntry:
    state: int
    idle_timeout: int = 0
    idle_rollback: int = 0
    hard_timeout: int = 0
    hard_rollback: int = 0
    install_time: float = 0.0
    last_touch: float = 0.0


class StateTable:
    def __init__(self, config: StateTableConfig):
        config.validate()
        self.config = config
        self.entries: dict[bytes, StateEntry] = {}
        self.key_miss_count = 0  # packets lacking a scope field

    def extract_key(self, fields: dict, scope: list[str]) -> bytes | None:
        parts = []
        for name in scope:
            v = fields.get(name)
            if v is None:
                return None
            parts.append(v)
        return b"".join(parts)

    def _roll_back(self, key: bytes, entry: StateEntry, now: float) -> int:
        """Resolve rollback timers; returns the effective state."""
        reason = timeout_reason(entry.idle_timeout, entry.hard_timeout,
                                entry.install_time, entry.last_touch, now)
        if reason is None:
            return entry.state
        state = entry.hard_rollback if reason == OFPRR_HARD_TIMEOUT else entry.idle_rollback
        if state == DEFAULT_STATE:
            del self.entries[key]
        else:
            self.entries[key] = StateEntry(state, install_time=now, last_touch=now)
        return state

    def lookup(self, fields: dict, now: float) -> int:
        key = self.extract_key(fields, self.config.lookup_scope)
        if key is None:
            self.key_miss_count += 1
            return DEFAULT_STATE
        entry = self.entries.get(key)
        if entry is None:
            return DEFAULT_STATE
        state = self._roll_back(key, entry, now)
        live = self.entries.get(key)
        if live is not None:
            live.last_touch = now
        return state

    def set_state(self, key: bytes, action: SetStateAction, now: float) -> None:
        if (action.next_state == DEFAULT_STATE and not action.idle_timeout
                and not action.hard_timeout):
            self.entries.pop(key, None)
            return
        self.entries[key] = StateEntry(
            state=action.next_state,
            idle_timeout=action.idle_timeout,
            idle_rollback=action.idle_rollback,
            hard_timeout=action.hard_timeout,
            hard_rollback=action.hard_rollback,
            install_time=now,
            last_touch=now,
        )

    def delete(self, key: bytes) -> None:
        self.entries.pop(key, None)

    def expire(self, now: float) -> None:
        """Apply every rollback that is due at ``now``."""
        for key, entry in list(self.entries.items()):
            self._roll_back(key, entry, now)

    def dump(self, now: float) -> list[tuple[bytes, int]]:
        """Current (key, state) pairs, after applying due rollbacks."""
        self.expire(now)
        return sorted((k, e.state) for k, e in self.entries.items())


@dataclass
class TemplateSlot:
    offset: int
    source_field: str


@dataclass
class PacketTemplate:
    template_id: int
    data: bytes
    slots: list[TemplateSlot] = field(default_factory=list)
    egress: tuple = ("in_port",)  # (kind,) or ("port", port_no)

    def validate(self) -> None:
        kind = self.egress[0]
        if kind not in EGRESS_KINDS or len(self.egress) != 1 + (kind == "port"):
            raise BadTemplate(f"bad template egress {self.egress!r}")
        if len(self.data) < 14:
            raise BadTemplate("template below the Ethernet minimum")
        for s in self.slots:
            t = FIELDS.get(s.source_field)
            if t is None:
                raise BadTemplate(f"unknown slot source field {s.source_field!r}")
            if s.offset < 0 or s.offset + t.nbytes > len(self.data):
                raise BadTemplate(
                    f"slot for {s.source_field} at {s.offset} exceeds template bounds"
                )

    def instantiate(self, trigger_fields: dict) -> bytes:
        out = bytearray(self.data)
        for s in self.slots:
            v = trigger_fields.get(s.source_field)
            if v is not None:
                out[s.offset:s.offset + len(v)] = v
        return bytes(out)


@dataclass
class SetStateEntry:
    """Write one state entry from the controller; ``action`` names the table,
    the state and its rollback timers, as a set-state action does."""
    key: bytes
    action: SetStateAction


@dataclass
class DelStateEntry:
    table_id: int
    key: bytes


# -- experimenter wire layouts ------------------------------------------------------
# Formats are this project's own, versioned in docs/stateful-wire.md.

_TABLE_CONFIG = struct.Struct("!BxBB")  # table id, lookup and update scope lengths
_SCOPE_FIELD = struct.Struct("!HBB")  # OXM class, field id << 1, width
_SET_STATE_ENTRY = struct.Struct("!BxHIIIII")  # table id, key length, state, timers
_DEL_STATE_ENTRY = struct.Struct("!BxH")  # table id, key length
_PKT_TEMPLATE = struct.Struct("!IBxHHI")  # id, egress kind, slots, data length, port
_TEMPLATE_SLOT = struct.Struct("!HHBB2x")  # offset, OXM class, field id << 1, width


def _encode_scope(scope: list[str]) -> bytes:
    out = b""
    for name in scope:
        t = FIELDS[name]
        out += _SCOPE_FIELD.pack(t.oxm_class, t.field_id << 1, t.nbytes)
    return out


def _decode_scope(r: _Reader, count: int) -> list[str]:
    scope = []
    for _ in range(count):
        oxm_class, fh, _n = r.read(_SCOPE_FIELD)
        t = field_by_key(oxm_class, fh >> 1)
        if t is None:
            raise BadScope(f"unknown scope field class={oxm_class:#x} id={fh >> 1}")
        scope.append(t.name)
    return scope


def encode_state_table_config(cfg: StateTableConfig) -> Experimenter:
    cfg.validate()
    payload = _TABLE_CONFIG.pack(cfg.table_id, len(cfg.lookup_scope), len(cfg.update_scope))
    payload += _encode_scope(cfg.lookup_scope) + _encode_scope(cfg.update_scope)
    return Experimenter(STATE_EXPERIMENTER_ID, EXPMSG_SET_STATE_TABLE_CONFIG, payload)


def encode_set_state_entry(table_id: int, key: bytes, state: int,
                           idle_timeout=0, idle_rollback=0,
                           hard_timeout=0, hard_rollback=0) -> Experimenter:
    payload = _SET_STATE_ENTRY.pack(
        table_id, len(key), state,
        idle_timeout, idle_rollback, hard_timeout, hard_rollback,
    ) + key
    return Experimenter(STATE_EXPERIMENTER_ID, EXPMSG_SET_STATE_ENTRY, payload)


def encode_del_state_entry(table_id: int, key: bytes) -> Experimenter:
    payload = _DEL_STATE_ENTRY.pack(table_id, len(key)) + key
    return Experimenter(STATE_EXPERIMENTER_ID, EXPMSG_DEL_STATE_ENTRY, payload)


def encode_pkt_template(tmpl: PacketTemplate) -> Experimenter:
    tmpl.validate()
    kind = tmpl.egress[0]
    payload = _PKT_TEMPLATE.pack(
        tmpl.template_id, EGRESS_KINDS.index(kind), len(tmpl.slots), len(tmpl.data),
        tmpl.egress[1] if kind == "port" else 0,
    )
    for s in tmpl.slots:
        t = FIELDS[s.source_field]
        payload += _TEMPLATE_SLOT.pack(s.offset, t.oxm_class, t.field_id << 1, t.nbytes)
    return Experimenter(STATE_EXPERIMENTER_ID, EXPMSG_SET_PKT_TEMPLATE, payload + tmpl.data)


def decode_experimenter(
    body: Experimenter,
) -> StateTableConfig | SetStateEntry | DelStateEntry | PacketTemplate | None:
    """Decode a stateful-control experimenter message into a typed command.

    Returns None for foreign experimenter ids (carried opaquely elsewhere).
    A payload shorter than its layout or its declared lengths raises
    ``BadLength``.
    """
    if body.experimenter_id != STATE_EXPERIMENTER_ID:
        return None
    r = _Reader(body.payload)
    if body.exp_type == EXPMSG_SET_STATE_TABLE_CONFIG:
        table_id, n_lookup, n_update = r.read(_TABLE_CONFIG)
        lookup = _decode_scope(r, n_lookup)
        update = _decode_scope(r, n_update)
        return StateTableConfig(table_id, lookup, update)
    if body.exp_type == EXPMSG_SET_STATE_ENTRY:
        table_id, key_len, state, idle_t, idle_r, hard_t, hard_r = r.read(_SET_STATE_ENTRY)
        action = SetStateAction(table_id, state, idle_t, idle_r, hard_t, hard_r)
        return SetStateEntry(r.take(key_len), action)
    if body.exp_type == EXPMSG_DEL_STATE_ENTRY:
        table_id, key_len = r.read(_DEL_STATE_ENTRY)
        return DelStateEntry(table_id, r.take(key_len))
    if body.exp_type == EXPMSG_SET_PKT_TEMPLATE:
        template_id, egress_kind, n_slots, data_len, egress_port = r.read(_PKT_TEMPLATE)
        slots = []
        for _ in range(n_slots):
            offset, oxm_class, fh, _n = r.read(_TEMPLATE_SLOT)
            t = field_by_key(oxm_class, fh >> 1)
            if t is None:
                raise BadTemplate("unknown slot field in template message")
            slots.append(TemplateSlot(offset, t.name))
        tmpl_data = r.take(data_len)
        if egress_kind >= len(EGRESS_KINDS):
            raise BadTemplate(f"unknown template egress kind {egress_kind}")
        kind = EGRESS_KINDS[egress_kind]
        egress = (kind, egress_port) if kind == "port" else (kind,)
        return PacketTemplate(template_id, tmpl_data, slots, egress)
    raise BadTable(f"unknown stateful experimenter subtype {body.exp_type}")
