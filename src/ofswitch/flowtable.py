"""Flow entries, priority-ordered flow tables, and the timeout rule.

A table is one list of entries sorted by (priority descending, insertion
sequence ascending), indexed by tuple-space search: each match compiles
at insert into a signature, its fields in ``(oxm_class, field_id)`` order
with each mask as an int (None for an exact field), and a key, the exact
fields' value bytes and the masked fields' values as ints, so equal
matches compile alike.  Entries that share a signature live in one hash
subtable keyed by that key.  A lookup makes one dict probe per signature;
install, strict selection and removal make one probe in all.  Lookup
probes subtables in descending order of their highest priority and stops
once the best hit's priority is above every remaining subtable's; a
subtable whose highest priority equals the best hit's is still probed,
because a tie at equal priority goes to the lowest insertion sequence
(``Datapath`` gives every entry its own).  A field this switch does not
know is named by its ``(oxm_class, field_id)``, which no packet field map
holds, so an entry naming one never matches.

Non-strict selection and the overlap check decide per subtable, from its
signature, whether its entries can qualify, and only then test its keys.
Expiry is a linear scan of the list.  ``timeout_reason`` is the one rule
for when a timer has run out, shared by flow entries and state entries.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter

from .errors import BadInstruction
from .messages import OFPRR_HARD_TIMEOUT, OFPRR_IDLE_TIMEOUT, GotoTable
from .oxm import MatchSet, field_by_key


def timeout_reason(idle_timeout: int, hard_timeout: int, install_time: float,
                   last_touch: float, now: float) -> int | None:
    """Which timer has run out at ``now``: ``OFPRR_HARD_TIMEOUT``,
    ``OFPRR_IDLE_TIMEOUT`` or None.  A zero timeout never runs out, and
    hard wins when both have."""
    if hard_timeout and now - install_time >= hard_timeout:
        return OFPRR_HARD_TIMEOUT
    if idle_timeout and now - last_touch >= idle_timeout:
        return OFPRR_IDLE_TIMEOUT
    return None


@dataclass(eq=False, slots=True)
class FlowEntry:
    match: MatchSet
    priority: int
    instructions: tuple
    idle_timeout: int = 0
    hard_timeout: int = 0
    cookie: int = 0
    flags: int = 0
    insertion_seq: int = 0
    install_time: float = 0.0
    last_match_time: float = 0.0
    packet_count: int = 0
    byte_count: int = 0

    def is_table_miss(self) -> bool:
        return self.priority == 0 and len(self.match) == 0

    def expired(self, now: float) -> bool:
        return self.expiry_reason(now) is not None

    def expiry_reason(self, now: float) -> int | None:
        return timeout_reason(self.idle_timeout, self.hard_timeout,
                              self.install_time, self.last_match_time, now)

    def validate_instructions(self, own_table_id: int, n_tables: int) -> None:
        gotos = [i for i in self.instructions if isinstance(i, GotoTable)]
        if len(gotos) > 1:
            raise BadInstruction("more than one goto-table instruction")
        for g in gotos:
            if g.table_id <= own_table_id:
                raise BadInstruction(
                    f"goto-table target {g.table_id} not beyond table {own_table_id}"
                )
            if g.table_id >= n_tables:
                raise BadInstruction(f"goto-table target {g.table_id} out of range")


_field_order = attrgetter("oxm_class", "field_id")
_priority = attrgetter("priority")


def _compile(match: MatchSet) -> tuple[tuple, tuple]:
    """The (signature, key) of a match.  Signature items are ``(name,
    mask, nbytes)`` in ``(oxm_class, field_id)`` order, with ``mask`` an
    int or None for an exact field and ``name`` the field's, or its
    ``(oxm_class, field_id)`` when this switch does not know it; the key
    holds an exact field's value bytes and a masked field's value as an
    int.  Two matches compile alike exactly when they are equal."""
    signature, key = [], []
    for f in sorted(match, key=_field_order):
        t = field_by_key(f.oxm_class, f.field_id)
        name = (f.oxm_class, f.field_id) if t is None else t.name
        value = f.value
        if f.mask is None:
            signature.append((name, None, len(value)))
            key.append(bytes(value))
        else:
            signature.append((name, int.from_bytes(f.mask, "big"), len(value)))
            key.append(int.from_bytes(value, "big"))
    return tuple(signature), tuple(key)


def _order(e: FlowEntry) -> tuple:
    return -e.priority, e.insertion_seq


class _Subtable:
    """The entries of one signature, by key.  ``top`` holds each key's
    highest-priority entry, the one a lookup wants; a key holds at most one
    entry per priority, and one that holds more keeps them all in
    ``shared``, in ascending priority order.  ``priorities`` counts the
    entries at each priority."""

    __slots__ = ("signature", "positions", "top", "shared", "priorities", "max_priority")

    def __init__(self, signature: tuple):
        self.signature = signature
        self.positions = {name: i for i, (name, _, _) in enumerate(signature)}
        self.top: dict[tuple, FlowEntry] = {}
        self.shared: dict[tuple, list[FlowEntry]] = {}
        self.priorities: dict[int, int] = {}
        self.max_priority = 0

    def find(self, key: tuple, priority: int) -> FlowEntry | None:
        """The entry with this key and priority."""
        e = self.top.get(key)
        if e is None or e.priority == priority:
            return e
        group = self.shared.get(key, ())
        i = bisect.bisect_left(group, priority, key=_priority)
        return group[i] if i < len(group) and group[i].priority == priority else None

    def add(self, key: tuple, entry: FlowEntry) -> bool:
        """File the entry; True when the highest priority rose."""
        top = self.top.get(key)
        if top is None:
            self.top[key] = entry
        else:
            group = self.shared.get(key)
            if group is None:
                group = self.shared[key] = [top]
            bisect.insort(group, entry, key=_priority)
            self.top[key] = group[-1]
        p = entry.priority
        self.priorities[p] = self.priorities.get(p, 0) + 1
        if p > self.max_priority:
            self.max_priority = p
            return True
        return False

    def discard(self, key: tuple, entry: FlowEntry) -> bool:
        """Drop the entry; True when the highest priority fell."""
        p = entry.priority
        group = self.shared.get(key)
        if group is None:
            del self.top[key]
        else:
            del group[bisect.bisect_left(group, p, key=_priority)]
            self.top[key] = group[-1]
            if len(group) == 1:
                del self.shared[key]
        left = self.priorities.pop(p) - 1
        if left:
            self.priorities[p] = left
        elif p == self.max_priority:
            self.max_priority = max(self.priorities, default=0)
            return True
        return False

    def keys(self, request: tuple[tuple, tuple], subset: bool) -> list[tuple]:
        """The keys a compiled request picks: with ``subset``, those whose
        entries lie inside it; without, those whose entries overlap it (the
        fields both sides name agree under both masks).  None passes where a
        field both name differs in width, nor, with ``subset``, where the
        request names a field the signature lacks or masks a bit it frees."""
        tests = []  # (position, mask, value, exact); mask None: the key holds value
        for (name, mask, nbytes), value in zip(*request):
            i = self.positions.get(name)
            if i is None:
                if subset:
                    return []
                continue
            _, own, width = self.signature[i]
            full = (1 << 8 * width) - 1 if own is None else own
            if mask is None:
                mask, value = (1 << 8 * nbytes) - 1, int.from_bytes(value, "big")
            if width != nbytes or subset and full & mask != mask:
                return []
            mask &= full
            value &= mask
            if mask == full:
                tests.append((i, None, value.to_bytes(width, "big") if own is None else value,
                              False))
            else:
                tests.append((i, mask, value, own is None))
        keys = self.top
        for i, mask, value, exact in tests:  # each test narrows the keys
            if mask is None:
                keys = [k for k in keys if k[i] == value]
            elif exact:
                keys = [k for k in keys if int.from_bytes(k[i], "big") & mask == value]
            else:
                keys = [k for k in keys if k[i] & mask == value]
        return list(keys)


class FlowTable:
    def __init__(self, table_id: int):
        self.table_id = table_id
        self.entries: list[FlowEntry] = []
        self.lookup_count = 0
        self.matched_count = 0
        self._subtables: dict[tuple, _Subtable] = {}
        self._probe_order: list[_Subtable] | None = []  # None: to be re-sorted

    def insert(self, entry: FlowEntry) -> FlowEntry | None:
        """Insert preserving order; an entry with identical match and
        priority is replaced and returned."""
        signature, key = _compile(entry.match)
        sub = self._subtables.get(signature)
        if sub is None:
            sub = self._subtables[signature] = _Subtable(signature)
            self._probe_order = None
        replaced = sub.find(key, entry.priority)
        if replaced is not None:
            sub.discard(key, replaced)
            del self.entries[self._index(replaced)]
        bisect.insort(self.entries, entry, key=_order)
        if sub.add(key, entry):
            self._probe_order = None
        return replaced

    def remove(self, entry: FlowEntry) -> None:
        del self.entries[self._index(entry)]
        signature, key = _compile(entry.match)
        sub = self._subtables[signature]
        if sub.discard(key, entry):
            if not sub.top:
                del self._subtables[signature]
            self._probe_order = None

    def _index(self, entry: FlowEntry) -> int:
        """The entry's position in ``entries``, found by bisection."""
        entries = self.entries
        i = bisect.bisect_left(entries, _order(entry), key=_order)
        while entries[i] is not entry:
            i += 1
        return i

    def lookup(self, fields: dict, now: float = 0.0, pkt_len: int = 0) -> FlowEntry | None:
        """First matching entry in priority order; updates its counters.
        Field values are bytes, as the packet parser makes them."""
        self.lookup_count += 1
        order = self._probe_order
        if order is None:
            order = self._probe_order = sorted(
                self._subtables.values(), key=lambda s: -s.max_priority)
        get = fields.get
        best = None
        for sub in order:
            if best is not None and sub.max_priority < best.priority:
                break
            key = []
            for name, mask, nbytes in sub.signature:
                raw = get(name)
                if raw is None:
                    break
                if mask is not None:
                    if len(raw) != nbytes:
                        break
                    raw = int.from_bytes(raw, "big") & mask
                key.append(raw)
            else:
                e = sub.top.get(tuple(key))
                if e is not None and (best is None or e.priority > best.priority
                                      or (e.priority == best.priority
                                          and e.insertion_seq < best.insertion_seq)):
                    best = e
        if best is not None:
            best.packet_count += 1
            best.byte_count += pkt_len
            best.last_match_time = now
            self.matched_count += 1
        return best

    def select(self, match: MatchSet, strict: bool, priority: int = 0,
               cookie: int = 0, cookie_mask: int = 0) -> list[FlowEntry]:
        """Entries a flow-mod or stats request refers to, in table order:
        with ``strict``, the one entry of this match and priority; without,
        every entry whose match lies inside ``match``.  Only entries whose
        cookie agrees with ``cookie`` under ``cookie_mask`` count."""
        if strict:
            signature, key = _compile(match)
            sub = self._subtables.get(signature)
            e = None if sub is None else sub.find(key, priority)
            if e is None or cookie_mask and (e.cookie ^ cookie) & cookie_mask:
                return []
            return [e]
        if not len(match):  # every entry, already in table order
            out = list(self.entries)
        else:
            request = _compile(match)
            out = []
            for sub in self._subtables.values():
                for key in sub.keys(request, True):
                    out += sub.shared.get(key) or (sub.top[key],)
            out.sort(key=_order)
        if cookie_mask:
            out = [e for e in out if not (e.cookie ^ cookie) & cookie_mask]
        return out

    def find_overlap(self, match: MatchSet, priority: int) -> FlowEntry | None:
        """The first entry in table order at ``priority`` that one packet
        could match together with ``match``."""
        request = _compile(match)
        best = None
        for sub in self._subtables.values():
            if priority not in sub.priorities:
                continue
            for key in sub.keys(request, False):
                e = sub.find(key, priority)
                if e is not None and (best is None or e.insertion_seq < best.insertion_seq):
                    best = e
        return best

    def expired_entries(self, now: float) -> list[FlowEntry]:
        return [e for e in self.entries if e.expired(now)]

    def __len__(self):
        return len(self.entries)
