"""Flow entries and priority-ordered flow tables.

Entries are kept in a list sorted by (priority descending, insertion
sequence ascending); lookup is a linear scan, which keeps the matching
semantics obvious.  A separate index references the entries that carry a
timeout so expiry checks do not walk the whole table.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .errors import BadInstruction
from .messages import GotoTable
from .oxm import MatchSet


@dataclass
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

    @property
    def sort_key(self):
        return (-self.priority, self.insertion_seq)

    @property
    def has_timeout(self) -> bool:
        return self.idle_timeout > 0 or self.hard_timeout > 0

    def is_table_miss(self) -> bool:
        return self.priority == 0 and len(self.match) == 0

    def expired(self, now: float) -> bool:
        if self.hard_timeout and now - self.install_time >= self.hard_timeout:
            return True
        if self.idle_timeout and now - self.last_match_time >= self.idle_timeout:
            return True
        return False

    def expiry_reason(self, now: float) -> int:
        from .messages import OFPRR_HARD_TIMEOUT, OFPRR_IDLE_TIMEOUT

        if self.hard_timeout and now - self.install_time >= self.hard_timeout:
            return OFPRR_HARD_TIMEOUT
        return OFPRR_IDLE_TIMEOUT

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


class FlowTable:
    def __init__(self, table_id: int):
        self.table_id = table_id
        self.entries: list[FlowEntry] = []
        self.timeout_index: list[FlowEntry] = []
        self.lookup_count = 0
        self.matched_count = 0

    def _reindex_timeouts(self) -> None:
        self.timeout_index = [e for e in self.entries if e.has_timeout]

    def insert(self, entry: FlowEntry) -> FlowEntry | None:
        """Insert preserving order; an entry with identical match and
        priority is replaced and returned."""
        replaced = None
        for i, e in enumerate(self.entries):
            if e.priority == entry.priority and e.match == entry.match:
                replaced = self.entries.pop(i)
                break
        keys = [e.sort_key for e in self.entries]
        self.entries.insert(bisect.bisect_right(keys, entry.sort_key), entry)
        self._reindex_timeouts()
        return replaced

    def remove(self, entry: FlowEntry) -> None:
        self.entries.remove(entry)
        if entry.has_timeout:
            self.timeout_index.remove(entry)

    def lookup(self, fields: dict, now: float = 0.0, pkt_len: int = 0) -> FlowEntry | None:
        """First matching entry in priority order; updates its counters."""
        self.lookup_count += 1
        for e in self.entries:
            if e.match.matches(fields):
                e.packet_count += 1
                e.byte_count += pkt_len
                e.last_match_time = now
                self.matched_count += 1
                return e
        return None

    def select(self, match: MatchSet, strict: bool, priority: int = 0,
               cookie: int = 0, cookie_mask: int = 0) -> list[FlowEntry]:
        """Entries a non-strict/strict flow-mod refers to."""
        out = []
        for e in self.entries:
            if cookie_mask and (e.cookie ^ cookie) & cookie_mask:
                continue
            if strict:
                if e.priority == priority and e.match == match:
                    out.append(e)
            else:
                if e.match.is_subset_of(match):
                    out.append(e)
        return out

    def find_overlap(self, match: MatchSet, priority: int) -> FlowEntry | None:
        for e in self.entries:
            if e.priority == priority and e.match.overlaps(match):
                return e
        return None

    def expired_entries(self, now: float) -> list[FlowEntry]:
        return [e for e in self.timeout_index if e.expired(now)]

    def __len__(self):
        return len(self.entries)
