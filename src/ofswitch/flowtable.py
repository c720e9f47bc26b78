"""Flow entries, priority-ordered flow tables, and the timeout rule.

A table is one list of entries sorted by (priority descending, insertion
sequence ascending); lookup and expiry are linear scans of it, which keeps
the matching semantics obvious.  ``timeout_reason`` is the one rule for
when a timer has run out, shared by flow entries and state entries.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import BadInstruction
from .messages import OFPRR_HARD_TIMEOUT, OFPRR_IDLE_TIMEOUT, GotoTable
from .oxm import MatchSet


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


@dataclass(eq=False)
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


class FlowTable:
    def __init__(self, table_id: int):
        self.table_id = table_id
        self.entries: list[FlowEntry] = []
        self.lookup_count = 0
        self.matched_count = 0

    def insert(self, entry: FlowEntry) -> FlowEntry | None:
        """Insert preserving order; an entry with identical match and
        priority is replaced and returned."""
        replaced = None
        for i, e in enumerate(self.entries):
            if e.priority == entry.priority and e.match == entry.match:
                replaced = self.entries.pop(i)
                break
        bisect.insort(self.entries, entry, key=lambda e: (-e.priority, e.insertion_seq))
        return replaced

    def remove(self, entry: FlowEntry) -> None:
        self.entries.remove(entry)

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
        return [e for e in self.entries if e.expired(now)]

    def __len__(self):
        return len(self.entries)
