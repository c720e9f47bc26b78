"""Group table: ALL / SELECT / INDIRECT / FAST_FAILOVER entries."""

from __future__ import annotations

from .errors import BadGroupId, BadGroupType
from .messages import (
    OFPG_ANY,
    OFPGC_ADD,
    OFPGC_DELETE,
    OFPGC_MODIFY,
    OFPGT_ALL,
    OFPGT_FF,
    OFPGT_INDIRECT,
    OFPGT_SELECT,
    OFPP_ANY,
    Bucket,
)


class GroupEntry:
    def __init__(self, group_id: int, group_type: int, buckets: list[Bucket]):
        self.group_id = group_id
        self.group_type = group_type
        self.buckets = list(buckets)
        self.rr_cursor = 0
        self.packet_count = 0
        self.byte_count = 0
        self.bucket_packet_counts = [0] * len(buckets)
        self.bucket_byte_counts = [0] * len(buckets)
        self.no_bucket_drops = 0

    def validate(self) -> None:
        if self.group_type not in (OFPGT_ALL, OFPGT_SELECT, OFPGT_INDIRECT, OFPGT_FF):
            raise BadGroupType(f"group {self.group_id} has undefined type {self.group_type}")
        if self.group_type == OFPGT_INDIRECT and len(self.buckets) != 1:
            raise BadGroupId(
                f"indirect group {self.group_id} must have exactly one bucket"
            )
        if self.group_type == OFPGT_FF:
            for b in self.buckets:
                if b.watch_port == OFPP_ANY and b.watch_group == OFPG_ANY:
                    raise BadGroupId(
                        f"fast-failover group {self.group_id} bucket lacks a watch entity"
                    )


class GroupTable:
    def __init__(self):
        self.groups: dict[int, GroupEntry] = {}

    def get(self, group_id: int) -> GroupEntry:
        g = self.groups.get(group_id)
        if g is None:
            raise BadGroupId(f"group {group_id} does not exist")
        return g

    def modify(self, command: int, group_id: int, group_type: int, buckets) -> None:
        if command == OFPGC_ADD:
            if group_id in self.groups:
                raise BadGroupId(f"group {group_id} already exists")
            g = GroupEntry(group_id, group_type, buckets)
            g.validate()
            self.groups[group_id] = g
        elif command == OFPGC_MODIFY:
            if group_id not in self.groups:
                raise BadGroupId(f"group {group_id} does not exist")
            g = GroupEntry(group_id, group_type, buckets)
            g.validate()
            g.packet_count = self.groups[group_id].packet_count
            g.byte_count = self.groups[group_id].byte_count
            self.groups[group_id] = g
        elif command == OFPGC_DELETE:
            self.groups.pop(group_id, None)
        else:
            raise BadGroupId(f"unknown group command {command}")

    def choose(self, g: GroupEntry, port_live) -> list[int]:
        """The buckets a packet takes through ``g``: all of ALL, the one of INDIRECT,
        the first live one of FF, the next live one of SELECT."""
        if g.group_type == OFPGT_ALL:
            return list(range(len(g.buckets)))
        if g.group_type == OFPGT_INDIRECT:
            return [0]
        if g.group_type == OFPGT_FF:
            return next(([i] for i, b in enumerate(g.buckets)
                         if self.bucket_live(b, port_live)), [])
        live = [i for i, b in enumerate(g.buckets) if self.bucket_live(b, port_live)]
        if not live:
            return live
        i = live[g.rr_cursor % len(live)]
        g.rr_cursor = (g.rr_cursor + 1) % len(live)
        return [i]

    def is_live(self, group_id: int, port_live, _seen=None) -> bool:
        """A group is live when at least one bucket has a live watch entity."""
        g = self.groups.get(group_id)
        if g is None:
            return False
        _seen = _seen or set()
        if group_id in _seen:
            return False
        _seen.add(group_id)
        for b in g.buckets:
            if self.bucket_live(b, port_live, _seen):
                return True
        return False

    def bucket_live(self, bucket: Bucket, port_live, _seen=None) -> bool:
        if bucket.watch_port == OFPP_ANY and bucket.watch_group == OFPG_ANY:
            return True  # unwatched buckets count as live (ALL/SELECT/INDIRECT)
        if bucket.watch_port != OFPP_ANY and port_live(bucket.watch_port):
            return True
        if bucket.watch_group != OFPG_ANY and self.is_live(bucket.watch_group, port_live, _seen):
            return True
        return False
