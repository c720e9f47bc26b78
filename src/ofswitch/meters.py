"""Meter table: per-flow rate limiting with token-bucket bands.

Each band owns one token bucket.  Buckets refill continuously at the band
rate (capped at the burst capacity) against the injected clock; a packet
that finds insufficient tokens in some band triggers the highest-rate such
band (drop, or DSCP drop-precedence increase).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadMeterId
from .messages import (
    OFPMC_ADD,
    OFPMC_DELETE,
    OFPMC_MODIFY,
    OFPMF_PKTPS,
    DropBand,
    DscpRemarkBand,
)


@dataclass
class MeterOutcome:
    kind: str  # "pass" | "drop" | "remark"
    prec_level: int = 0

    @property
    def passed(self) -> bool:
        return self.kind != "drop"


PASS = MeterOutcome("pass")
DROP = MeterOutcome("drop")


class _BandBucket:
    __slots__ = ("band", "rate", "capacity", "tokens", "last_refill")

    def __init__(self, band, now: float):
        self.band = band
        self.rate = band.rate
        # a zero burst defaults to a shallow bucket of rate/10
        self.capacity = band.burst if band.burst > 0 else max(band.rate / 10.0, 1.0)
        self.tokens = float(self.capacity)
        self.last_refill = now

    def refill(self, now: float) -> None:
        elapsed = now - self.last_refill
        if elapsed > 0:
            self.tokens = min(self.capacity, self.tokens + self.rate * elapsed)
            self.last_refill = now


class MeterEntry:
    def __init__(self, meter_id: int, flags: int, bands: list, now: float):
        self.meter_id = meter_id
        self.flags = flags
        self.bands = list(bands)
        self.buckets = [_BandBucket(b, now) for b in bands]
        self.packet_in_count = 0
        self.byte_in_count = 0

    def _debit_for(self, pkt_len: int) -> float:
        if self.flags & OFPMF_PKTPS:
            return 1.0
        return pkt_len * 8 / 1000.0  # kilobits

    def apply(self, pkt_len: int, now: float) -> MeterOutcome:
        self.packet_in_count += 1
        self.byte_in_count += pkt_len
        debit = self._debit_for(pkt_len)
        exceeded = None
        for bucket in self.buckets:
            bucket.refill(now)
            if bucket.tokens < debit:
                if exceeded is None or bucket.rate > exceeded.rate:
                    exceeded = bucket
        if exceeded is not None:
            if isinstance(exceeded.band, DropBand):
                return DROP
            if isinstance(exceeded.band, DscpRemarkBand):
                return MeterOutcome("remark", exceeded.band.prec_level)
            return DROP
        for bucket in self.buckets:
            bucket.tokens -= debit
        return PASS


class MeterTable:
    def __init__(self, clock):
        self._clock = clock
        self.meters: dict[int, MeterEntry] = {}

    def get(self, meter_id: int) -> MeterEntry:
        e = self.meters.get(meter_id)
        if e is None:
            raise BadMeterId(f"meter {meter_id} does not exist")
        return e

    def modify(self, command: int, meter_id: int, flags: int, bands) -> None:
        if command == OFPMC_ADD:
            if meter_id in self.meters:
                raise BadMeterId(f"meter {meter_id} already exists")
            self.meters[meter_id] = MeterEntry(meter_id, flags, bands, self._clock())
        elif command == OFPMC_MODIFY:
            if meter_id not in self.meters:
                raise BadMeterId(f"meter {meter_id} does not exist")
            self.meters[meter_id] = MeterEntry(meter_id, flags, bands, self._clock())
        elif command == OFPMC_DELETE:
            self.meters.pop(meter_id, None)
        else:
            raise BadMeterId(f"unknown meter command {command}")

    def apply(self, meter_id: int, pkt_len: int, now: float) -> MeterOutcome:
        return self.get(meter_id).apply(pkt_len, now)
