"""Helpers shared by the workloads: statistics, clocks, memory, the
calibration loop, and a frame builder and checksum that do not use
``ofswitch`` (the output checks compare against them)."""

from __future__ import annotations

import gc
import resource
import struct
import time
from array import array
from statistics import median


class CheckFailed(AssertionError):
    """A workload's output disagreed with the benchmark's own model."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- statistics ----------------------------------------------------------------

def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list (q in 0..100)."""
    n = len(sorted_values)
    k = max(0, min(n - 1, int(-(-q * n // 100)) - 1))
    return sorted_values[k]


MIN_SAMPLES = 1000  # a p99 needs ten samples beyond it


def op_medians(passes) -> list:
    """Each operation's median duration over passes that repeat the same
    operations in the same order.  A call that the host happened to stall
    counts once among its repeats, so percentiles taken over these medians
    follow the program rather than the host's noise."""
    expect(len({len(p) for p in passes}) == 1, "repeated passes differ in length")
    return [median(col) for col in zip(*passes)]


def latency_metrics(prefix: str, samples_ns, smoke: bool) -> dict:
    """p50 and p99 in microseconds.  A full-size run must have at least
    ``MIN_SAMPLES`` samples; a smoke run only checks the output form."""
    expect(smoke or len(samples_ns) >= MIN_SAMPLES,
           f"{len(samples_ns)} {prefix} samples, a p99 needs {MIN_SAMPLES}")
    s = sorted(samples_ns)
    return {f"{prefix}_p50_us": (percentile(s, 50) / 1e3, "us"),
            f"{prefix}_p99_us": (percentile(s, 99) / 1e3, "us")}


def end_to_end(*, setup_s: float, round_walls: list, pkts_per_s: float, pkt_lat,
               ctl_msgs_per_s: float, ctl_lat, smoke: bool) -> dict:
    """The nine end-to-end metrics every workload reports.  Peak memory is
    read first, before the percentiles sort the samples."""
    out = {"peak_rss_mb": (peak_rss_mb(), "MB"),
           "setup_s": (setup_s, "s"),
           "sim_wall_s": (median(round_walls), "s"),
           "pkts_per_s": (pkts_per_s, "1/s"),
           "ctl_msgs_per_s": (ctl_msgs_per_s, "1/s")}
    out.update(latency_metrics("pkt", pkt_lat, smoke))
    out.update(latency_metrics("ctl", ctl_lat, smoke))
    return out


class Chunked:
    """Durations of timed calls in nanoseconds, cut into chunks (a set-up,
    a sweep, a round).  Rates are medians over chunks, so a stretch of a
    run on a busy host moves them less than a total would."""

    def __init__(self):
        self.ns = array("q")
        self.ends: list[int] = []

    def __len__(self) -> int:
        return len(self.ns)

    def cut(self) -> None:
        if len(self.ns) > (self.ends[-1] if self.ends else 0):
            self.ends.append(len(self.ns))

    def chunks(self) -> list:
        bounds = [0] + self.ends
        return [self.ns[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def rate(self) -> float:
        """Median over chunks of calls per second spent in them."""
        rates, lo = [], 0
        for hi in self.ends:
            rates.append((hi - lo) / (sum(self.ns[lo:hi]) / 1e9))
            lo = hi
        return median(rates)


def timed(fn, samples_ns):
    """``fn`` with the duration of every call appended to ``samples_ns``."""
    now = time.perf_counter_ns
    append = samples_ns.append

    def call(*args):
        t0 = now()
        result = fn(*args)
        append(now() - t0)
        return result
    return call


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far.  Workloads read it
    when their timed rounds end, before the benchmark's own statistics."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupTimer:
    """Times ``build()`` at points spread through the run; ``setup_s`` is
    the median, so it does not hang on one moment of a machine whose speed
    drifts.  Each result is dropped and collected before the next build,
    so peak memory holds at most one spare set-up."""

    def __init__(self, build):
        self.build = build
        self.times: list[float] = []

    def sample(self, repeats: int = 1):
        """Build ``repeats`` times; returns the last result."""
        result = None
        for _ in range(repeats):
            result = None
            gc.collect()
            t0 = time.perf_counter()
            result = self.build()
            self.times.append(time.perf_counter() - t0)
        gc.collect()
        return result

    def median(self) -> float:
        return median(self.times)


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop, to tell machine drift from a
    program change when comparing runs."""
    t0 = time.perf_counter()
    acc = 0
    d = {}
    for i in range(300_000):
        acc = (acc + i * 7) & 0xFFFF
        d[i & 1023] = acc
    return time.perf_counter() - t0


# -- frames and checksums, independent of ofswitch ------------------------------

def ones_sum(data: bytes) -> int:
    """RFC 1071 one's-complement sum of 16-bit words (0 only for all-zero)."""
    if len(data) % 2:
        data += b"\x00"
    n = int.from_bytes(data, "big")
    return 0 if n == 0 else (n % 0xFFFF or 0xFFFF)


def ipv4_ok(frame: bytes) -> bool:
    """IPv4 header checksum of an untagged frame verifies."""
    ihl = (frame[14] & 0x0F) * 4
    return ones_sum(frame[14:14 + ihl]) == 0xFFFF


def udp4_ok(frame: bytes) -> bool:
    """UDP checksum (with pseudo-header) of an untagged IPv4 frame verifies."""
    ihl = (frame[14] & 0x0F) * 4
    total = int.from_bytes(frame[16:18], "big")
    seg = frame[14 + ihl:14 + total]
    pseudo = frame[26:34] + b"\x00\x11" + len(seg).to_bytes(2, "big")
    return ones_sum(pseudo + seg) == 0xFFFF


def mac_bytes(i: int, prefix: int = 0x02) -> bytes:
    return bytes([prefix, 0, (i >> 24) & 0xFF, (i >> 16) & 0xFF, (i >> 8) & 0xFF, i & 0xFF])


def ip_str(b: bytes) -> str:
    return ".".join(str(x) for x in b)


def mac_str(b: bytes) -> str:
    return ":".join(f"{x:02x}" for x in b)


_PATTERN = bytes(range(256)) * 8


def udp_frame(dst_mac: bytes, src_mac: bytes, src_ip: bytes, dst_ip: bytes,
              sport: int, dport: int, frame_len: int, fill: int = 0) -> bytes:
    """An untagged Ethernet/IPv4/UDP frame of exactly ``frame_len`` bytes
    (at least 60) with both checksums filled in."""
    payload = _PATTERN[fill:fill + frame_len - 42]
    udp_len = 8 + len(payload)
    ip_hdr = bytearray(struct.pack("!BBHHHBBH4s4s", 0x45, 0, 20 + udp_len, 0, 0, 64, 17, 0,
                                   src_ip, dst_ip))
    ip_hdr[10:12] = (0xFFFF ^ ones_sum(bytes(ip_hdr))).to_bytes(2, "big")
    seg = bytearray(struct.pack("!HHHH", sport, dport, udp_len, 0) + payload)
    pseudo = src_ip + dst_ip + b"\x00\x11" + udp_len.to_bytes(2, "big")
    cs = 0xFFFF ^ ones_sum(pseudo + bytes(seg))
    seg[6:8] = (cs or 0xFFFF).to_bytes(2, "big")
    return dst_mac + src_mac + b"\x08\x00" + bytes(ip_hdr) + bytes(seg)

