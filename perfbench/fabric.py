"""fabric: ``run_scenario`` on the 2-spine/2-leaf/4-host fabric with the
acceptance scenario's traffic profile, the whole simulator as researchers
run it.

After each run a monitoring controller opens a session to every switch
and polls it: port stats and an echo on every sweep, flow stats on every
``flow_every``-th; every reply is checked against frame counts computed
here from the flows.  Those ``feed`` calls give the control-channel
metrics, and every switch's ``receive_packet`` is timed per call for the
packet latency metrics.
``setup_s`` is the median time to build a fabric and install its routes
through the controller channel (on fabrics of their own: ``run_scenario``
installs the routes of the fabric it runs on).

The seed permutes which physical host plays each generated host: it swaps
the leaves and shuffles the hosts within each leaf.  That keeps every
flow's path length, and so the work of a run, the same for every seed,
which lets the wall time of one seed be compared with another's.
"""

from __future__ import annotations

import math
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass

from ofswitch import messages as m
from ofswitch import wire
from ofswitch.channel import SwitchConnection
from ofswitch.harness import FlowSpec, TrafficProfile, build_spine_leaf, run_scenario
from ofswitch.harness.scenario import ECMP_GROUP_ID, install_routes
from ofswitch.harness.traffic import CLASS_NAMES

from util import Chunked, SetupTimer, end_to_end, expect, median, op_medians, timed

SPINES, LEAVES, HOSTS_PER_LEAF = 2, 2, 4
MTU_PAYLOAD = 8958  # run_scenario's default frame payload
QUEUE_BYTES = 32 * 1024 * 1024
FULL = dict(load=0.10, duration=0.08, polls=1024, flow_every=8, setups_per_run=40)
SMOKE = dict(load=0.10, duration=0.01, polls=2, flow_every=2, setups_per_run=2)


@dataclass
class PermutedProfile(TrafficProfile):
    """The acceptance profile with generated host indices mapped through
    ``host_map``."""

    host_map: tuple = ()

    def generate(self, n_hosts, access_bps):
        return [FlowSpec(f.start, self.host_map[f.src], self.host_map[f.dst], f.size_bytes)
                for f in super().generate(n_hosts, access_bps)]


def host_map(rng: random.Random) -> tuple:
    leaves = list(range(LEAVES))
    rng.shuffle(leaves)
    out = []
    for leaf in leaves:
        slots = list(range(HOSTS_PER_LEAF))
        rng.shuffle(slots)
        out.extend(leaf * HOSTS_PER_LEAF + s for s in slots)
    return tuple(out)


def parse_report(report: str) -> dict:
    out = {}
    for line in report.splitlines():
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        if "class" in fields:
            out[fields["class"]] = fields
        elif "frame_drops" in fields:
            out["frame_drops"] = int(fields["frame_drops"])
    return out


def check_run(report: str, flows, fab, first_report: str | None) -> None:
    """The output checks of one scenario run, against figures computed here."""
    rep = parse_report(report)
    for kind in CLASS_NAMES:
        want = sum(1 for f in flows if _kind(f.size_bytes) == kind)
        got = rep.get(kind, {})
        expect(int(got.get("flows", -1)) == want, f"{kind}: {got.get('flows')} flows, want {want}")
        expect(got.get("completed") == got.get("flows"), f"{kind}: not every flow completed")
    fct = [float(rep[k]["mean_fct"]) for k in CLASS_NAMES]
    expect(fct[0] < fct[1] < fct[2], f"mean completion times not ordered: {fct}")
    expect(rep.get("frame_drops") == 0, "frames dropped")
    frames = sum(max(1, math.ceil(f.size_bytes / MTU_PAYLOAD)) for f in flows)
    access = fab.links[SPINES * LEAVES:]
    received = sum(link.channels[0].tx_frames for link in access)
    expect(received == frames, f"hosts received {received} frames, flows need {frames}")
    for sw in fab.spines + fab.leaves:
        rx = sum(p.rx_packets for p in sw.ports)
        tx = sum(p.tx_packets for p in sw.ports)
        expect(rx == tx, f"datapath {sw.datapath_id}: rx {rx} != tx {tx}")
    for leaf in fab.leaves:
        counts = leaf.groups.get(ECMP_GROUP_ID).bucket_packet_counts
        expect(max(counts) - min(counts) <= 1, f"uneven ECMP buckets {counts}")
    if first_report is not None:
        expect(report == first_report, "report differs between runs of one invocation")


def _kind(size: int) -> str:
    return "mouse" if size < 10_000 else "elephant" if size > 10_000_000 else "rabbit"


def build() -> object:
    return build_spine_leaf(SPINES, LEAVES, HOSTS_PER_LEAF, queue_bytes=QUEUE_BYTES)


def build_and_route() -> object:
    fab = build()
    install_routes(fab)
    return fab


class Expected:
    """Frame counts every switch must report, computed from the flows.
    Host ``h`` is slot ``h % HOSTS_PER_LEAF`` of leaf ``h // HOSTS_PER_LEAF``,
    with address 10.0.<leaf>.<slot + 1>; host ports follow the uplinks."""

    def __init__(self, flows):
        self.sent, self.got, self.between = Counter(), Counter(), Counter()
        for f in flows:
            n = max(1, math.ceil(f.size_bytes / MTU_PAYLOAD))
            self.sent[f.src] += n
            self.got[f.dst] += n
            a, b = f.src // HOSTS_PER_LEAF, f.dst // HOSTS_PER_LEAF
            if a != b:
                self.between[a, b] += n

    def into_leaf(self, j: int) -> int:
        return sum(n for (_, b), n in self.between.items() if b == j)

    def out_of_leaf(self, j: int) -> int:
        return sum(n for (a, _), n in self.between.items() if a == j)

    def check_leaf(self, j: int, ports: dict, flows: dict | None) -> None:
        """``ports``: port -> (rx, tx); ``flows``: (leaf, slot or None) ->
        packets, or None on a sweep without flow stats."""
        for s in range(HOSTS_PER_LEAF):
            h = j * HOSTS_PER_LEAF + s
            expect(ports[SPINES + 1 + s] == (self.sent[h], self.got[h]),
                   f"leaf {j} host port {SPINES + 1 + s}: {ports[SPINES + 1 + s]}")
        up = [ports[i + 1] for i in range(SPINES)]
        expect((sum(r for r, _ in up), sum(t for _, t in up))
               == (self.into_leaf(j), self.out_of_leaf(j)), f"leaf {j} uplink counts {up}")
        if flows is not None:
            want = {(j, s): self.got[j * HOSTS_PER_LEAF + s] for s in range(HOSTS_PER_LEAF)}
            want.update({(k, None): self.between[j, k] for k in range(LEAVES) if k != j})
            expect(flows == want, f"leaf {j} route packet counts {flows} != {want}")

    def check_spines(self, ports: list, flows: list | None) -> None:
        """Per spine, ``ports`` and ``flows`` as for a leaf; the ECMP split
        between spines is not predicted, so leaf totals are summed."""
        for i, p in enumerate(ports):
            expect(sum(r for r, _ in p.values()) == sum(t for _, t in p.values()),
                   f"spine {i}: rx != tx")
        for j in range(LEAVES):
            tx = sum(p[j + 1][1] for p in ports)
            expect(tx == self.into_leaf(j), f"spines to leaf {j}: tx {tx}")
            if flows is not None:
                pkts = sum(f[j, None] for f in flows)
                expect(pkts == tx, f"spine routes to leaf {j}: {pkts} packets, {tx} sent")


class Monitor:
    """A monitoring controller with a session to every switch."""

    def __init__(self, fab):
        self.sessions = []
        for dp in fab.spines + fab.leaves:
            out: list[bytes] = []
            conn = SwitchConnection(dp, out.append, attach=False)
            conn.start()
            conn.feed(wire.pack(m.OfMessage(1, m.Hello())))
            out.clear()
            self.sessions.append((conn, out))
        self.xid = 1

    def request(self, conn, out, body, lat):
        """Feed one request (timed) and return the body of its one reply."""
        self.xid += 1
        raw = wire.pack(m.OfMessage(self.xid, body))
        if lat is None:
            conn.feed(raw)
        else:
            t0 = time.perf_counter_ns()
            conn.feed(raw)
            lat.append(time.perf_counter_ns() - t0)
        expect(len(out) == 1, f"{len(out)} replies to one request")
        reply = wire.unpack(out.pop())
        expect(reply.xid == self.xid, "reply xid")
        return reply.body

    def sweep(self, expected: Expected, lat, flow_stats: bool = True) -> None:
        """Read port stats (and flow stats if asked) of every switch, echo
        once each, and check every reply."""
        ports, flows = [], []
        for conn, out in self.sessions:
            body = self.request(conn, out, m.MultipartRequest(
                m.OFPMP_PORT_STATS, m.PortStatsRequest()), lat)
            ports.append({ps.port_no: (ps.rx_packets, ps.tx_packets) for ps in body.body})
            if flow_stats:
                body = self.request(conn, out, m.MultipartRequest(
                    m.OFPMP_FLOW, m.FlowStatsRequest()), lat)
                counts = {}
                for fs in body.body:
                    field = fs.match.get("ipv4_dst")
                    v = field.value
                    expect(v[:2] == bytes([10, 0]), f"route to {v}")
                    counts[v[2], None if field.has_mask else v[3] - 1] = fs.packet_count
                flows.append(counts)
            payload = self.xid.to_bytes(4, "big")
            body = self.request(conn, out, m.EchoRequest(payload), lat)
            expect(isinstance(body, m.EchoReply) and body.payload == payload, "echo reply")
        for j in range(LEAVES):
            expected.check_leaf(j, ports[SPINES + j], flows[SPINES + j] if flows else None)
        expected.check_spines(ports[:SPINES], flows[:SPINES] if flows else None)


def run(seed: int, seconds: float, smoke: bool, tracer=None) -> dict:
    cfg = SMOKE if smoke else FULL
    profile = PermutedProfile(seed=12, load=cfg["load"], duration=cfg["duration"],
                              host_map=host_map(random.Random(seed)))
    flows = profile.generate(LEAVES * HOSTS_PER_LEAF, 1e9)
    expected = Expected(flows)
    setups = SetupTimer(build_and_route)
    setups.sample(cfg["setups_per_run"])
    # every timed run repeats the same calls in the same order: keep each
    # run's call times apart; ctl is also cut once per flow stats cycle
    pkt_runs, ctl_runs, ctl = [], [], Chunked()
    trace_len = [0]  # messages the last run's monitor sessions retain

    def one_run(first_report, timing: bool):
        fab = build()
        if timing:
            pkt_runs.append(array("q"))
            for dp in fab.spines + fab.leaves:
                dp.receive_packet = timed(dp.receive_packet, pkt_runs[-1])
            ctl_start = len(ctl)
        t0 = time.perf_counter()
        report = run_scenario(fab, profile)
        wall = time.perf_counter() - t0
        check_run(report, flows, fab, first_report)
        monitor = Monitor(fab)
        for k in range(1, cfg["polls"] + 1):
            flow_stats = k % cfg["flow_every"] == 0
            monitor.sweep(expected, ctl.ns if timing else None, flow_stats)
            if flow_stats:
                ctl.cut()
        if timing:
            ctl_runs.append(ctl.ns[ctl_start:])
        rx = sum(p.rx_packets for sw in fab.spines + fab.leaves for p in sw.ports)
        trace_len[0] = sum(len(conn.trace) for conn, _ in monitor.sessions)
        return report, wall, rx

    first, _, _ = one_run(None, False)  # warm-up
    walls, rates = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not walls:
        _, wall, rx = one_run(first, True)
        walls.append(wall)
        rates.append(rx / wall)
        setups.sample(cfg["setups_per_run"])
    layers = {}
    if tracer is not None:
        layers["harness.scheduler.events"] = (
            tracer.n("harness.scheduler.step") / (len(walls) + 1), "count")
        layers["channel.trace_len"] = (trace_len[0], "count")
    return {
        "attempted": len(flows) * len(walls),
        "failed": 0,
        "metrics": end_to_end(setup_s=setups.median(), round_walls=walls,
                              pkts_per_s=median(rates), pkt_lat=op_medians(pkt_runs),
                              ctl_msgs_per_s=ctl.rate(), ctl_lat=op_medians(ctl_runs),
                              smoke=smoke),
        "layers": layers,
    }
