"""leaf_bigtable: one leaf switch with about a thousand flow entries,
installed through the controller channel, driven by pre-built frames.

The frame mix covers the paths a leaf takes: host routes that rewrite the
MACs and output, remote prefixes through a SELECT group over the uplinks,
broadcasts through an ALL group to every host port, and misses that go to
the controller.  Frames are half 60 and half 1,500 bytes within every
class.  This is the classifier and pipeline workload; building frames is
not part of it.
"""

from __future__ import annotations

import random
import time
from array import array

from ofswitch import messages as m
from ofswitch import wire
from ofswitch.channel import SwitchConnection
from ofswitch.datapath import Datapath
from ofswitch.oxm import MatchSet, make_field

from util import (
    Chunked, SetupTimer, end_to_end, expect, ip_str, ipv4_ok, mac_bytes, mac_str, median,
    op_medians, timed, udp4_ok, udp_frame,
)

UPLINKS = (1, 2, 3, 4)
HOST_PORTS = tuple(range(5, 13))
ROUTER_MAC = bytes.fromhex("02aa00000001")
ECMP_GROUP, BCAST_GROUP = 1, 2
BROADCAST = b"\xff" * 6
SIZES = (60, 1500)

# per-round share of each frame kind, and the table make-up
FULL = dict(host_routes=904, prefixes=96, round_mix=dict(host=600, prefix=250, bcast=50, miss=100),
            rounds=2, setup_every=2)
SMOKE = dict(host_routes=40, prefixes=8, round_mix=dict(host=24, prefix=10, bcast=2, miss=4),
             rounds=2, setup_every=1)


class Leaf:
    """The switch under test and the controller session that installed it.
    The duration of every ``feed`` call goes to ``ctl_lat`` when given."""

    def __init__(self, routes, prefixes, ctl_lat: array | None = None):
        self.dp = Datapath(datapath_id=0x1EAF)
        for p in UPLINKS + HOST_PORTS:
            self.dp.ports.add(p)
        self.to_controller: list[bytes] = []
        self.conn = SwitchConnection(self.dp, self.to_controller.append)
        self.conn.start()
        feed = self.conn.feed if ctl_lat is None else timed(self.conn.feed, ctl_lat)
        xid = 0

        def send(body):
            nonlocal xid
            xid += 1
            feed(wire.pack(m.OfMessage(xid, body)))

        send(m.Hello())
        send(m.GroupMod(m.OFPGC_ADD, m.OFPGT_SELECT, ECMP_GROUP,
                        [m.Bucket([m.OutputAction(p)]) for p in UPLINKS]))
        send(m.GroupMod(m.OFPGC_ADD, m.OFPGT_ALL, BCAST_GROUP,
                        [m.Bucket([m.OutputAction(p)]) for p in HOST_PORTS]))
        send(m.FlowMod(command=m.OFPFC_ADD, priority=300,
                       match=MatchSet.from_pairs({"eth_dst": mac_str(BROADCAST)}),
                       instructions=[m.ApplyActions([m.GroupAction(BCAST_GROUP)])]))
        for ip, host_mac, port in routes:
            send(m.FlowMod(
                command=m.OFPFC_ADD, priority=200,
                match=MatchSet.from_pairs({"eth_type": 0x0800, "ipv4_dst": ip_str(ip)}),
                instructions=[m.ApplyActions([
                    m.SetFieldAction(make_field("eth_src", ROUTER_MAC)),
                    m.SetFieldAction(make_field("eth_dst", host_mac)),
                    m.OutputAction(port)])]))
        for net in prefixes:
            send(m.FlowMod(
                command=m.OFPFC_ADD, priority=100,
                match=MatchSet.from_pairs({"eth_type": 0x0800,
                                           "ipv4_dst": (ip_str(net), "255.255.255.0")}),
                instructions=[m.ApplyActions([m.GroupAction(ECMP_GROUP)])]))
        send(m.FlowMod(command=m.OFPFC_ADD, priority=0,
                       instructions=[m.ApplyActions([m.OutputAction(m.OFPP_CONTROLLER)])]))
        expect(self.to_controller[1:] == [], "the switch answered a set-up message")
        expect(len(self.dp.tables[0]) == len(routes) + len(prefixes) + 2,
               "flow table size after set-up")
        self.to_controller.clear()


def make_inputs(rng: random.Random, cfg: dict):
    """Routes, prefixes and ``rounds`` lists of (kind, in_port, frame, expected)."""
    n_routes, n_prefixes = cfg["host_routes"], cfg["prefixes"]
    host_ips = rng.sample(range(1, 1 << 16), n_routes)
    routes = [(bytes([10, 1, h >> 8, h & 0xFF]), mac_bytes(rng.getrandbits(32)),
               HOST_PORTS[i % len(HOST_PORTS)]) for i, h in enumerate(host_ips)]
    rng.shuffle(routes)
    prefixes = [bytes([10, 100 + k // 256, k % 256, 0])
                for k in rng.sample(range(4096), n_prefixes)]

    def cycle(items):
        order = list(items)
        rng.shuffle(order)
        while True:
            yield from order

    route_it, prefix_it = cycle(routes), cycle(prefixes)
    rounds = []
    for _ in range(cfg["rounds"]):
        frames = []
        for kind, count in cfg["round_mix"].items():
            for k in range(count):
                size = SIZES[k % 2]
                sport, fill = rng.randrange(1024, 65536), rng.randrange(256)
                src_ip, src_mac, src_port = rng.choice(routes)
                if kind == "host":
                    dst_ip, dst_mac, dst_port = next(route_it)
                    in_port = rng.choice([p for p in UPLINKS + HOST_PORTS if p != dst_port])
                    frame = udp_frame(ROUTER_MAC, mac_bytes(rng.getrandbits(32), 0x06),
                                      src_ip, dst_ip, sport, 53, size, fill)
                    expected = (dst_port, dst_mac + ROUTER_MAC + frame[12:])
                elif kind == "prefix":
                    net = next(prefix_it)
                    dst_ip = net[:3] + bytes([rng.randrange(1, 255)])
                    frame = udp_frame(ROUTER_MAC, src_mac, src_ip, dst_ip, sport, 443, size, fill)
                    in_port, expected = src_port, None  # uplink follows the round robin
                elif kind == "bcast":
                    frame = udp_frame(BROADCAST, mac_bytes(rng.getrandbits(32), 0x06),
                                      bytes([10, 1, 0, 1]), bytes([255] * 4), sport, 67, size, fill)
                    in_port, expected = rng.choice(UPLINKS), None
                else:  # miss: an address no route covers
                    dst_ip = bytes([172, 16, rng.randrange(256), rng.randrange(1, 255)])
                    frame = udp_frame(ROUTER_MAC, src_mac, src_ip, dst_ip, sport, 80, size, fill)
                    in_port, expected = src_port, None
                frames.append((kind, in_port, frame, expected))
        rng.shuffle(frames)
        rounds.append(frames)
    return routes, prefixes, rounds


class Checker:
    """Predicts every frame's egress from the benchmark's own route map."""

    def __init__(self):
        self.prefix_seen = 0   # SELECT round robin position over the uplinks
        self.egressed = self.to_controller = 0

    def check(self, kind, frame, expected, res, pkt_ins_wire):
        expect(res is not None, f"{kind} frame was refused at ingress")
        if kind == "host":
            port, out = expected
            ports = [p for p, _ in res.egress]
            expect(ports == [port], f"host route egress {ports} != [{port}]")
            got = res.egress[0][1]
            expect(got == out, "rewritten frame differs from route MACs + original payload")
            expect(ipv4_ok(got) and udp4_ok(got), "rewritten frame checksum fails")
        elif kind == "prefix":
            uplink = UPLINKS[self.prefix_seen % len(UPLINKS)]
            self.prefix_seen += 1
            expect(res.egress == [(uplink, frame)], f"prefix egress {[p for p, _ in res.egress]}"
                   f" != [{uplink}]")
        elif kind == "bcast":
            expect(res.egress == [(p, frame) for p in HOST_PORTS], "broadcast egress")
        else:
            expect(res.egress == [], "miss was forwarded")
            expect(len(res.packet_ins) == 1 and res.packet_ins[0].reason == m.OFPR_NO_MATCH
                   and res.packet_ins[0].frame == frame, "miss packet-in")
            expect(len(pkt_ins_wire) == 1, f"{len(pkt_ins_wire)} packet-in messages for a miss")
            msg = wire.unpack(pkt_ins_wire[0])
            expect(isinstance(msg.body, m.PacketIn) and msg.body.reason == m.OFPR_NO_MATCH
                   and msg.body.payload == frame, "packet-in message on the wire")
            self.to_controller += 1
            return
        expect(res.packet_ins == [] and pkt_ins_wire == [],
               "forwarded frame reached the controller")
        self.egressed += 1

    def check_counters(self, dp) -> None:
        expect(dp.packets_processed == dp.packets_egressed + dp.packets_to_controller
               + dp.packets_dropped, "processed != egressed + to_controller + dropped")
        expect((dp.packets_egressed, dp.packets_to_controller, dp.packets_dropped)
               == (self.egressed, self.to_controller, 0), "datapath outcome counters")


def run_round(leaf: Leaf, frames, checker: Checker, lat: array | None):
    """Send one round in a closed loop; returns its timed wall seconds."""
    dp, sink = leaf.dp, leaf.to_controller
    recv = dp.receive_packet
    now = time.perf_counter_ns
    results = []
    t_start = now()
    for _, in_port, frame, _ in frames:
        t0 = now()
        res = recv(in_port, frame)
        t1 = now()
        results.append((res, len(sink)))
        if lat is not None:
            lat.append(t1 - t0)
    wall = (now() - t_start) / 1e9
    before = 0
    for (kind, _, frame, expected), (res, after) in zip(frames, results):
        checker.check(kind, frame, expected, res, sink[before:after])
        before = after
    sink.clear()
    return wall


def run(seed: int, seconds: float, smoke: bool, tracer=None) -> dict:
    cfg = SMOKE if smoke else FULL
    routes, prefixes, rounds = make_inputs(random.Random(seed), cfg)
    ctl = Chunked()  # every set-up's flow and group installs, one chunk each

    def build():
        leaf = Leaf(routes, prefixes, ctl.ns)
        ctl.cut()
        return leaf

    # the switch under test, then a spare set-up after every few rounds
    setups = SetupTimer(build)
    leaf = setups.sample()
    checker = Checker()
    run_round(leaf, rounds[0], checker, None)  # warm-up
    passes = [[] for _ in rounds]  # per round list, the call times of each pass over it
    walls = []
    attempted = 0
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end or not walls:
        frames = rounds[i % len(rounds)]
        lat = array("q")
        walls.append(run_round(leaf, frames, checker, lat))
        passes[i % len(rounds)].append(lat)
        attempted += len(frames)
        i += 1
        if i % cfg["setup_every"] == 0:
            setups.sample()
    checker.check_counters(leaf.dp)
    metrics = end_to_end(setup_s=setups.median(), round_walls=walls,
                         pkts_per_s=median(len(rounds[0]) / w for w in walls),
                         pkt_lat=[t for p in passes if p for t in op_medians(p)],
                         ctl_msgs_per_s=ctl.rate(), ctl_lat=op_medians(ctl.chunks()), smoke=smoke)
    layers = {"channel.trace_len": (len(leaf.conn.trace), "count")}
    return {"attempted": attempted, "failed": 0, "metrics": metrics, "layers": layers}
