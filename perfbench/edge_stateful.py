"""edge_stateful: an OpenState edge switch on a simulated clock.

Table 0 classifies: ARP requests for the gateway are answered in the
switch from a packet template, knock and probe traffic goes to the
port-knocking table (1), one traffic class passes a meter, and the rest
goes to the MAC-learning table (2), whose entries roll back to "unknown"
after an idle timeout.  A pool of transient hosts each send one frame per
pass over the pool and are then not seen again for several simulated
seconds, so the state entries they leave behind are a visible part of the
process's peak memory.  This is the only workload that exercises the
stateful extensions and meters.

Every verdict is predicted by reference models kept here: MAC learning
with idle expiry, the knocking automaton and the token bucket.  Simulated
time moves in steps of 1/4096 s, so the token arithmetic is exact in
binary floating point and model and switch agree bit for bit.
"""

from __future__ import annotations

import random
import struct
import time
from array import array

from ofswitch import messages as m
from ofswitch import wire
from ofswitch.channel import SwitchConnection
from ofswitch.datapath import Datapath
from ofswitch.harness import SimClock
from ofswitch.oxm import MatchSet
from ofswitch.stateful import (
    PacketTemplate, StateTableConfig, TemplateSlot, encode_pkt_template,
    encode_state_table_config,
)

from util import (
    Chunked, SetupTimer, end_to_end, expect, mac_bytes, median, timed, udp_frame,
)

HOST_PORTS = tuple(range(1, 9))
SERVER_PORT = 9
ALL_PORTS = HOST_PORTS + (SERVER_PORT,)
GW_MAC, GW_IP = bytes.fromhex("02fe000000fe"), bytes([10, 0, 0, 254])
KNOCKS, PROBE, VIDEO = (7001, 7002, 7003), 9000, 5004
KNOCK_TABLE, MAC_TABLE = 1, 2
IDLE_S = 1                      # MAC entry idle timeout, simulated seconds
METER_RATE, METER_BURST = 256, 16   # packets per simulated second
DT = 1 / 4096                   # simulated seconds per frame
TICK_EVERY = 256                # frames between Datapath.expire() ticks
SIZES = (60, 1500)

# spare set-ups go on a wall-clock schedule, so that the number of set-up
# messages (the ctl samples) does not shrink on a slower machine
FULL = dict(stable=48, knockers=32, slice=256, slices=128, setup_every_s=0.5,
            mix=dict(transient=256, unicast=1024, to_transient=128, video=256, knock=32, arp=128))
SMOKE = dict(stable=12, knockers=4, slice=16, slices=8, setup_every_s=0.05,
             mix=dict(transient=16, unicast=64, to_transient=8, video=16, knock=4, arp=8))


def arp_frame(op: int, src_mac: bytes, src_ip: bytes, dst_mac: bytes, tgt_mac: bytes,
              tgt_ip: bytes) -> bytes:
    body = struct.pack("!HHBBH", 1, 0x0800, 6, 4, op) + src_mac + src_ip + tgt_mac + tgt_ip
    frame = dst_mac + src_mac + b"\x08\x06" + body
    return frame + b"\x00" * (60 - len(frame))


class Edge:
    """The switch, configured entirely through its controller channel.  The
    duration of every ``feed`` call goes to ``ctl_lat`` when given."""

    def __init__(self, ctl_lat: array | None = None):
        self.clock = SimClock()
        self.dp = Datapath(datapath_id=0xED6E, n_tables=3, clock=self.clock)
        for p in ALL_PORTS:
            self.dp.ports.add(p)
        replies: list[bytes] = []
        self.conn = conn = SwitchConnection(self.dp, replies.append)
        conn.start()
        knock_cfg = StateTableConfig(KNOCK_TABLE, ["ipv4_src"], ["ipv4_src"])
        msgs = [m.Hello(),
                encode_state_table_config(knock_cfg),
                encode_state_table_config(StateTableConfig(MAC_TABLE, ["eth_dst"], ["eth_src"])),
                encode_pkt_template(PacketTemplate(
                    1, arp_frame(2, GW_MAC, GW_IP, b"\x00" * 6, b"\x00" * 6, b"\x00" * 4),
                    [TemplateSlot(0, "arp_sha"), TemplateSlot(32, "arp_sha"),
                     TemplateSlot(38, "arp_spa")], ("in_port",))),
                m.MeterMod(m.OFPMC_ADD, m.OFPMF_PKTPS, 1, [m.DropBand(METER_RATE, METER_BURST)])]
        msgs += [m.FlowMod(command=m.OFPFC_ADD, table_id=t, priority=prio,
                           match=MatchSet.from_pairs(match), instructions=ins)
                 for t, prio, match, ins in flow_entries()]
        feed = conn.feed if ctl_lat is None else timed(conn.feed, ctl_lat)
        for xid, body in enumerate(msgs, 1):
            feed(wire.pack(m.OfMessage(xid, body)))
        expect(len(replies) == 1, f"{len(replies) - 1} replies to set-up messages")


def flow_entries():
    udp = {"eth_type": 0x0800, "ip_proto": 17}
    go = m.GotoTable
    out = [(0, 300, {"eth_type": 0x0806, "arp_op": 1, "arp_tpa": GW_IP},
            [m.ApplyActions([m.PktGenAction(1, stop_processing=True)])])]
    out += [(0, 200, {**udp, "udp_dst": d}, [go(KNOCK_TABLE)]) for d in KNOCKS + (PROBE,)]
    out.append((0, 150, {**udp, "udp_dst": VIDEO}, [m.MeterInstruction(1), go(MAC_TABLE)]))
    out.append((0, 0, {}, [go(MAC_TABLE)]))
    for s, d in enumerate(KNOCKS):
        out.append((KNOCK_TABLE, 100, {**udp, "state": s, "udp_dst": d},
                    [m.ApplyActions([m.SetStateAction(KNOCK_TABLE, s + 1)])]))
    out.append((KNOCK_TABLE, 100, {**udp, "state": len(KNOCKS), "udp_dst": PROBE},
                [m.ApplyActions([m.SetStateAction(KNOCK_TABLE, 0), m.OutputAction(SERVER_PORT)])]))
    out.append((KNOCK_TABLE, 50, udp, [m.ApplyActions([m.SetStateAction(KNOCK_TABLE, 0)])]))
    for p in HOST_PORTS:
        learn = m.SetStateAction(MAC_TABLE, p, idle_timeout=IDLE_S, idle_rollback=0)
        out.append((MAC_TABLE, 10, {"in_port": p, "state": 0},
                    [m.ApplyActions([learn, m.OutputAction(m.OFPP_FLOOD)])]))
        for q in HOST_PORTS:
            acts = [learn] if q == p else [learn, m.OutputAction(q)]
            out.append((MAC_TABLE, 20, {"in_port": p, "state": q}, [m.ApplyActions(acts)]))
    return out


class Model:
    """Reference behaviour of the edge switch, written from the policy."""

    def __init__(self):
        self.macs: dict[bytes, list] = {}     # mac -> [port, last touch]
        self.knock: dict[bytes, int] = {}     # source ip -> knocks so far
        self.tokens, self.refilled = float(METER_BURST), 0.0
        self.egressed = self.dropped = 0

    def learn(self, src: bytes, dst: bytes, in_port: int, now: float) -> list:
        e = self.macs.get(dst)
        if e is not None and now - e[1] >= IDLE_S:
            del self.macs[dst]
            e = None
        elif e is not None:
            e[1] = now
        self.macs[src] = [in_port, now]
        if e is None:
            return [p for p in ALL_PORTS if p != in_port]
        return [] if e[0] == in_port else [e[0]]

    def meter(self, now: float) -> bool:
        self.tokens = min(float(METER_BURST), self.tokens + METER_RATE * (now - self.refilled))
        self.refilled = now
        if self.tokens < 1.0:
            return False
        self.tokens -= 1.0
        return True

    def knocked(self, ip: bytes, port: int) -> list:
        s = self.knock.pop(ip, 0)
        if s < len(KNOCKS) and port == KNOCKS[s]:
            self.knock[ip] = s + 1
            return []
        return [SERVER_PORT] if s == len(KNOCKS) and port == PROBE else []

    def forget_idle(self, now: float) -> None:
        """Drop entries past their idle deadline; a lookup treats them as
        unknown either way, so this only bounds the model's own memory."""
        for mac in [k for k, e in self.macs.items() if now - e[1] >= IDLE_S]:
            del self.macs[mac]

    def verdict(self, item, now: float):
        kind, in_port, frame = item[:3]
        if kind == "arp":
            return "arp"
        if kind == "knock":
            return self.knocked(frame[26:30], int.from_bytes(frame[36:38], "big"))
        if kind == "video" and not self.meter(now):
            return []
        return self.learn(frame[6:12], frame[0:6], in_port, now)


def check(item, verdict, res, model: Model) -> None:
    kind, in_port, frame = item[:3]
    expect(res is not None, f"{kind} frame refused at ingress")
    if verdict == "arp":
        expect(len(res.egress) == 1 and res.egress[0][0] == in_port, "ARP reply egress")
        r = res.egress[0][1]
        asker_mac, asker_ip = frame[6:12], frame[28:32]
        expect(r[0:6] == asker_mac and r[6:12] == GW_MAC and r[12:14] == b"\x08\x06"
               and r[14:22] == bytes([0, 1, 8, 0, 6, 4, 0, 2]) and r[22:28] == GW_MAC
               and r[28:32] == GW_IP and r[32:38] == asker_mac and r[38:42] == asker_ip,
               "ARP reply bytes")
    else:
        expect(res.egress == [(p, frame) for p in verdict],
               f"{kind} egress {[p for p, _ in res.egress]} != model {verdict}")
    expect(res.packet_ins == [], f"{kind} frame reached the controller")
    if res.egress:
        model.egressed += 1
    else:
        model.dropped += 1


class Inputs:
    """Hosts and per-round frame lists, all derived from the seed."""

    def __init__(self, seed: int, cfg: dict):
        rng = random.Random(seed)
        self.seed, self.cfg = seed, cfg
        macs = rng.sample(range(1 << 32), cfg["stable"] + cfg["knockers"]
                          + cfg["slice"] * cfg["slices"])
        n_st, n_kn = cfg["stable"], cfg["knockers"]
        self.stable = [(mac_bytes(x), bytes([10, 0, 1 + i // 200, 1 + i % 200]),
                        HOST_PORTS[i % len(HOST_PORTS)]) for i, x in enumerate(macs[:n_st])]
        self.knockers = [(mac_bytes(x, 0x06), bytes([10, 9, i // 200, 1 + i % 200]),
                          rng.choice(HOST_PORTS)) for i, x in enumerate(macs[n_st:n_st + n_kn])]
        self.transient = [(mac_bytes(x, 0x0a), bytes([10, 200 + i // 65536, (i >> 8) & 0xFF,
                                                     i & 0xFF]), rng.choice(HOST_PORTS))
                          for i, x in enumerate(macs[n_st + n_kn:])]

    def slice(self, k: int):
        n = self.cfg["slice"]
        k %= self.cfg["slices"]
        return self.transient[k * n:(k + 1) * n]

    def pool_pass(self):
        """Every transient host sends one frame to a stable host, one slice
        of hosts per list."""
        rng = random.Random(self.seed * 7919)
        for k in range(self.cfg["slices"]):
            yield [self._udp(rng, "transient", h, rng.choice(self.stable), 60, 53)
                   for h in self.slice(k)]

    def round(self, r: int):
        rng = random.Random(self.seed * 1_000_003 + r)
        mix = self.cfg["mix"]
        items = []
        for k, h in enumerate(self.slice(r)):
            items.append(self._udp(rng, "transient", h, rng.choice(self.stable), SIZES[k % 2], 53))
        for k in range(mix["unicast"]):
            src, dst = rng.sample(self.stable, 2)
            items.append(self._udp(rng, "unicast", src, dst, SIZES[k % 2], 443))
        # transient hosts seen one round ago are still learned, three rounds ago expired
        recent = self.slice(r - 1)[:mix["to_transient"] // 2] + self.slice(r - 3)[
            :mix["to_transient"] - mix["to_transient"] // 2]
        for k, h in enumerate(recent):
            items.append(self._udp(rng, "to_transient", rng.choice(self.stable), h,
                                   SIZES[k % 2], 443))
        for k in range(mix["video"]):
            src, dst = rng.sample(self.stable, 2)
            items.append(self._udp(rng, "video", src, dst, SIZES[k % 2], VIDEO))
        for k in range(mix["arp"]):
            mac, ip, port = rng.choice(self.stable)
            items.append(("arp", port, arp_frame(1, mac, ip, b"\xff" * 6, b"\x00" * 6, GW_IP)))
        rng.shuffle(items)
        # each knocker knocks (the right sequence for half of them) then probes;
        # its four frames keep their order at four random places in the round
        for i, (mac, ip, port) in enumerate(self.knockers[:mix["knock"]]):
            seq = KNOCKS if i % 2 == 0 else tuple(rng.sample(KNOCKS, 3))
            if i % 2 and seq == KNOCKS:
                seq = KNOCKS[::-1]
            spots = sorted(rng.sample(range(len(items) + 4), 4))
            for spot, d in zip(spots, seq + (PROBE,)):
                items.insert(spot, ("knock", port, udp_frame(GW_MAC, mac, ip, GW_IP, 40000, d, 60)))
        return items

    @staticmethod
    def _udp(rng, kind, src, dst, size, dport):
        frame = udp_frame(dst[0], src[0], src[1], dst[1], rng.randrange(1024, 65536), dport,
                          size, rng.randrange(256))
        return (kind, src[2], frame)


def run_frames(edge: Edge, items, model: Model, lat: array | None) -> float:
    """Closed loop over one list of frames; returns the timed wall seconds."""
    dp, clock = edge.dp, edge.clock
    recv, expire = dp.receive_packet, dp.expire
    now_ns = time.perf_counter_ns
    results = []
    t = clock.now()
    t_start = now_ns()
    for n, (kind, in_port, frame) in enumerate(items):
        t += DT
        clock.advance_to(t)
        t0 = now_ns()
        res = recv(in_port, frame)
        t1 = now_ns()
        results.append((t, res))
        if lat is not None:
            lat.append(t1 - t0)
        if n % TICK_EVERY == TICK_EVERY - 1:
            expire()
    wall = (now_ns() - t_start) / 1e9
    for item, (t, res) in zip(items, results):
        check(item, model.verdict(item, t), res, model)
    model.forget_idle(clock.now())
    return wall


def run(seed: int, seconds: float, smoke: bool, tracer=None) -> dict:
    cfg = SMOKE if smoke else FULL
    inputs = Inputs(seed, cfg)
    ctl = Chunked()  # every set-up's configuration messages, one chunk each

    def build():
        edge = Edge(ctl.ns)
        ctl.cut()
        return edge

    # the switch under test, then spare set-ups between rounds
    setups = SetupTimer(build)
    edge = setups.sample()
    model = Model()
    for items in inputs.pool_pass():  # warm-up: every transient host once
        run_frames(edge, items, model, None)
    run_frames(edge, inputs.round(0), model, None)
    lat = array("q")
    walls, rates = [], []
    attempted = 0
    r = 1
    t_setup = time.perf_counter()
    t_end = t_setup + seconds
    while time.perf_counter() < t_end or not walls:
        items = inputs.round(r)
        walls.append(run_frames(edge, items, model, lat))
        rates.append(len(items) / walls[-1])
        attempted += len(items)
        if time.perf_counter() >= t_setup:
            setups.sample()
            t_setup += cfg["setup_every_s"]
        r += 1
    dp = edge.dp
    expect(dp.packets_processed == dp.packets_egressed + dp.packets_to_controller
           + dp.packets_dropped, "processed != egressed + to_controller + dropped")
    expect((dp.packets_egressed, dp.packets_dropped, dp.packets_to_controller)
           == (model.egressed, model.dropped, 0), "datapath outcome counters")
    now = edge.clock.now()
    entries = [e for st in dp.state_tables.values() for e in st.entries.values()]
    stale = sum(1 for e in entries if (e.idle_timeout and now - e.last_touch >= e.idle_timeout)
                or (e.hard_timeout and now - e.install_time >= e.hard_timeout))
    metrics = end_to_end(setup_s=setups.median(), round_walls=walls, pkts_per_s=median(rates),
                         pkt_lat=lat, ctl_msgs_per_s=ctl.rate(), ctl_lat=ctl.ns, smoke=smoke)
    layers = {"stateful.entries_held": (len(entries), "count"),
              "stateful.stale_entries": (stale, "count"),
              "channel.trace_len": (len(edge.conn.trace), "count")}
    return {"attempted": attempted, "failed": 0, "metrics": metrics, "layers": layers}
