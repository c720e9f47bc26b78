"""control_churn: a controller session that keeps the flow table at a
steady size while it changes it.

The controller visits flow slots in a seeded cyclic order: an absent slot
is added (with idle or hard timeouts and SEND_FLOW_REM), a present one is
first modified and on the next visit deleted, both strictly.  Between
those flow-mods come non-strict flow stats, port stats, group and meter
modifications, echoes, ``Datapath.expire`` ticks on the simulated clock
and a trickle of data packets.  The loop is closed: each message is fed
after the previous ``feed`` returned.

The benchmark keeps its own model of the table.  Each round is planned on
the model (which messages, and what the switch must answer), then fed to
the switch while timed, then every answer is checked against the plan.

A fixed share of the messages are PacketOuts carrying a 5-byte frame.  The
switch must answer each with one OFPET_BAD_REQUEST error carrying the
request's xid; one that does not is counted as failed.
"""

from __future__ import annotations

import random
import time
from array import array

from ofswitch import messages as m
from ofswitch import wire
from ofswitch.channel import SwitchConnection
from ofswitch.datapath import Datapath
from ofswitch.harness import SimClock
from ofswitch.oxm import MatchSet

from util import (
    Chunked, SetupTimer, end_to_end, expect, ip_str, mac_bytes, median, udp_frame,
)

PORTS = tuple(range(1, 9))
GROUP_ID, METER_ID = 1, 1
SHORT, LONG = 1, 30      # timeouts in simulated seconds
ROUNDS_PER_S = 1.8       # full-size rounds per wall second on the reference machine

# A round is one simulated second: ``ops`` operations ``1/ops`` s apart, an
# expire() tick every ``tick_every``, flow-mods filling what ``mix`` leaves.
FULL = dict(slots=512, setup_every=4, ops=1024, tick_every=64,
            mix=dict(packet=64, echo=16, port_stats=8, flow_stats=24, group_mod=8,
                     meter_mod=8, bad_packet_out=4))
SMOKE = dict(slots=32, setup_every=1, ops=64, tick_every=4,
             mix=dict(packet=4, echo=1, port_stats=1, flow_stats=2, group_mod=1,
                      meter_mod=1, bad_packet_out=1))


class Slot:
    """The controller's belief about one flow entry."""

    def __init__(self, i: int, n_slots: int, timeouts: tuple):
        q = n_slots // 4
        self.cookie = i
        self.ip = bytes([10, 2, i // q, i % q + 1])
        self.priority = 100 + i % 7
        self.idle, self.hard = timeouts
        self.present = False
        self.port = PORTS[i % len(PORTS)]
        self.modified = False
        self.installed = self.last_hit = 0.0
        self.hits = 0

    def match(self) -> MatchSet:
        return MatchSet.from_pairs({"eth_type": 0x0800, "ipv4_dst": ip_str(self.ip)})

    def flow_mod(self, command: int) -> m.FlowMod:
        return m.FlowMod(command=command, priority=self.priority, match=self.match(),
                         idle_timeout=self.idle, hard_timeout=self.hard, cookie=self.cookie,
                         flags=m.OFPFF_SEND_FLOW_REM,
                         instructions=[m.ApplyActions([m.OutputAction(self.port)])])

    def expiry(self, now: float):
        if self.hard and now - self.installed >= self.hard:
            return m.OFPRR_HARD_TIMEOUT
        if self.idle and now - self.last_hit >= self.idle:
            return m.OFPRR_IDLE_TIMEOUT
        return None


class Switch:
    """The datapath and its controller session, set up through ``feed``."""

    def __init__(self, slots):
        self.clock = SimClock()
        self.dp = Datapath(datapath_id=0xC0, n_tables=4, clock=self.clock)
        for p in PORTS:
            self.dp.ports.add(p)
        self.out: list[bytes] = []
        self.conn = SwitchConnection(self.dp, self.out.append)
        self.conn.start()
        setup = [m.Hello(), m.FeaturesRequest(),
                 m.GroupMod(m.OFPGC_ADD, m.OFPGT_SELECT, GROUP_ID, buckets(0)),
                 m.MeterMod(m.OFPMC_ADD, m.OFPMF_KBPS, METER_ID, [m.DropBand(1000, 100)])]
        setup += [s.flow_mod(m.OFPFC_ADD) for s in slots]
        for xid, body in enumerate(setup, 1):
            self.conn.feed(wire.pack(m.OfMessage(xid, body)))
        replies = [wire.unpack(raw) for raw in self.out[1:]]
        expect([(r.xid, type(r.body)) for r in replies] == [(2, m.FeaturesReply)],
               "set-up replies")
        expect(len(self.dp.tables[0]) == len(slots), "flow table size after set-up")
        self.out.clear()


def buckets(k: int) -> list:
    return [m.Bucket([m.OutputAction(PORTS[(k + j) % len(PORTS)])]) for j in range(2)]


class Planner:
    """Plans rounds of operations on the model; each op is
    (simulated time, kind, payload, what the switch must answer)."""

    def __init__(self, seed: int, cfg: dict):
        self.rng = random.Random(seed)
        n = cfg["slots"]
        kinds = [(0, SHORT), (SHORT, 0), (LONG, 2 * LONG), (LONG, 2 * LONG)]
        self.slots = [Slot(i, n, self.rng.choice(kinds)) for i in range(n)]
        for s in self.slots:
            s.present = True
        self.order = list(range(n))
        self.rng.shuffle(self.order)
        self.cursor = 0
        self.cfg = cfg
        self.xid = 1000
        self.tx = {p: 0 for p in PORTS}   # data frames the model expects out of each port
        self.group_k = self.meter_k = 0
        self.now = 0.0

    def _msg(self, body) -> tuple:
        self.xid += 1
        return self.xid, wire.pack(m.OfMessage(self.xid, body))

    def plan_round(self) -> list:
        n_ops, tick_every = self.cfg["ops"], self.cfg["tick_every"]
        kinds = [k for k, n in self.cfg["mix"].items() for _ in range(n)]
        kinds += ["flow_mod"] * (n_ops - n_ops // tick_every - len(kinds))
        self.rng.shuffle(kinds)
        ops = []
        for i in range(n_ops):
            self.now += 1 / n_ops
            if i % tick_every == tick_every - 1:
                ops.append((self.now, "tick", None, self._tick()))
            else:
                kind = kinds.pop()
                ops.append((self.now, kind) + getattr(self, "_" + kind)())
        return ops

    def _tick(self) -> dict:
        gone = {}
        for s in self.slots:
            reason = s.expiry(self.now) if s.present else None
            if reason is not None:
                s.present = False
                gone[s.cookie] = reason
        return gone

    def _flow_mod(self):
        s = self.slots[self.order[self.cursor % len(self.order)]]
        self.cursor += 1
        if not s.present:
            s.present, s.modified = True, False
            s.installed = s.last_hit = self.now
            s.hits = 0
            return self._msg(s.flow_mod(m.OFPFC_ADD)), ("none",)
        if not s.modified:
            s.modified = True
            s.port = PORTS[(PORTS.index(s.port) + 1 + self.rng.randrange(len(PORTS) - 1))
                           % len(PORTS)]
            return self._msg(s.flow_mod(m.OFPFC_MODIFY_STRICT)), ("none",)
        s.present = False
        return self._msg(s.flow_mod(m.OFPFC_DELETE_STRICT)), ("removed", s.cookie)

    def _packet(self):
        s = self.rng.choice(self.slots)
        frame = udp_frame(mac_bytes(0xC0), mac_bytes(self.rng.getrandbits(32), 0x06),
                          bytes([10, 3, 0, 1]), s.ip, 5000, 6000, 60 if s.cookie % 2 else 1500)
        in_port = self.rng.choice(PORTS)
        if s.present:
            s.hits += 1
            s.last_hit = self.now
            self.tx[s.port] += 1
            return (in_port, frame), [(s.port, frame)]
        return (in_port, frame), []

    def _echo(self):
        payload = self.rng.randbytes(8)
        xid, raw = self._msg(m.EchoRequest(payload))
        return (xid, raw), ("echo", payload)

    def _port_stats(self):
        xid, raw = self._msg(m.MultipartRequest(m.OFPMP_PORT_STATS, m.PortStatsRequest()))
        return (xid, raw), ("port_stats", dict(self.tx))

    def _flow_stats(self):
        q = self.rng.randrange(4)
        net = self.slots[q * (len(self.slots) // 4)].ip[:3] + b"\x00"
        match = MatchSet.from_pairs({"eth_type": 0x0800,
                                     "ipv4_dst": (ip_str(net), "255.255.255.0")})
        xid, raw = self._msg(m.MultipartRequest(m.OFPMP_FLOW, m.FlowStatsRequest(0, match=match)))
        want = {s.cookie: (s.priority, s.idle, s.hard, s.hits, s.port)
                for s in self.slots if s.present and s.ip[:3] == net[:3]}
        return (xid, raw), ("flow_stats", want)

    def _group_mod(self):
        self.group_k += 1
        body = m.GroupMod(m.OFPGC_MODIFY, m.OFPGT_SELECT, GROUP_ID, buckets(self.group_k))
        return self._msg(body), ("none",)

    def _meter_mod(self):
        self.meter_k += 1
        body = m.MeterMod(m.OFPMC_MODIFY, m.OFPMF_KBPS, METER_ID,
                          [m.DropBand(1000 + 100 * (self.meter_k % 5), 100)])
        return self._msg(body), ("none",)

    def _bad_packet_out(self):
        body = m.PacketOut(m.OFP_NO_BUFFER, m.OFPP_CONTROLLER, [m.OutputAction(1)], b"\x00" * 5)
        return self._msg(body), ("bad_request",)


def execute(sw: Switch, ops, lat: array | None, pkt_lat: array | None = None):
    """Feed one planned round in a closed loop.  Returns the timed wall
    seconds, and per op its result, its slice of switch output, and the
    exception it raised.  Message durations go to ``lat``, data packet
    durations to ``pkt_lat``."""
    dp, feed, clock, out = sw.dp, sw.conn.feed, sw.clock, sw.out
    now_ns = time.perf_counter_ns
    done = []
    t_start = now_ns()
    for t, kind, payload, _ in ops:
        clock.advance_to(t)
        before = len(out)
        res = exc = None
        t0 = now_ns()
        try:
            if kind == "tick":
                dp.expire()
            elif kind == "packet":
                res = dp.receive_packet(*payload)
            else:
                feed(payload[1])
        except Exception as e:  # a failed operation; counted, the session goes on
            exc = e
        t1 = now_ns()
        if kind == "packet":
            if pkt_lat is not None:
                pkt_lat.append(t1 - t0)
        elif lat is not None and kind != "tick":
            lat.append(t1 - t0)
        done.append((res, before, len(out), exc))
    return (now_ns() - t_start) / 1e9, done


def check_round(ops, done, out: list) -> int:
    """Check every answer against the plan; returns how many ops failed."""
    failed = 0
    for (t, kind, payload, want), (res, lo, hi, exc) in zip(ops, done):
        msgs = [wire.unpack(raw) for raw in out[lo:hi]]
        if kind == "bad_packet_out":
            ok = (exc is None and len(msgs) == 1 and msgs[0].xid == payload[0]
                  and isinstance(msgs[0].body, m.Error)
                  and msgs[0].body.err_type == m.OFPET_BAD_REQUEST)
            failed += not ok
            continue
        expect(exc is None, f"{kind} raised {exc!r}")
        if kind == "tick":
            got = {r.body.cookie: r.body.reason for r in msgs if isinstance(r.body, m.FlowRemoved)}
            expect(len(msgs) == len(got) and got == want,
                   f"expiry at t={t}: switch removed {sorted(got.items())}, "
                   f"model {sorted(want.items())}")
        elif kind == "packet":
            expect(res is not None and res.egress == want and not msgs, "data packet egress")
        elif want[0] == "none":
            expect(not msgs, f"{kind} answered {[type(r.body).__name__ for r in msgs]}")
        elif want[0] == "removed":
            expect([(type(r.body), r.body.cookie, r.body.reason) for r in msgs]
                   == [(m.FlowRemoved, want[1], m.OFPRR_DELETE)], "delete flow-removed")
        else:
            expect(len(msgs) == 1 and msgs[0].xid == payload[0], f"{kind}: one reply with its xid")
            check_reply(want, msgs[0].body)
    return failed


def check_reply(want, body) -> None:
    if want[0] == "echo":
        expect(isinstance(body, m.EchoReply) and body.payload == want[1], "echo reply")
        return
    expect(isinstance(body, m.MultipartReply), "multipart reply")
    if want[0] == "port_stats":
        got = {ps.port_no: ps.tx_packets for ps in body.body}
        expect(got == want[1], f"port tx counts {got} != model {want[1]}")
        return
    got = {}
    for fs in body.body:
        (ins,) = fs.instructions
        (out,) = ins.actions
        got[fs.cookie] = (fs.priority, fs.idle_timeout, fs.hard_timeout, fs.packet_count,
                          out.port)
        expect(fs.flags == m.OFPFF_SEND_FLOW_REM, "flow flags")
    expect(got == want[1], f"flow stats differ from the model: {len(got)} vs {len(want[1])}")


def run(seed: int, seconds: float, smoke: bool, tracer=None) -> dict:
    cfg = SMOKE if smoke else FULL
    planner = Planner(seed, cfg)
    # the switch under test, then a spare set-up after every few rounds
    setups = SetupTimer(lambda: Switch(planner.slots))
    sw = setups.sample()

    def one_round(lat, pkt_lat):
        ops = planner.plan_round()
        wall, done = execute(sw, ops, lat, pkt_lat)
        failed = check_round(ops, done, sw.out)
        sw.out.clear()
        return wall, failed

    one_round(None, None)  # warm-up
    lat, pkt_lat = array("q"), Chunked()
    walls, ctl_rates = [], []
    failed = 0
    # A fixed number of rounds, not a time limit: the session keeps every
    # message it saw, so a time-limited run would charge a faster switch
    # with more memory.  ROUNDS_PER_S makes a run last about ``seconds``.
    rounds = max(1, round(ROUNDS_PER_S * seconds))
    for r in range(1, rounds + 1):
        before = len(lat)
        w, f = one_round(lat, pkt_lat.ns)
        pkt_lat.cut()
        walls.append(w)
        ctl_rates.append((len(lat) - before) / w)
        failed += f
        if r % cfg["setup_every"] == 0:
            setups.sample()
    attempted = rounds * cfg["ops"]
    group = sw.dp.groups.get(GROUP_ID)
    expect(list(group.buckets) == buckets(planner.group_k), "group buckets after the last modify")
    metrics = end_to_end(setup_s=setups.median(), round_walls=walls, pkts_per_s=pkt_lat.rate(),
                         pkt_lat=pkt_lat.ns, ctl_msgs_per_s=median(ctl_rates), ctl_lat=lat,
                         smoke=smoke)
    layers = {"channel.trace_len": (len(sw.conn.trace), "count")}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "layers": layers}
