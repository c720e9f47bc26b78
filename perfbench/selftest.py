"""Self-test of the output checks: each workload's checks pass on a real
(small) output and reject the same output with one corruption applied.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import copy
import random

from ofswitch import messages as m
from ofswitch import wire

import control_churn
import edge_stateful
import fabric
import leaf_bigtable
from util import CheckFailed

_problems: list[str] = []


def rejects(label: str, check) -> None:
    try:
        check()
    except CheckFailed:
        print(f"self-test {label}: rejected")
        return
    _problems.append(label)
    print(f"self-test {label}: NOT rejected")


def flip(b: bytes, i: int) -> bytes:
    return b[:i] + bytes([b[i] ^ 0x01]) + b[i + 1:]


def test_fabric() -> None:
    cfg = fabric.SMOKE
    profile = fabric.PermutedProfile(seed=12, load=cfg["load"], duration=cfg["duration"],
                                     host_map=fabric.host_map(random.Random(3)))
    flows = profile.generate(fabric.LEAVES * fabric.HOSTS_PER_LEAF, 1e9)
    fab = fabric.build_spine_leaf(fabric.SPINES, fabric.LEAVES, fabric.HOSTS_PER_LEAF,
                                  queue_bytes=32 * 1024 * 1024)
    report = fabric.run_scenario(fab, profile)
    fabric.check_run(report, flows, fab, report)

    def with_report(old, new):
        return lambda: fabric.check_run(report.replace(old, new, 1), flows, fab, None)

    rep = fabric.parse_report(report)
    mouse = rep["mouse"]
    done = int(mouse["completed"])
    rejects("fabric: a flow left incomplete",
            with_report(f"completed={done}", f"completed={done - 1}"))
    rejects("fabric: frames dropped", with_report("frame_drops=0", "frame_drops=1"))
    rejects("fabric: completion times out of order",
            with_report(f"mean_fct={rep['rabbit']['mean_fct']}", "mean_fct=9.0"))
    rejects("fabric: report differs between runs",
            lambda: fabric.check_run(report, flows, fab, report + " "))

    def mutated(obj, attr, delta):
        def run():
            setattr(obj, attr, getattr(obj, attr) + delta)
            try:
                fabric.check_run(report, flows, fab, None)
            finally:
                setattr(obj, attr, getattr(obj, attr) - delta)
        return run

    access = fab.links[fabric.SPINES * fabric.LEAVES]
    rejects("fabric: a host frame missing", mutated(access.channels[0], "tx_frames", -1))
    rejects("fabric: switch rx != tx", mutated(fab.spines[0].ports.get(1), "tx_packets", 1))
    counts = fab.leaves[0].groups.get(fabric.ECMP_GROUP_ID).bucket_packet_counts

    def uneven():
        counts[0] += 2
        try:
            fabric.check_run(report, flows, fab, None)
        finally:
            counts[0] -= 2
    rejects("fabric: uneven ECMP buckets", uneven)

    monitor = fabric.Monitor(fab)
    expected = fabric.Expected(flows)
    monitor.sweep(expected, None)

    def swept(obj, attr, delta):
        def run():
            setattr(obj, attr, getattr(obj, attr) + delta)
            try:
                monitor.sweep(expected, None)
            finally:
                setattr(obj, attr, getattr(obj, attr) - delta)
        return run

    host = max(expected.got, key=expected.got.get)
    rejects("fabric: port stats tx count off by one", swept(
        fab.leaves[host // fabric.HOSTS_PER_LEAF].ports.get(
            fabric.SPINES + 1 + host % fabric.HOSTS_PER_LEAF), "tx_packets", 1))
    entry = fab.spines[0].tables[0].entries[0]
    rejects("fabric: spine route packet count off by one", swept(entry, "packet_count", 1))
    wrong = fabric.Expected(flows)
    wrong.got[host] += 1
    rejects("fabric: frames to one host off by one", lambda: monitor.sweep(wrong, None))


def test_leaf() -> None:
    routes, prefixes, rounds = leaf_bigtable.make_inputs(random.Random(5), leaf_bigtable.SMOKE)
    leaf = leaf_bigtable.Leaf(routes, prefixes)
    outputs = []
    for item in rounds[0]:
        before = len(leaf.to_controller)
        res = leaf.dp.receive_packet(item[1], item[2])
        outputs.append([item, res, leaf.to_controller[before:]])

    def check(outs, dp=leaf.dp):
        ck = leaf_bigtable.Checker()
        for (kind, _, frame, expected), res, pkt_ins in outs:
            ck.check(kind, frame, expected, res, pkt_ins)
        ck.check_counters(dp)

    check(outputs)

    def corrupt(kind, change):
        outs = copy.deepcopy(outputs)
        change(next(o for o in outs if o[0][0] == kind))
        return lambda: check(outs)

    def egress(o, port=None, frame=None):
        p, f = o[1].egress[0]
        o[1].egress[0] = (port if port is not None else p, frame if frame is not None else f)

    rejects("leaf: host route out of the wrong port", corrupt("host", lambda o: egress(o, port=1)))
    rejects("leaf: rewritten payload changed",
            corrupt("host", lambda o: egress(o, frame=flip(o[1].egress[0][1], 50))))
    rejects("leaf: rewritten MAC wrong",
            corrupt("host", lambda o: egress(o, frame=flip(o[1].egress[0][1], 2))))

    def bad_checksum(o):
        # the same bad checksum in the expected and the forwarded frame
        kind, in_port, frame, (port, out) = o[0]
        o[0] = (kind, in_port, frame, (port, flip(out, 40)))
        egress(o, frame=flip(o[1].egress[0][1], 40))
    rejects("leaf: UDP checksum does not verify", corrupt("host", bad_checksum))
    rejects("leaf: prefix on the wrong uplink",
            corrupt("prefix", lambda o: egress(o, port=o[1].egress[0][0] % 4 + 1)))
    rejects("leaf: broadcast misses a port", corrupt("bcast", lambda o: o[1].egress.pop()))
    rejects("leaf: miss without packet-in message", corrupt("miss", lambda o: o[2].clear()))
    rejects("leaf: packet-in reason not NO_MATCH",
            corrupt("miss", lambda o: setattr(o[1].packet_ins[0], "reason", m.OFPR_ACTION)))

    def miscounted():
        leaf.dp.packets_dropped += 1
        try:
            check(outputs)
        finally:
            leaf.dp.packets_dropped -= 1
    rejects("leaf: processed != egressed + to_controller + dropped", miscounted)


def test_edge() -> None:
    inputs = edge_stateful.Inputs(7, edge_stateful.SMOKE)
    edge = edge_stateful.Edge()
    items = [it for chunk in inputs.pool_pass() for it in chunk] + inputs.round(0) + inputs.round(1)
    outputs = []
    for item in items:
        edge.clock.advance_to(edge.clock.now() + edge_stateful.DT)
        outputs.append((edge.clock.now(), item, edge.dp.receive_packet(item[1], item[2])))

    def check(outs):
        model = edge_stateful.Model()
        for t, item, res in outs:
            edge_stateful.check(item, model.verdict(item, t), res, model)

    check(outputs)

    def corrupt(pick, change):
        outs = copy.deepcopy(outputs)
        change(next(o for o in outs if pick(o)))
        return lambda: check(outs)

    def kind(k):
        return lambda o: o[1][0] == k and o[2].egress

    rejects("edge: learned unicast out of the wrong port",
            corrupt(lambda o: kind("unicast")(o) and len(o[2].egress) == 1,
                    lambda o: o[2].egress.__setitem__(0, (o[2].egress[0][0] % 8 + 1,
                                                          o[2].egress[0][1]))))
    rejects("edge: flood to an unknown MAC cut short",
            corrupt(lambda o: kind("unicast")(o) and len(o[2].egress) > 1,
                    lambda o: o[2].egress.pop()))
    rejects("edge: metered frame let through",
            corrupt(lambda o: o[1][0] == "video" and not o[2].egress,
                    lambda o: o[2].egress.append((1, o[1][2]))))
    rejects("edge: ARP reply target address wrong",
            corrupt(kind("arp"), lambda o: o[2].egress.__setitem__(
                0, (o[2].egress[0][0], flip(o[2].egress[0][1], 39)))))
    rejects("edge: knock sequence admitted without the right knocks",
            corrupt(lambda o: o[1][0] == "knock" and not o[2].egress,
                    lambda o: o[2].egress.append((edge_stateful.SERVER_PORT, o[1][2]))))


def test_churn() -> None:
    planner = control_churn.Planner(11, control_churn.SMOKE)
    sw = control_churn.Switch(planner.slots)
    ops = planner.plan_round() + planner.plan_round()
    _, done = control_churn.execute(sw, ops, None)
    out = list(sw.out)
    failed = control_churn.check_round(ops, done, out)
    bad_pos = sum(1 for op in ops if op[1] == "bad_packet_out")
    print(f"self-test churn: {failed} of {bad_pos} short PacketOuts failed")

    def replace(kind, change):
        i = next(i for i, op in enumerate(ops) if op[1] == kind and done[i][2] > done[i][1])
        raw = list(out)
        raw[done[i][1]] = change(wire.unpack(raw[done[i][1]]))
        return lambda: control_churn.check_round(ops, done, raw)

    def stats_count(msg):
        msg.body.body[0].packet_count += 1
        return wire.pack(msg)

    def drop_entry(msg):
        msg.body.body.pop()
        return wire.pack(msg)

    def port_tx(msg):
        ps = msg.body.body[0]
        msg.body.body[0] = m.PortStats(ps.port_no, ps.rx_packets, ps.tx_packets + 1, ps.rx_bytes,
                                       ps.tx_bytes, ps.rx_dropped, ps.tx_dropped)
        return wire.pack(msg)

    rejects("churn: flow stats packet count off by one", replace("flow_stats", stats_count))
    rejects("churn: flow stats missing an entry", replace("flow_stats", drop_entry))
    rejects("churn: port stats tx count off by one", replace("port_stats", port_tx))
    rejects("churn: echo reply with another payload",
            replace("echo", lambda msg: wire.pack(m.OfMessage(msg.xid, m.EchoReply(b"x")))))
    rejects("churn: reply with another xid",
            replace("echo", lambda msg: wire.pack(m.OfMessage(msg.xid + 1, msg.body))))
    rejects("churn: expiry reported with another reason",
            replace("tick", lambda msg: wire.pack(m.OfMessage(msg.xid, _flip_reason(msg.body)))))
    tick = next(i for i, op in enumerate(ops) if op[1] == "tick" and done[i][2] > done[i][1])
    lo = done[tick][1]
    rejects("churn: one flow-removed message missing",
            lambda: control_churn.check_round(ops, done, out[:lo] + out[lo + 1:]))
    # a short PacketOut answered the way the protocol asks is not a failure, one
    # that raised or stayed unanswered is
    op = next(op for op in ops if op[1] == "bad_packet_out")
    error = wire.pack(m.OfMessage(op[2][0], m.Error(m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_LEN)))
    if (control_churn.check_round([op], [(None, 0, 1, None)], [error]) != 0
            or control_churn.check_round([op], [(None, 0, 0, None)], []) != 1
            or control_churn.check_round([op], [(None, 0, 0, ValueError())], []) != 1):
        _problems.append("churn: short PacketOut accounting")


def _flip_reason(body):
    body.reason = m.OFPRR_IDLE_TIMEOUT if body.reason == m.OFPRR_HARD_TIMEOUT else \
        m.OFPRR_HARD_TIMEOUT
    return body


def main() -> int:
    for test in (test_fabric, test_leaf, test_edge, test_churn):
        test()
    for p in _problems:
        print("self-test FAIL", p)
    return 1 if _problems else 0
