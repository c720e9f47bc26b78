"""Group table and meter semantics."""

import pytest

from ofswitch import messages as m
from ofswitch.datapath import MAX_DEPTH
from ofswitch.errors import BadGroupId, BadGroupType, BadMeterId
from ofswitch.meters import MeterEntry, MeterTable
from ofswitch.oxm import MatchSet
from ofswitch.pkt import build

MAC_A = "0a:00:00:00:00:01"
MAC_B = "0a:00:00:00:00:02"


def frame(payload=b"x"):
    return build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1, 2, payload)


def add_group(dp, gid, gtype, buckets):
    dp.group_mod(m.GroupMod(m.OFPGC_ADD, gtype, gid, buckets))


def steer_to_group(dp, gid):
    dp.flow_mod(m.FlowMod(command=m.OFPFC_ADD, priority=1, match=MatchSet(),
                          instructions=[m.ApplyActions([m.GroupAction(gid)])]))


def test_group_all_copies_to_every_bucket(datapath):
    add_group(datapath, 1, m.OFPGT_ALL,
              [m.Bucket([m.OutputAction(2)]), m.Bucket([m.OutputAction(3)])])
    steer_to_group(datapath, 1)
    res = datapath.receive_packet(1, frame())
    assert sorted(p for p, _ in res.egress) == [2, 3]


def test_group_select_round_robin_exact(datapath):
    add_group(datapath, 2, m.OFPGT_SELECT,
              [m.Bucket([m.OutputAction(p)]) for p in (2, 3, 4)])
    steer_to_group(datapath, 2)
    counts = {2: 0, 3: 0, 4: 0}
    for _ in range(9):
        res = datapath.receive_packet(1, frame())
        counts[res.egress[0][0]] += 1
    assert counts == {2: 3, 3: 3, 4: 3}


def test_group_select_skips_dead_buckets(datapath):
    add_group(datapath, 3, m.OFPGT_SELECT,
              [m.Bucket([m.OutputAction(2)], watch_port=2),
               m.Bucket([m.OutputAction(3)], watch_port=3)])
    steer_to_group(datapath, 3)
    datapath.ports.set_state(2, False)
    outs = {datapath.receive_packet(1, frame()).egress[0][0] for _ in range(4)}
    assert outs == {3}


def test_group_indirect_requires_one_bucket(datapath):
    with pytest.raises(BadGroupId):
        add_group(datapath, 4, m.OFPGT_INDIRECT,
                  [m.Bucket([m.OutputAction(2)]), m.Bucket([m.OutputAction(3)])])
    add_group(datapath, 4, m.OFPGT_INDIRECT, [m.Bucket([m.OutputAction(2)])])
    steer_to_group(datapath, 4)
    assert datapath.receive_packet(1, frame()).egress[0][0] == 2


def test_fast_failover_first_live_bucket(datapath):
    add_group(datapath, 5, m.OFPGT_FF,
              [m.Bucket([m.OutputAction(2)], watch_port=2),
               m.Bucket([m.OutputAction(3)], watch_port=3)])
    steer_to_group(datapath, 5)
    assert datapath.receive_packet(1, frame()).egress[0][0] == 2
    datapath.ports.set_state(2, False)
    assert datapath.receive_packet(1, frame()).egress[0][0] == 3
    # non-revertive evaluation is per-packet: when primary returns, it wins again
    datapath.ports.set_state(2, True)
    assert datapath.receive_packet(1, frame()).egress[0][0] == 2


def test_fast_failover_all_dead_drops(datapath):
    add_group(datapath, 6, m.OFPGT_FF,
              [m.Bucket([m.OutputAction(2)], watch_port=2)])
    steer_to_group(datapath, 6)
    datapath.ports.set_state(2, False)
    res = datapath.receive_packet(1, frame())
    assert res.dropped and not res.egress and not res.packet_ins


def test_fast_failover_watch_group_liveness(datapath):
    add_group(datapath, 7, m.OFPGT_FF,
              [m.Bucket([m.OutputAction(2)], watch_port=2)])
    add_group(datapath, 8, m.OFPGT_FF,
              [m.Bucket([m.GroupAction(7)], watch_group=7),
               m.Bucket([m.OutputAction(3)], watch_port=3)])
    steer_to_group(datapath, 8)
    assert datapath.receive_packet(1, frame()).egress[0][0] == 2
    datapath.ports.set_state(2, False)  # kills group 7's only bucket
    assert datapath.receive_packet(1, frame()).egress[0][0] == 3


def test_group_mod_lifecycle(datapath):
    add_group(datapath, 9, m.OFPGT_ALL, [m.Bucket([m.OutputAction(2)])])
    with pytest.raises(BadGroupId):
        add_group(datapath, 9, m.OFPGT_ALL, [m.Bucket([m.OutputAction(2)])])
    datapath.group_mod(m.GroupMod(m.OFPGC_MODIFY, m.OFPGT_ALL, 9,
                                  [m.Bucket([m.OutputAction(3)])]))
    steer_to_group(datapath, 9)
    assert datapath.receive_packet(1, frame()).egress[0][0] == 3
    datapath.group_mod(m.GroupMod(m.OFPGC_DELETE, 0, 9, []))
    with pytest.raises(BadGroupId):
        datapath.groups.get(9)


# -- meters ------------------------------------------------------------------------


def test_meter_pktps_token_bucket_oracle(clock):
    """Offered 2x the configured packet rate: the closed-form pass count is
    rate*duration + burst."""
    mt = MeterTable(clock)
    mt.modify(m.OFPMC_ADD, 1, m.OFPMF_PKTPS, [m.DropBand(100, 20)])
    passed = 0
    offered = 0
    # 200 pkt/s against a 100 pkt/s band for 5 seconds
    for i in range(1000):
        clock.t = i * 0.005
        offered += 1
        if mt.apply(1, 100, clock.t).passed:
            passed += 1
    expected = 100 * 5 + 20  # tokens refilled plus initial burst
    assert abs(passed - expected) <= 2


def test_meter_kbps_debits_bits(clock):
    mt = MeterTable(clock)
    # 80 kb/s, burst 10 kb; a 1000-byte packet costs 8 kb
    mt.modify(m.OFPMC_ADD, 2, m.OFPMF_KBPS, [m.DropBand(80, 10)])
    clock.t = 0.0
    passes = sum(mt.apply(2, 1000, 0.0).passed for _ in range(5))
    assert passes == 1  # burst covers only the first packet
    clock.t = 1.0  # refill one second: 80 kb -> 10 more packets
    passes = sum(mt.apply(2, 1000, 1.0).passed for _ in range(20))
    assert passes == 1  # capacity capped at the burst size, 10 kb -> 1 packet


def test_meter_burst_defaults_to_tenth_of_rate(clock):
    e = MeterEntry(3, m.OFPMF_PKTPS, [m.DropBand(1000, 0)], 0.0)
    assert e.buckets[0].capacity == 100.0


def test_meter_highest_rate_band_applies(clock):
    mt = MeterTable(clock)
    mt.modify(m.OFPMC_ADD, 4, m.OFPMF_PKTPS,
              [m.DscpRemarkBand(10, 1, 1), m.DropBand(20, 1)])
    clock.t = 0.0
    outcomes = [mt.apply(4, 100, 0.0).kind for _ in range(4)]
    # both buckets drain; once both are empty the 20-rate drop band wins
    assert outcomes[0] == "pass"
    assert "drop" in outcomes[1:]


def test_meter_dscp_remark_bumps_precedence(datapath, clock):
    datapath.meter_mod(m.MeterMod(m.OFPMC_ADD, m.OFPMF_PKTPS, 5,
                                  [m.DscpRemarkBand(1, 1, 1)]))
    datapath.flow_mod(m.FlowMod(
        command=m.OFPFC_ADD, priority=1, match=MatchSet(),
        instructions=[m.MeterInstruction(5),
                      m.ApplyActions([m.OutputAction(2)])]))
    f = build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1, 2, b"x", dscp=10)
    r1 = datapath.receive_packet(1, f)
    assert (r1.egress[0][1][15] >> 2) == 10  # first packet passes untouched
    r2 = datapath.receive_packet(1, f)
    assert (r2.egress[0][1][15] >> 2) == 12  # AF11 -> AF12


def test_meter_stats_count_the_flows_that_use_the_meter(datapath):
    for mid in (1, 2):
        datapath.meter_mod(m.MeterMod(m.OFPMC_ADD, m.OFPMF_PKTPS, mid, [m.DropBand(10)]))

    def add(table_id, port, meter_id):
        datapath.flow_mod(m.FlowMod(
            command=m.OFPFC_ADD, table_id=table_id, priority=1,
            match=MatchSet.from_pairs({"in_port": port}),
            instructions=[m.MeterInstruction(meter_id), m.ApplyActions([m.OutputAction(2)])]))

    add(0, 1, 1)
    add(3, 1, 1)
    add(0, 2, 2)
    datapath.flow_mod(m.FlowMod(command=m.OFPFC_ADD, priority=0))

    def flows():
        return {s.meter_id: s.flow_count
                for s in datapath.meter_stats(m.MeterStatsRequest(0xFFFFFFFF))}

    assert flows() == {1: 2, 2: 1}
    datapath.flow_mod(m.FlowMod(command=m.OFPFC_DELETE_STRICT, table_id=3, priority=1,
                                match=MatchSet.from_pairs({"in_port": 1})))
    assert flows() == {1: 1, 2: 1}
    assert datapath.meter_stats(m.MeterStatsRequest(2))[0].flow_count == 1


def test_meter_unknown_raises(clock):
    mt = MeterTable(clock)
    with pytest.raises(BadMeterId):
        mt.apply(99, 100, 0.0)


def test_meter_mod_lifecycle(clock):
    mt = MeterTable(clock)
    mt.modify(m.OFPMC_ADD, 1, m.OFPMF_PKTPS, [m.DropBand(10, 1)])
    with pytest.raises(BadMeterId):
        mt.modify(m.OFPMC_ADD, 1, m.OFPMF_PKTPS, [m.DropBand(10, 1)])
    mt.modify(m.OFPMC_MODIFY, 1, m.OFPMF_PKTPS, [m.DropBand(20, 2)])
    assert mt.get(1).bands[0].rate == 20
    mt.modify(m.OFPMC_DELETE, 1, 0, [])
    with pytest.raises(BadMeterId):
        mt.get(1)


def test_empty_all_group_counts_the_packet_and_drops_it(datapath):
    add_group(datapath, 1, m.OFPGT_ALL, [])
    steer_to_group(datapath, 1)
    assert datapath.receive_packet(1, frame()).dropped
    g = datapath.groups.get(1)
    assert (g.packet_count, g.byte_count, g.no_bucket_drops) == (1, len(frame()), 0)


@pytest.mark.parametrize("gtype", [m.OFPGT_SELECT, m.OFPGT_FF])
def test_no_live_bucket_counts_a_bucket_drop(datapath, gtype):
    add_group(datapath, 1, gtype, [m.Bucket([m.OutputAction(2)], watch_port=2),
                                   m.Bucket([m.OutputAction(3)], watch_port=3)])
    steer_to_group(datapath, 1)
    datapath.ports.set_state(2, False)
    datapath.ports.set_state(3, False)
    assert datapath.receive_packet(1, frame()).dropped
    g = datapath.groups.get(1)
    assert (g.packet_count, g.no_bucket_drops, g.bucket_packet_counts) == (0, 1, [0, 0])


def test_choose_picks_buckets_by_group_type(datapath):
    live = datapath.ports.is_live
    datapath.ports.set_state(2, False)
    buckets = [m.Bucket([m.OutputAction(p)], watch_port=p) for p in (2, 3, 4)]
    for gid, gtype in enumerate((m.OFPGT_ALL, m.OFPGT_SELECT, m.OFPGT_FF), 1):
        add_group(datapath, gid, gtype, buckets)
    add_group(datapath, 4, m.OFPGT_INDIRECT, buckets[:1])
    with pytest.raises(BadGroupType):  # a type OpenFlow 1.3 does not define
        add_group(datapath, 5, 9, buckets)
    groups = datapath.groups
    assert groups.choose(groups.get(1), live) == [0, 1, 2]
    assert [groups.choose(groups.get(2), live) for _ in range(3)] == [[1], [2], [1]]
    assert groups.choose(groups.get(3), live) == [1]
    assert groups.choose(groups.get(4), live) == [0]


def test_group_that_forwards_to_itself_stops_at_the_depth_budget(datapath):
    add_group(datapath, 1, m.OFPGT_INDIRECT, [m.Bucket([m.GroupAction(1)])])
    steer_to_group(datapath, 1)
    assert datapath.receive_packet(1, frame()).dropped
    assert datapath.groups.get(1).packet_count == MAX_DEPTH
