"""Pipeline execution: table walk, instructions, action set, reserved ports,
counter conservation."""

import pytest

from ofswitch import messages as m
from ofswitch.datapath import Datapath
from ofswitch.errors import BadInstruction
from ofswitch.oxm import MatchSet
from ofswitch.pkt import build
from ofswitch.stateful import PacketTemplate

MAC_A = "0a:00:00:00:00:01"
MAC_B = "0a:00:00:00:00:02"


def frame(**kw):
    return build.udp4_frame(MAC_B, MAC_A, "10.0.0.1", "10.0.0.2", 1000, 2000,
                            kw.pop("payload", b"x"), **kw)


def add(dp, table=0, prio=1, pairs=None, insts=None, **kw):
    dp.flow_mod(m.FlowMod(command=m.OFPFC_ADD, table_id=table, priority=prio,
                          match=MatchSet.from_pairs(pairs or {}),
                          instructions=insts or [], **kw))


def test_no_entries_means_drop(datapath):
    res = datapath.receive_packet(1, frame())
    assert res.dropped
    assert datapath.packets_dropped == 1


def test_table_miss_entry_sends_to_controller(datapath):
    add(datapath, prio=0, insts=[m.ApplyActions([m.OutputAction(m.OFPP_CONTROLLER)])])
    res = datapath.receive_packet(1, frame())
    assert len(res.packet_ins) == 1
    assert res.packet_ins[0].reason == m.OFPR_NO_MATCH
    assert res.packet_ins[0].in_port == 1


def test_matched_output_to_controller_is_action_reason(datapath):
    add(datapath, prio=5, pairs={"in_port": 1},
        insts=[m.ApplyActions([m.OutputAction(m.OFPP_CONTROLLER)])])
    res = datapath.receive_packet(1, frame())
    assert res.packet_ins[0].reason == m.OFPR_ACTION


def test_goto_table_walks_forward(datapath):
    add(datapath, table=0, prio=1, insts=[m.GotoTable(2)])
    add(datapath, table=2, prio=1, insts=[m.ApplyActions([m.OutputAction(3)])])
    res = datapath.receive_packet(1, frame())
    assert res.egress == [(3, frame())]


def test_miss_in_later_table_drops(datapath):
    add(datapath, table=0, prio=1, insts=[m.GotoTable(5)])
    res = datapath.receive_packet(1, frame())
    assert res.dropped


def test_write_metadata_matched_downstream(datapath):
    add(datapath, table=0, prio=1,
        insts=[m.WriteMetadata(0xAB, 0xFF), m.GotoTable(1)])
    add(datapath, table=1, prio=1, pairs={"metadata": (0xAB, 0xFF)},
        insts=[m.ApplyActions([m.OutputAction(2)])])
    res = datapath.receive_packet(1, frame())
    assert res.egress[0][0] == 2


def test_action_set_executes_after_last_table(datapath):
    add(datapath, table=0, prio=1,
        insts=[m.WriteActions([m.OutputAction(4)]), m.GotoTable(1)])
    add(datapath, table=1, prio=1, insts=[])
    res = datapath.receive_packet(1, frame())
    assert res.egress[0][0] == 4


def test_clear_actions_wipes_the_set(datapath):
    add(datapath, table=0, prio=1,
        insts=[m.WriteActions([m.OutputAction(4)]), m.GotoTable(1)])
    add(datapath, table=1, prio=1, insts=[m.ClearActions()])
    res = datapath.receive_packet(1, frame())
    assert res.dropped


def test_action_set_later_write_overwrites_output(datapath):
    add(datapath, table=0, prio=1,
        insts=[m.WriteActions([m.OutputAction(2)]), m.GotoTable(1)])
    add(datapath, table=1, prio=1, insts=[m.WriteActions([m.OutputAction(3)])])
    res = datapath.receive_packet(1, frame())
    assert res.egress == [(3, frame())]


def test_action_set_execution_order_set_field_before_output(datapath):
    from ofswitch.oxm import make_field
    # output is written first but must execute last
    add(datapath, table=0, prio=1,
        insts=[m.WriteActions([
            m.OutputAction(2),
            m.SetFieldAction(make_field("eth_dst", MAC_A)),
        ])])
    res = datapath.receive_packet(1, frame())
    port, out = res.egress[0]
    assert port == 2
    assert out[:6] == bytes.fromhex("0a0000000001")


def test_group_in_action_set_suppresses_output(datapath):
    datapath.group_mod(m.GroupMod(m.OFPGC_ADD, m.OFPGT_ALL, 1,
                                  [m.Bucket([m.OutputAction(3)])]))
    add(datapath, table=0, prio=1,
        insts=[m.WriteActions([m.OutputAction(2), m.GroupAction(1)])])
    res = datapath.receive_packet(1, frame())
    assert res.egress == [(3, frame())]


def test_flood_excludes_ingress_all_includes_it(datapath):
    add(datapath, prio=1, insts=[m.ApplyActions([m.OutputAction(m.OFPP_FLOOD)])])
    res = datapath.receive_packet(2, frame())
    assert sorted(p for p, _ in res.egress) == [1, 3, 4]
    add(datapath, prio=2, insts=[m.ApplyActions([m.OutputAction(m.OFPP_ALL)])])
    res = datapath.receive_packet(2, frame())
    assert sorted(p for p, _ in res.egress) == [1, 2, 3, 4]


def test_in_port_reserved_output(datapath):
    add(datapath, prio=1, insts=[m.ApplyActions([m.OutputAction(m.OFPP_IN_PORT)])])
    res = datapath.receive_packet(3, frame())
    assert res.egress == [(3, frame())]


def test_flood_skips_down_ports(datapath):
    add(datapath, prio=1, insts=[m.ApplyActions([m.OutputAction(m.OFPP_FLOOD)])])
    datapath.ports.set_state(4, False)
    res = datapath.receive_packet(1, frame())
    assert sorted(p for p, _ in res.egress) == [2, 3]


def test_counters_partition_processed_packets(datapath):
    add(datapath, prio=5, pairs={"in_port": 1},
        insts=[m.ApplyActions([m.OutputAction(2)])])
    add(datapath, prio=5, pairs={"in_port": 2},
        insts=[m.ApplyActions([m.OutputAction(m.OFPP_CONTROLLER)])])
    for port in (1, 2, 3, 1, 2, 3):
        datapath.receive_packet(port, frame())
    dp = datapath
    assert dp.packets_processed == 6
    assert (dp.packets_egressed, dp.packets_to_controller, dp.packets_dropped) == (2, 2, 2)
    assert dp.packets_egressed + dp.packets_to_controller + dp.packets_dropped \
        == dp.packets_processed


def test_packet_out_action_list(datapath):
    po = m.PacketOut(m.OFP_NO_BUFFER, 1, [m.OutputAction(2)], frame())
    res = datapath.packet_out(po)
    assert res.egress == [(2, frame())]


def test_packet_out_to_table_runs_pipeline(datapath):
    add(datapath, prio=1, pairs={"in_port": 1},
        insts=[m.ApplyActions([m.OutputAction(4)])])
    po = m.PacketOut(m.OFP_NO_BUFFER, 1, [m.OutputAction(m.OFPP_TABLE)], frame())
    res = datapath.packet_out(po)
    assert res.egress == [(4, frame())]


def test_apply_actions_mutation_visible_to_next_table(datapath):
    from ofswitch.oxm import make_field
    add(datapath, table=0, prio=1,
        insts=[m.ApplyActions([m.SetFieldAction(make_field("ipv4_dst", "10.9.9.9"))]),
               m.GotoTable(1)])
    add(datapath, table=1, prio=1, pairs={"eth_type": 0x0800, "ipv4_dst": "10.9.9.9"},
        insts=[m.ApplyActions([m.OutputAction(2)])])
    res = datapath.receive_packet(1, frame())
    assert res.egress[0][0] == 2


def test_rx_on_down_port_is_dropped(datapath):
    add(datapath, prio=1, insts=[m.ApplyActions([m.OutputAction(2)])])
    datapath.ports.set_state(1, False)
    assert datapath.receive_packet(1, frame()) is None
    assert datapath.ports.get(1).rx_dropped == 1


def test_tx_to_down_port_counts_drop(datapath):
    add(datapath, prio=1, insts=[m.ApplyActions([m.OutputAction(2)])])
    datapath.ports.set_state(2, False)
    datapath.receive_packet(1, frame())
    assert datapath.ports.get(2).tx_dropped == 1
    assert datapath.ports.get(2).tx_packets == 0


def test_64_tables_default_and_bounds():
    dp = Datapath()
    assert dp.n_tables == 64
    assert len(dp.tables) == 64
    with pytest.raises(Exception):
        Datapath(n_tables=0)


def test_rejected_modify_leaves_entries_alone():
    dp = Datapath(n_tables=4)
    dp.ports.add(1)
    dp.ports.add(2)
    add(dp, prio=1, insts=[m.ApplyActions([m.OutputAction(2)])])
    before = dp.tables[0].entries[0].instructions
    with pytest.raises(BadInstruction):
        dp.flow_mod(m.FlowMod(command=m.OFPFC_MODIFY, instructions=[m.GotoTable(9)]))
    assert dp.tables[0].entries[0].instructions == before
    assert dp.receive_packet(1, frame()).egress == [(2, frame())]


def test_output_to_absent_port_is_a_counted_drop():
    dp = Datapath()
    dp.ports.add(1)
    dp.ports.add(2)
    add(dp, prio=1, insts=[m.ApplyActions([m.OutputAction(99)])])
    res = dp.receive_packet(1, frame())
    assert res.dropped and not res.egress
    assert (dp.packets_egressed, dp.packets_dropped) == (0, 1)
    assert [p.tx_packets for p in dp.ports] == [0, 0]


_LIVE, _DOWN, _ABSENT = 2, 3, 99
_TARGETS = {"live": _LIVE, "down": _DOWN, "absent": _ABSENT, "in_port": m.OFPP_IN_PORT,
            "flood": m.OFPP_FLOOD, "all": m.OFPP_ALL, "controller": m.OFPP_CONTROLLER,
            "table": m.OFPP_TABLE, "local": m.OFPP_LOCAL, "normal": m.OFPP_NORMAL}


def _template_egress(port_no):
    if port_no == m.OFPP_IN_PORT:
        return ("in_port",)
    if port_no == m.OFPP_TABLE:
        return ("pipeline",)
    return ("port", port_no)


@pytest.mark.parametrize("source", ["flow", "template", "packet_out"])
@pytest.mark.parametrize("target", list(_TARGETS))
def test_every_egress_target_is_forwarded_sent_up_or_dropped(datapath, source, target):
    port_no = _TARGETS[target]
    datapath.ports.set_state(_DOWN, False)
    if source == "flow":
        add(datapath, prio=1, insts=[m.ApplyActions([m.OutputAction(port_no)])])
        res = datapath.receive_packet(1, frame())
    elif source == "template":
        datapath.register_template(PacketTemplate(1, frame(payload=b"gen"), [],
                                                  _template_egress(port_no)))
        add(datapath, prio=1, insts=[m.ApplyActions([m.PktGenAction(1)])])
        res = datapath.receive_packet(1, frame())
    else:
        res = datapath.packet_out(m.PacketOut(m.OFP_NO_BUFFER, 1, [m.OutputAction(port_no)],
                                              frame()))
    dp = datapath
    assert dp.packets_processed == 1
    assert dp.packets_egressed + dp.packets_to_controller + dp.packets_dropped == 1
    assert all(dp.ports.exists(p) for p, _ in res.egress)
    assert sum(p.tx_packets + p.tx_dropped for p in dp.ports) == len(res.egress)
