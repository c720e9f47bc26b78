"""Stateful forwarding: state tables, scopes, rollback timers, and
switch-generated packets from templates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofswitch import messages as m
from ofswitch.datapath import MAX_DEPTH
from ofswitch.errors import BadTemplate, ScopeWidthMismatch
from ofswitch.oxm import MatchSet
from ofswitch.pkt import build
from ofswitch.stateful import (
    DelStateEntry,
    PacketTemplate,
    SetStateEntry,
    StateTable,
    StateTableConfig,
    TemplateSlot,
    decode_experimenter,
    encode_del_state_entry,
    encode_pkt_template,
    encode_set_state_entry,
    encode_state_table_config,
)

MAC_A = "0a:00:00:00:00:01"
MAC_B = "0a:00:00:00:00:02"


def udp_from(src_mac, dst_mac, sport=1, dport=2):
    return build.udp4_frame(dst_mac, src_mac, "10.0.0.1", "10.0.0.2", sport, dport, b"x")


def add(dp, prio, pairs, insts, table=0):
    dp.flow_mod(m.FlowMod(command=m.OFPFC_ADD, table_id=table, priority=prio,
                          match=MatchSet.from_pairs(pairs),
                          instructions=[m.ApplyActions(insts)]))


def test_scope_width_mismatch_rejected():
    with pytest.raises(ScopeWidthMismatch):
        StateTableConfig(0, ["eth_dst"], ["ipv4_src"]).validate()
    StateTableConfig(0, ["eth_dst"], ["eth_src"]).validate()
    StateTableConfig(0, ["ipv4_src", "udp_src"], ["ipv4_dst", "udp_dst"]).validate()


def test_default_state_zero_for_unknown_key(datapath):
    datapath.configure_state_table(StateTableConfig(0, ["eth_src"], ["eth_src"]))
    add(datapath, 1, {"state": 0}, [m.OutputAction(2)])
    add(datapath, 2, {"state": 5}, [m.OutputAction(3)])
    res = datapath.receive_packet(1, udp_from(MAC_A, MAC_B))
    assert res.egress[0][0] == 2


def test_set_state_action_transitions(datapath):
    datapath.configure_state_table(StateTableConfig(0, ["eth_src"], ["eth_src"]))
    add(datapath, 5, {"state": 0},
        [m.SetStateAction(0, 5), m.OutputAction(2)])
    add(datapath, 6, {"state": 5}, [m.OutputAction(3)])
    assert datapath.receive_packet(1, udp_from(MAC_A, MAC_B)).egress[0][0] == 2
    assert datapath.receive_packet(1, udp_from(MAC_A, MAC_B)).egress[0][0] == 3
    # a different key is still in the default state
    assert datapath.receive_packet(1, udp_from(MAC_B, MAC_A)).egress[0][0] == 2


def test_lookup_and_update_scopes_differ(datapath):
    # learn on the sender address, look up on the destination: the second
    # packet travelling towards the learned address sees the state
    datapath.configure_state_table(StateTableConfig(0, ["eth_dst"], ["eth_src"]))
    add(datapath, 5, {"state": 0}, [m.SetStateAction(0, 7), m.OutputAction(2)])
    add(datapath, 6, {"state": 7}, [m.OutputAction(3)])
    datapath.receive_packet(1, udp_from(MAC_A, MAC_B))   # learns key MAC_A
    res = datapath.receive_packet(2, udp_from(MAC_B, MAC_A))  # dst = MAC_A
    assert res.egress[0][0] == 3


def test_hard_rollback_restores_state(datapath, clock):
    datapath.configure_state_table(StateTableConfig(0, ["eth_src"], ["eth_src"]))
    st = datapath.state_tables[0]
    datapath.set_state_entry(0, bytes.fromhex("0a0000000001"), 5,
                             hard_timeout=10, hard_rollback=1)
    assert st.lookup({"eth_src": bytes.fromhex("0a0000000001")}, 5.0) == 5
    assert st.lookup({"eth_src": bytes.fromhex("0a0000000001")}, 10.0) == 1


def test_idle_rollback_to_default_deletes(datapath, clock):
    datapath.configure_state_table(StateTableConfig(0, ["eth_src"], ["eth_src"]))
    st = datapath.state_tables[0]
    key = bytes.fromhex("0a0000000001")
    datapath.set_state_entry(0, key, 5, idle_timeout=2, idle_rollback=0)
    fields = {"eth_src": key}
    assert st.lookup(fields, 1.0) == 5   # touch keeps it alive
    assert st.lookup(fields, 2.5) == 5
    assert st.lookup(fields, 5.0) == 0   # idle for 2.5s: rolled back
    assert key not in st.entries


def test_hard_rollback_wins_when_both_timers_are_due(datapath):
    datapath.configure_state_table(StateTableConfig(0, ["eth_src"], ["eth_src"]))
    key = bytes.fromhex("0a0000000001")
    datapath.set_state_entry(0, key, 5, idle_timeout=2, idle_rollback=1,
                             hard_timeout=3, hard_rollback=2)
    assert datapath.state_tables[0].lookup({"eth_src": key}, 4.0) == 2


def test_set_state_to_zero_without_timers_deletes(datapath):
    datapath.configure_state_table(StateTableConfig(0, ["eth_src"], ["eth_src"]))
    st = datapath.state_tables[0]
    key = bytes.fromhex("0a0000000001")
    datapath.set_state_entry(0, key, 3)
    assert key in st.entries
    datapath.set_state_entry(0, key, 0)
    assert key not in st.entries


def test_state_stats_dump_sorted(datapath):
    datapath.configure_state_table(StateTableConfig(0, ["eth_src"], ["eth_src"]))
    datapath.set_state_entry(0, b"\x02" * 6, 2)
    datapath.set_state_entry(0, b"\x01" * 6, 1)
    stats = datapath.state_stats(0)
    assert stats.entries == ((b"\x01" * 6, 1), (b"\x02" * 6, 2))


def test_expire_bounds_a_table_of_transient_keys(datapath, clock):
    """100k keys, 1,024 a second, each learned with a 1 s idle rollback to
    the default state: after each sweep only the last second's keys stay."""
    datapath.configure_state_table(StateTableConfig(0, ["eth_src"], ["eth_src"]))
    table = datapath.state_tables[0]
    learn = m.SetStateAction(0, 1, idle_timeout=1, idle_rollback=0)
    for i in range(100_000):
        clock.t = i / 1024
        table.set_state(i.to_bytes(6, "big"), learn, clock())
        if i % 256 == 255:
            datapath.expire()
            assert len(table.entries) <= 1024


_KEYS = [bytes([0x0a, 0, 0, 0, 0, k]) for k in range(3)]
_state_ops = st.tuples(
    st.sampled_from(["set", "delete", "lookup", "dump", "sweep"]),
    st.sampled_from(_KEYS),
    st.integers(0, 3),  # half-seconds since the previous op
    st.builds(m.SetStateAction, st.just(0), st.integers(0, 2),
              idle_timeout=st.integers(0, 3), idle_rollback=st.integers(0, 2),
              hard_timeout=st.integers(0, 4), hard_rollback=st.integers(0, 2)),
)


@given(ops=st.lists(_state_ops, max_size=40))
@settings(max_examples=300, deadline=None)
def test_sweeps_change_no_answer(ops):
    """A table swept at random points answers every lookup and dump as a twin
    that is never swept does.  A sweep is a check, like a lookup: where an
    idle rollback it applies would later have been overtaken by the hard
    timer, the twin's key is looked up at the sweep's time too."""
    cfg = StateTableConfig(0, ["eth_src"], ["eth_src"])
    swept, twin = StateTable(cfg), StateTable(cfg)
    now = 0.0
    for kind, key, step, action in ops:
        now += step / 2
        if kind == "set":
            swept.set_state(key, action, now)
            twin.set_state(key, action, now)
        elif kind == "delete":
            swept.delete(key)
            twin.delete(key)
        elif kind == "lookup":
            assert swept.lookup({"eth_src": key}, now) == twin.lookup({"eth_src": key}, now)
        elif kind == "dump":
            assert swept.dump(now) == twin.dump(now)
        else:
            for k, e in swept.entries.items():
                if (e.hard_timeout and now - e.install_time < e.hard_timeout
                        and e.idle_timeout and now - e.last_touch >= e.idle_timeout
                        and e.idle_rollback != e.hard_rollback):
                    twin.lookup({"eth_src": k}, now)
            swept.expire(now)
    assert swept.dump(now) == twin.dump(now)


def test_experimenter_config_roundtrip(datapath):
    cfg = StateTableConfig(3, ["ipv4_src"], ["ipv4_dst"])
    body = encode_state_table_config(cfg)
    decoded = decode_experimenter(body)
    assert decoded.table_id == 3
    assert decoded.lookup_scope == ["ipv4_src"]
    assert decoded.update_scope == ["ipv4_dst"]
    assert datapath.apply_experimenter(body)
    assert 3 in datapath.state_tables


def test_experimenter_entry_roundtrip(datapath):
    datapath.apply_experimenter(
        encode_state_table_config(StateTableConfig(0, ["ipv4_src"], ["ipv4_src"])))
    key = bytes([10, 0, 0, 9])
    datapath.apply_experimenter(encode_set_state_entry(0, key, 4, 10, 1, 60, 0))
    e = datapath.state_tables[0].entries[key]
    assert (e.state, e.idle_timeout, e.idle_rollback, e.hard_timeout) == (4, 10, 1, 60)
    datapath.apply_experimenter(encode_del_state_entry(0, key))
    assert key not in datapath.state_tables[0].entries


def test_foreign_experimenter_ignored(datapath):
    assert not datapath.apply_experimenter(m.Experimenter(0x12345678, 1, b"zz"))


def test_pkt_template_validation():
    with pytest.raises(BadTemplate):
        PacketTemplate(1, b"short").validate()
    with pytest.raises(BadTemplate):
        PacketTemplate(1, b"\x00" * 20, [TemplateSlot(18, "eth_dst")]).validate()
    PacketTemplate(1, b"\x00" * 20, [TemplateSlot(14, "eth_dst")]).validate()


def test_pkt_gen_to_in_port(datapath):
    reply = build.udp4_frame(MAC_A, MAC_B, "10.0.0.2", "10.0.0.1", 7, 7, b"pong")
    datapath.register_template(PacketTemplate(1, reply, [], ("in_port",)))
    add(datapath, 5, {"in_port": 2}, [m.PktGenAction(1)])
    res = datapath.receive_packet(2, udp_from(MAC_A, MAC_B))
    assert res.egress == [(2, reply)]


def test_pkt_gen_slots_substitute_trigger_fields(datapath):
    tmpl = bytearray(build.udp4_frame(MAC_A, MAC_B, "10.0.0.2", "10.0.0.1", 7, 7, b"t"))
    datapath.register_template(PacketTemplate(
        2, bytes(tmpl), [TemplateSlot(0, "eth_src")], ("in_port",)))
    add(datapath, 5, {"in_port": 3}, [m.PktGenAction(2)])
    res = datapath.receive_packet(3, udp_from(MAC_A, MAC_B))
    out = res.egress[0][1]
    assert out[:6] == bytes.fromhex("0a0000000001")  # trigger's eth_src


def test_pkt_gen_stop_consumes_trigger(datapath):
    reply = build.udp4_frame(MAC_A, MAC_B, "10.0.0.2", "10.0.0.1", 7, 7, b"r")
    datapath.register_template(PacketTemplate(3, reply, [], ("port", 4)))
    add(datapath, 5, {"in_port": 2}, [m.PktGenAction(3, stop_processing=True),
                                      m.OutputAction(3)])
    res = datapath.receive_packet(2, udp_from(MAC_A, MAC_B))
    assert res.egress == [(4, reply)]  # the trigger never reached output:3


def test_pkt_gen_template_wire_roundtrip():
    reply = build.udp4_frame(MAC_A, MAC_B, "10.0.0.2", "10.0.0.1", 7, 7, b"w")
    tmpl = PacketTemplate(9, reply, [TemplateSlot(6, "eth_dst")], ("port", 2))
    body = encode_pkt_template(tmpl)
    again = decode_experimenter(body)
    assert again.template_id == 9
    assert again.data == reply
    assert again.slots[0].offset == 6
    assert again.slots[0].source_field == "eth_dst"
    assert again.egress == ("port", 2)


def test_arp_responder_end_to_end(datapath):
    """Request/reply handled entirely in the switch: template carries the
    answer, slots fill in the asker's address."""
    target_mac, target_ip = MAC_B, "10.0.0.2"
    tmpl = build.arp_frame(2, target_mac, target_ip, "00:00:00:00:00:00", "0.0.0.0")
    slots = [
        TemplateSlot(0, "arp_sha"),    # ethernet destination <- asker MAC
        TemplateSlot(32, "arp_sha"),   # ARP target hardware address
        TemplateSlot(38, "arp_spa"),   # ARP target protocol address
    ]
    datapath.register_template(PacketTemplate(1, tmpl, slots, ("in_port",)))
    add(datapath, 10, {"eth_type": 0x0806, "arp_op": 1, "arp_tpa": target_ip},
        [m.PktGenAction(1, stop_processing=True)])

    asker_mac, asker_ip = MAC_A, "10.0.0.1"
    req = build.arp_frame(1, asker_mac, asker_ip, "00:00:00:00:00:00", target_ip)
    res = datapath.receive_packet(3, req)
    assert len(res.egress) == 1
    port, reply = res.egress[0]
    assert port == 3
    from ofswitch.pkt import parse
    f = parse(reply, 3).fields
    assert f["arp_op"] == b"\x00\x02"
    assert f["arp_sha"] == bytes.fromhex("0a0000000002")
    assert f["arp_spa"] == bytes([10, 0, 0, 2])
    assert f["arp_tha"] == bytes.fromhex("0a0000000001")
    assert f["arp_tpa"] == bytes([10, 0, 0, 1])
    assert f["eth_dst"] == bytes.fromhex("0a0000000001")


@pytest.mark.parametrize("body, command", [
    (encode_state_table_config(StateTableConfig(2, ["ipv4_src", "udp_src"],
                                                ["ipv4_dst", "udp_dst"])),
     StateTableConfig(2, ["ipv4_src", "udp_src"], ["ipv4_dst", "udp_dst"])),
    (encode_set_state_entry(1, b"\x0a\x00\x00\x09", 4, 10, 1, 60, 2),
     SetStateEntry(b"\x0a\x00\x00\x09", m.SetStateAction(1, 4, 10, 1, 60, 2))),
    (encode_del_state_entry(3, b"\x01" * 6), DelStateEntry(3, b"\x01" * 6)),
    (encode_pkt_template(PacketTemplate(7, b"\x00" * 20, [TemplateSlot(6, "eth_src")],
                                        ("pipeline",))),
     PacketTemplate(7, b"\x00" * 20, [TemplateSlot(6, "eth_src")], ("pipeline",))),
], ids=["table-config", "set-state", "del-state", "pkt-template"])
def test_every_stateful_command_decodes_to_its_typed_value(body, command):
    assert decode_experimenter(body) == command


@pytest.mark.parametrize("egress", [("port",), ("bogus",), ("in_port", 3), ("port", 1, 2)])
def test_pkt_template_rejects_a_malformed_egress(egress):
    with pytest.raises(BadTemplate):
        PacketTemplate(1, b"\x00" * 20, [], egress).validate()
    with pytest.raises(BadTemplate):
        encode_pkt_template(PacketTemplate(1, b"\x00" * 20, [], egress))


def test_pipeline_egress_that_rematches_its_flow_stops_at_the_depth_budget(datapath):
    gen = build.udp4_frame(MAC_A, MAC_B, "10.0.0.2", "10.0.0.1", 7, 7, b"again")
    datapath.register_template(PacketTemplate(1, gen, [], ("pipeline",)))
    add(datapath, 5, {}, [m.PktGenAction(1)])
    res = datapath.receive_packet(1, udp_from(MAC_A, MAC_B))
    assert res.dropped
    # the trigger, then one walk per re-entry up to the budget
    assert datapath.tables[0].entries[0].packet_count == 1 + MAX_DEPTH
    assert datapath.packets_processed == datapath.packets_dropped == 1


def test_template_to_absent_port_is_dropped(datapath):
    gen = build.udp4_frame(MAC_A, MAC_B, "10.0.0.2", "10.0.0.1", 7, 7, b"lost")
    datapath.register_template(PacketTemplate(1, gen, [], ("port", 99)))
    add(datapath, 5, {"in_port": 2}, [m.PktGenAction(1)])
    res = datapath.receive_packet(2, udp_from(MAC_A, MAC_B))
    assert res.dropped and not res.egress
    assert (datapath.packets_egressed, datapath.packets_dropped) == (0, 1)
    assert sum(p.tx_packets for p in datapath.ports) == 0


def test_template_to_controller_is_a_packet_in(datapath):
    gen = build.udp4_frame(MAC_A, MAC_B, "10.0.0.2", "10.0.0.1", 7, 7, b"up")
    datapath.register_template(PacketTemplate(1, gen, [], ("port", m.OFPP_CONTROLLER)))
    add(datapath, 5, {"in_port": 2}, [m.PktGenAction(1)])
    res = datapath.receive_packet(2, udp_from(MAC_A, MAC_B))
    assert not res.egress
    assert [(ev.reason, ev.frame, ev.in_port) for ev in res.packet_ins] == [
        (m.OFPR_ACTION, gen, 2)]
    assert datapath.packets_to_controller == 1


def test_pkt_gen_four_indirect_groups_deep_still_emits(datapath):
    reply = build.udp4_frame(MAC_A, MAC_B, "10.0.0.2", "10.0.0.1", 7, 7, b"deep")
    datapath.register_template(PacketTemplate(1, reply, [], ("in_port",)))
    datapath.group_mod(m.GroupMod(m.OFPGC_ADD, m.OFPGT_INDIRECT, 4,
                                  [m.Bucket([m.PktGenAction(1)])]))
    for gid in (3, 2, 1):
        datapath.group_mod(m.GroupMod(m.OFPGC_ADD, m.OFPGT_INDIRECT, gid,
                                      [m.Bucket([m.GroupAction(gid + 1)])]))
    add(datapath, 5, {"in_port": 2}, [m.GroupAction(1)])
    res = datapath.receive_packet(2, udp_from(MAC_A, MAC_B))
    assert res.egress == [(2, reply)]
