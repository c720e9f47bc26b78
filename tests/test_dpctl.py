"""Command-line administration tool: token grammar and round trips against
a live switch over loopback TCP."""

import json
import os
import subprocess
import sys

import pytest

from ofswitch import messages as m
from ofswitch.channel import SwitchTcpServer
from ofswitch.datapath import Datapath
from ofswitch.dpctl import main, parse_command
from ofswitch.errors import UsageError
from ofswitch.stateful import decode_experimenter
from ofswitch.messages import SetStateAction


EP = "127.0.0.1:6653"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cmd(*tokens):
    return parse_command([EP, *tokens])


# -- grammar ---------------------------------------------------------------------


def test_endpoint_and_options():
    c = parse_command(["--json", "--timeout", "2", "--xid", "77", EP, "features"])
    assert c.endpoint == ("127.0.0.1", 6653)
    assert c.json_out and c.timeout == 2.0 and c.xid == 77
    assert c.verb == "features"
    assert not c.is_mutation


def test_missing_verb_is_usage_error():
    with pytest.raises(UsageError):
        parse_command([EP])
    with pytest.raises(UsageError):
        parse_command(["not-an-endpoint", "features"])


def test_flow_mod_full_grammar():
    c = cmd("flow-mod", "cmd=add", "table=1", "prio=20", "idle=5", "hard=60",
            "in_port=3", "eth_type=0x0800", "ipv4_dst=10.0.1.0/24",
            "apply:set_field:ip_dscp=10,output:2", "goto:2", "meter:7")
    fm = c.body
    assert c.is_mutation
    assert (fm.command, fm.table_id, fm.priority) == (m.OFPFC_ADD, 1, 20)
    assert (fm.idle_timeout, fm.hard_timeout) == (5, 60)
    names = {f.name: f for f in fm.match}
    assert names["in_port"].value == (3).to_bytes(4, "big")
    assert names["ipv4_dst"].value == bytes([10, 0, 1, 0])
    assert names["ipv4_dst"].mask == bytes([255, 255, 255, 0])
    kinds = [type(i).__name__ for i in fm.instructions]
    assert kinds == ["ApplyActions", "GotoTable", "MeterInstruction"]
    apply_acts = fm.instructions[0].actions
    assert type(apply_acts[0]).__name__ == "SetFieldAction"
    assert apply_acts[1].port == 2


def test_flow_mod_requires_cmd():
    with pytest.raises(UsageError, match="cmd"):
        cmd("flow-mod", "prio=1")


def test_unknown_token_is_named():
    with pytest.raises(UsageError, match="bogus"):
        cmd("flow-mod", "cmd=add", "bogus:1")


def test_output_aliases():
    c = cmd("flow-mod", "cmd=add", "apply:output:controller")
    assert c.body.instructions[0].actions[0].port == m.OFPP_CONTROLLER
    c = cmd("flow-mod", "cmd=add", "apply:output:flood")
    assert c.body.instructions[0].actions[0].port == m.OFPP_FLOOD


def test_vlan_and_mpls_actions():
    c = cmd("flow-mod", "cmd=add", "apply:push_vlan,pop_vlan,push_mpls,pop_mpls")
    kinds = [type(a).__name__ for a in c.body.instructions[0].actions]
    assert kinds == ["PushVlanAction", "PopVlanAction",
                     "PushMplsAction", "PopMplsAction"]


def test_set_state_action_grammar():
    c = cmd("flow-mod", "cmd=add", "apply:set_state:2@7@10@0@60@1")
    act = c.body.instructions[0].actions[0]
    assert isinstance(act, SetStateAction)
    assert (act.table_id, act.next_state) == (2, 7)
    assert (act.idle_timeout, act.idle_rollback) == (10, 0)
    assert (act.hard_timeout, act.hard_rollback) == (60, 1)


def test_group_mod_buckets():
    c = cmd("group-mod", "cmd=add", "group=1", "type=select",
            "bucket=output:1", "bucket=weight:2,output:2",
            "bucket=watch_port:3,output:3")
    gm = c.body
    assert gm.group_type == m.OFPGT_SELECT
    assert [b.weight for b in gm.buckets] == [0, 2, 0]
    assert gm.buckets[2].watch_port == 3
    assert gm.buckets[2].actions[0].port == 3


def test_fast_failover_alias():
    c = cmd("group-mod", "cmd=add", "group=2", "type=ff", "bucket=output:1")
    assert c.body.group_type == m.OFPGT_FF


def test_meter_mod_bands():
    c = cmd("meter-mod", "cmd=add", "meter=5", "flags=pktps,burst",
            "band=drop:1000:100", "band=dscp_remark:2000:50:1")
    mm = c.body
    assert mm.flags & m.OFPMF_PKTPS
    drop, remark = mm.bands
    assert (drop.rate, drop.burst) == (1000, 100)
    assert (remark.rate, remark.burst, remark.prec_level) == (2000, 50, 1)


def test_key_syntax_variants():
    def key_of(text):
        c = cmd("set-state", "table=0", f"key={text}", "state=1")
        return decode_experimenter(c.body).key

    assert key_of("10.0.0.1") == bytes([10, 0, 0, 1])
    assert key_of("aa:bb:cc:dd:ee:ff") == bytes.fromhex("aabbccddeeff")
    assert key_of("0102aa") == bytes.fromhex("0102aa")


def test_state_config_scopes():
    c = cmd("state-config", "table=0", "lookup=eth_dst", "update=eth_src")
    cfg = decode_experimenter(c.body)
    assert cfg.lookup_scope == ["eth_dst"] and cfg.update_scope == ["eth_src"]


def test_pkt_template_grammar():
    c = cmd("pkt-template", "id=4", "data=" + "00" * 20,
            "egress=in_port", "slot=0:eth_src")
    t = decode_experimenter(c.body)
    assert t.template_id == 4 and t.egress == ("in_port",)
    assert t.slots[0].offset == 0 and t.slots[0].source_field == "eth_src"
    c = cmd("pkt-template", "id=5", "data=" + "00" * 20, "egress=port:3")
    assert decode_experimenter(c.body).egress == ("port", 3)


def test_unknown_verb():
    with pytest.raises(UsageError, match="frobnicate"):
        cmd("frobnicate")


@pytest.mark.parametrize("text", ["10.1", "1.2.3", "10.0.0.256"])
def test_key_syntax_rejects_short_or_wide_ipv4(text):
    with pytest.raises(UsageError):
        cmd("set-state", "table=0", f"key={text}", "state=1")


@pytest.mark.parametrize("text, egress", [
    ("in_port", ("in_port",)), ("pipeline", ("pipeline",)), ("port:3", ("port", 3)),
])
def test_pkt_template_egress_forms(text, egress):
    c = cmd("pkt-template", "id=1", "data=" + "00" * 20, f"egress={text}")
    assert decode_experimenter(c.body).egress == egress


@pytest.mark.parametrize("text", ["port", "port:", "bogus", "in_port:3", "pipeline:1"])
def test_pkt_template_rejects_other_egress(text):
    with pytest.raises(UsageError):
        cmd("pkt-template", "id=1", "data=" + "00" * 20, f"egress={text}")


@pytest.mark.parametrize("tokens", [
    ["flow-mod", "cmd=add", "ipv4_dst=10.0.0.300"],
    ["flow-mod", "cmd=add", "apply:set_field:ipv4_dst=1.2.3.999"],
    ["flow-mod", "cmd=add", "eth_dst=zz:00:00:00:00:00"],
    ["flow-mod", "cmd=add", "in_port=99999999999"],
    ["state-config", "table=0", "lookup=bogus", "update=eth_src"],
    ["state-config", "table=0", "lookup=eth_src", "update=ipv4_src"],
    ["pkt-template", "id=1", "data=00"],
    ["features", "--timeout", "abc"],
    ["features", "--timeout", "-1"],
    ["features", "--timeout", "0"],
    ["features", "--timeout", "nan"],
    ["features", "--timeout", "inf"],
    ["features", "--timeout", "1e10"],
], ids=["ipv4-octet", "set-field-ipv4", "mac-digits", "port-width", "scope-field",
        "scope-width", "template-size", "timeout", "timeout-negative", "timeout-zero",
        "timeout-nan", "timeout-inf", "timeout-too-large"])
def test_malformed_input_exits_2_without_traceback(tokens):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "ofswitch.dpctl", EP, *tokens],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "usage error" in proc.stderr
    assert "Traceback" not in proc.stderr


# -- execution over TCP ------------------------------------------------------------


@pytest.fixture
def server(datapath):
    srv = SwitchTcpServer(datapath)
    srv.start()
    yield srv
    srv.stop()


def run(server, *argv, **kw):
    host, port = server.address
    return main([f"{host}:{port}", *argv])


def test_install_and_list_flow(server, datapath, capsys):
    assert run(server, "flow-mod", "cmd=add", "prio=7", "in_port=1",
               "apply:output:2") == 0
    assert len(datapath.tables[0]) == 1
    assert run(server, "stats-flow") == 0
    out = capsys.readouterr().out
    assert "priority=7" in out and "in_port" in out


def test_features_json(server, capsys):
    host, port = server.address
    assert main(["--json", f"{host}:{port}", "features"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["datapath_id"] == 1
    assert doc["n_tables"] == 64


def test_switch_error_gives_exit_1(server, capsys):
    assert run(server, "flow-mod", "cmd=add", "table=200") == 1
    err = capsys.readouterr().err
    assert "error" in err.lower()


def test_usage_error_gives_exit_2(server, capsys):
    assert run(server, "flow-mod") == 2
    assert main(["nonsense"]) == 2


def test_connect_failure_gives_exit_3(capsys):
    assert main(["127.0.0.1:1", "features"]) == 3


def test_group_and_meter_round_trip(server, datapath, capsys):
    assert run(server, "group-mod", "cmd=add", "group=1", "type=select",
               "bucket=output:1", "bucket=output:2") == 0
    assert run(server, "meter-mod", "cmd=add", "meter=1", "flags=pktps",
               "band=drop:100:10") == 0
    assert 1 in datapath.groups.groups
    assert 1 in datapath.meters.meters
    assert run(server, "stats-group", "group=1") == 0
    assert "group=1" in capsys.readouterr().out
    assert run(server, "stats-meter", "meter=1") == 0
    assert "meter=1" in capsys.readouterr().out


def test_state_workflow_over_tcp(server, datapath, capsys):
    assert run(server, "state-config", "table=0",
               "lookup=ipv4_src", "update=ipv4_src") == 0
    assert run(server, "set-state", "table=0", "key=10.0.0.9", "state=3") == 0
    assert datapath.state_tables[0].entries[bytes([10, 0, 0, 9])].state == 3
    assert run(server, "state-stats", "table=0") == 0
    assert "state=3" in capsys.readouterr().out
    assert run(server, "del-state", "table=0", "key=10.0.0.9") == 0
    assert not datapath.state_tables[0].entries


def test_port_desc_lists_ports(server, capsys):
    assert run(server, "port-desc") == 0
    out = capsys.readouterr().out
    for n in (1, 2, 3, 4):
        assert f"port={n}" in out
