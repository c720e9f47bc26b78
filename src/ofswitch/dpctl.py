"""Command-line administration tool.

Talks to a running switch over TCP using the same binary protocol a
controller would.  Every invocation opens a fresh session: version
greeting, the request, then a synchronizing echo so mutations report
success or the switch's error deterministically.

    dpctl [--json] [--timeout S] [--xid N] HOST:PORT VERB [TOKEN...]

Verbs:
    features
    flow-mod    cmd=add|modify|modify-strict|delete|delete-strict
                [table=N] [prio=N] [idle=N] [hard=N] [cookie=N]
                [flags=send_flow_rem,check_overlap]
                [FIELD=VALUE[/MASK] ...]  match fields by name
                [apply:ACT[,ACT...]] [write:ACT[,ACT...]] [clear]
                [goto:N] [meter:N]
    stats-flow  [table=N] [FIELD=VALUE ...]
    stats-port  [port=N]
    port-desc
    stats-group [group=N]
    stats-meter [meter=N]
    group-mod   cmd=add|modify|delete group=N [type=all|select|indirect|ff]
                [bucket=[weight:N,][watch_port:N,][watch_group:N,]ACT[,ACT...] ...]
    meter-mod   cmd=add|modify|delete meter=N [flags=kbps|pktps[,burst]]
                [band=drop:RATE[:BURST]] [band=dscp_remark:RATE[:BURST][:PREC]]
    state-config table=N lookup=FIELD[,FIELD...] update=FIELD[,FIELD...]
    set-state   table=N key=KEY state=N [idle=N] [idle_rb=N] [hard=N] [hard_rb=N]
    del-state   table=N key=KEY
    state-stats table=N
    pkt-template id=N data=HEX egress=port:N|in_port|pipeline
                [slot=OFFSET:FIELD ...]

Actions: output:N (or output:controller|flood|all|in_port), group:N,
set_field:FIELD=VALUE, push_vlan[:TPID], pop_vlan, push_mpls[:ETHERTYPE],
pop_mpls[:ETHERTYPE], set_state:TABLE@STATE[@IDLE[@IDLE_RB[@HARD[@HARD_RB]]]],
pkt_gen:ID[:stop].

KEY and the VALUE of a match field or set_field share one syntax: dotted
IPv4 (10.0.0.1), colon-separated hex bytes (aa:bb:cc:dd:ee:ff), IPv6
(fe80::1), or plain hex digits (0102aa).  A field VALUE that reads as an
integer (42, 0x2a) is taken as one.

--timeout S is the socket timeout in seconds, 0 < S <= 86400 (default 10).

Exit codes: 0 success, 1 switch reported an error, 2 bad usage,
3 could not connect.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
import sys

from . import messages as m
from . import wire
from .errors import CodecError, ConnectError, ProtocolError, StatefulError, UsageError
from .oxm import FIELDS, MatchSet, make_field, parse_bytes
from .stateful import (
    PacketTemplate,
    StateTableConfig,
    TemplateSlot,
    encode_del_state_entry,
    encode_pkt_template,
    encode_set_state_entry,
    encode_state_table_config,
)

_RESERVED_PORTS = {
    "controller": m.OFPP_CONTROLLER,
    "flood": m.OFPP_FLOOD,
    "all": m.OFPP_ALL,
    "in_port": m.OFPP_IN_PORT,
    "table": m.OFPP_TABLE,
}

_FLOW_CMDS = {
    "add": m.OFPFC_ADD,
    "modify": m.OFPFC_MODIFY,
    "modify-strict": m.OFPFC_MODIFY_STRICT,
    "delete": m.OFPFC_DELETE,
    "delete-strict": m.OFPFC_DELETE_STRICT,
}

_GROUP_CMDS = {"add": m.OFPGC_ADD, "modify": m.OFPGC_MODIFY, "delete": m.OFPGC_DELETE}
_GROUP_TYPES = {
    "all": m.OFPGT_ALL,
    "select": m.OFPGT_SELECT,
    "indirect": m.OFPGT_INDIRECT,
    "ff": m.OFPGT_FF,
}
_METER_CMDS = {"add": m.OFPMC_ADD, "modify": m.OFPMC_MODIFY, "delete": m.OFPMC_DELETE}
_BAND_KINDS = {"drop": m.DropBand, "dscp_remark": m.DscpRemarkBand}

_FLOW_FLAGS = {
    "send_flow_rem": m.OFPFF_SEND_FLOW_REM,
    "check_overlap": m.OFPFF_CHECK_OVERLAP,
}
_METER_FLAGS = {"kbps": m.OFPMF_KBPS, "pktps": m.OFPMF_PKTPS, "burst": m.OFPMF_BURST}

_INSTRUCTIONS = {
    "apply": m.ApplyActions,
    "write": m.WriteActions,
    "goto": m.GotoTable,
    "meter": m.MeterInstruction,
}
_FLOW_MOD_INTS = {"table": "table_id", "prio": "priority", "idle": "idle_timeout",
                  "hard": "hard_timeout"}
_STATE_TIMERS = ("idle", "idle_rb", "hard", "hard_rb")


def _int(token: str, text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise UsageError(f"{token!r}: expected an integer, got {text!r}") from None


def _choice(table: dict, what: str, name: str):
    """The value a named choice (a command, group type, flag or band kind) stands for."""
    if name not in table:
        raise UsageError(f"unknown {what} {name!r}")
    return table[name]


def _parse_port(token: str, text: str) -> int:
    if text in _RESERVED_PORTS:
        return _RESERVED_PORTS[text]
    return _int(token, text)


def _parse_flags(table: dict, text: str, what: str) -> int:
    flags = 0
    for name in text.split(","):
        flags |= _choice(table, what, name)
    return flags


def _parse_match_field(name: str, text: str):
    """`FIELD=VALUE[/MASK]` as a match field; masks for maskable fields."""
    if "/" in text:
        value, mask = text.split("/", 1)
        if mask.isdigit() and "." in value:  # prefix-length shorthand for addresses
            width = FIELDS[name].nbytes * 8
            bits = int(mask)
            if not 0 <= bits <= width:
                raise UsageError(f"prefix /{bits} out of range for {name}")
            mask_int = ((1 << bits) - 1) << (width - bits) if bits else 0
            mask = mask_int.to_bytes(width // 8, "big")
        return make_field(name, _coerce(value), _coerce(mask))
    return make_field(name, _coerce(text))


def _coerce(text):
    if isinstance(text, bytes):
        return text
    try:
        return int(text, 0)
    except ValueError:
        return text  # MAC/IP strings handled by the field encoder


def _parse_action(token: str) -> object:
    kind, _, arg = token.partition(":")
    if kind == "output":
        if not arg:
            raise UsageError("output action needs a port: output:N")
        return m.OutputAction(_parse_port(token, arg))
    if kind == "group":
        return m.GroupAction(_int(token, arg))
    if kind == "set_field":
        name, sep, value = arg.partition("=")
        if not sep or name not in FIELDS:
            raise UsageError(f"{token!r}: expected set_field:FIELD=VALUE")
        return m.SetFieldAction(make_field(name, _coerce(value)))
    if kind == "push_vlan":
        return m.PushVlanAction(_int(token, arg) if arg else 0x8100)
    if kind == "pop_vlan":
        return m.PopVlanAction()
    if kind == "push_mpls":
        return m.PushMplsAction(_int(token, arg) if arg else 0x8847)
    if kind == "pop_mpls":
        return m.PopMplsAction(_int(token, arg) if arg else 0x0800)
    if kind == "set_state":
        parts = arg.split("@")
        if not 2 <= len(parts) <= 6:
            raise UsageError(
                f"{token!r}: expected set_state:TABLE@STATE[@IDLE[@IDLE_RB[@HARD[@HARD_RB]]]]")
        return m.SetStateAction(*(_int(token, p) for p in parts))
    if kind == "pkt_gen":
        parts = arg.split(":")
        stop = len(parts) > 1 and parts[1] == "stop"
        return m.PktGenAction(_int(token, parts[0]), stop)
    raise UsageError(f"unknown action {token!r}")


def _parse_actions(text: str) -> list:
    return [_parse_action(t) for t in text.split(",") if t]


class Command:
    """A parsed invocation: the request to send and how to present replies."""

    def __init__(self, endpoint: tuple[str, int], message_body, verb: str,
                 json_out: bool = False, timeout: float = 10.0, xid: int = 1):
        self.endpoint = endpoint
        self.body = message_body
        self.verb = verb
        self.json_out = json_out
        self.timeout = timeout
        self.xid = xid

    @property
    def is_mutation(self) -> bool:
        return not isinstance(self.body, (m.MultipartRequest, m.FeaturesRequest))


def parse_command(argv: list[str]) -> Command:
    try:
        return _parse_command(argv)
    except (ValueError, CodecError, StatefulError, struct.error) as exc:
        # malformed input caught before any connection: bad usage, exit 2
        raise UsageError(str(exc)) from None


def _parse_command(argv: list[str]) -> Command:
    json_out = False
    timeout = 10.0
    xid = 1
    rest = []
    it = iter(argv)
    for a in it:
        if a == "--json":
            json_out = True
        elif a == "--timeout":
            timeout = float(next(it, "") or _usage("--timeout needs a value"))
            if not 0 < timeout <= 86400:  # false for nan; the socket refuses past ~2**63 ns
                raise UsageError(f"--timeout must be in (0, 86400], got {timeout}")
        elif a == "--xid":
            xid = _int("--xid", next(it, "") or _usage("--xid needs a value"))
        elif a.startswith("--"):
            raise UsageError(f"unknown option {a!r}")
        else:
            rest.append(a)
    if len(rest) < 2:
        raise UsageError("expected: dpctl HOST:PORT VERB [TOKEN...]")
    endpoint_text, verb, *tokens = rest
    host, sep, port_text = endpoint_text.rpartition(":")
    if not sep:
        raise UsageError(f"endpoint {endpoint_text!r} must be HOST:PORT")
    endpoint = (host, _int("endpoint", port_text))
    body = _build_body(verb, tokens)
    wire.pack(m.OfMessage(xid, body))  # raises on a value too wide for its wire field
    return Command(endpoint, body, verb, json_out, timeout, xid)


def _usage(text: str):
    raise UsageError(text)


def _options(verb: str, tokens: list[str], required=(), optional=(), repeated=(),
             fields: bool = False) -> dict:
    """A verb's KEY=VALUE tokens as {KEY: VALUE}, with a list for each repeated KEY.

    With ``fields`` a match field name is a KEY too.  A KEY the verb does not
    take, a required one left out or another one given twice is a usage error.
    """
    opts: dict = {key: [] for key in repeated}
    for t in tokens:
        key, sep, value = t.partition("=")
        if not sep:
            raise UsageError(f"expected KEY=VALUE, got {t!r}")
        if key in repeated:
            opts[key].append(value)
        elif key in opts:
            raise UsageError(f"{key}= given twice")
        elif key in required or key in optional or (fields and key in FIELDS):
            opts[key] = value
        else:
            raise UsageError(f"unknown token {t!r}")
    missing = [f"{key}=..." for key in required if key not in opts]
    if missing:
        raise UsageError(f"{verb} needs {' and '.join(missing)}")
    return opts


def _match(opts: dict) -> MatchSet:
    return MatchSet(_parse_match_field(k, v) for k, v in opts.items() if k in FIELDS)


def _build_body(verb: str, tokens: list[str]):
    if verb == "features":
        _options(verb, tokens)
        return m.FeaturesRequest()
    if verb == "flow-mod":
        return _build_flow_mod(tokens)
    if verb == "stats-flow":
        o = _options(verb, tokens, optional=("table",), fields=True)
        table_id = _int("table", o["table"]) if "table" in o else m.OFPTT_ALL
        return m.MultipartRequest(m.OFPMP_FLOW, m.FlowStatsRequest(table_id, match=_match(o)))
    if verb == "stats-port":
        o = _options(verb, tokens, optional=("port",))
        port = _parse_port("port", o["port"]) if "port" in o else m.OFPP_ANY
        return m.MultipartRequest(m.OFPMP_PORT_STATS, m.PortStatsRequest(port))
    if verb == "port-desc":
        _options(verb, tokens)
        return m.MultipartRequest(m.OFPMP_PORT_DESC, m.PortDescRequest())
    if verb == "stats-group":
        o = _options(verb, tokens, optional=("group",))
        gid = _int("group", o["group"]) if "group" in o else m.OFPG_ALL
        return m.MultipartRequest(m.OFPMP_GROUP, m.GroupStatsRequest(gid))
    if verb == "stats-meter":
        o = _options(verb, tokens, optional=("meter",))
        mid = _int("meter", o["meter"]) if "meter" in o else 0xFFFFFFFF
        return m.MultipartRequest(m.OFPMP_METER, m.MeterStatsRequest(mid))
    if verb == "group-mod":
        o = _options(verb, tokens, ("cmd", "group"), ("type",), ("bucket",))
        return m.GroupMod(_choice(_GROUP_CMDS, "group-mod cmd", o["cmd"]),
                          _choice(_GROUP_TYPES, "group type", o.get("type", "all")),
                          _int("group", o["group"]),
                          [_parse_bucket(text) for text in o["bucket"]])
    if verb == "meter-mod":
        o = _options(verb, tokens, ("cmd", "meter"), ("flags",), ("band",))
        return m.MeterMod(_choice(_METER_CMDS, "meter-mod cmd", o["cmd"]),
                          _parse_flags(_METER_FLAGS, o.get("flags", "kbps"), "meter flag"),
                          _int("meter", o["meter"]),
                          [_parse_band(text) for text in o["band"]])
    if verb == "state-config":
        o = _options(verb, tokens, ("table", "lookup", "update"))
        return encode_state_table_config(StateTableConfig(
            _int("table", o["table"]), o["lookup"].split(","), o["update"].split(",")))
    if verb == "set-state":
        o = _options(verb, tokens, ("table", "key", "state"), _STATE_TIMERS)
        return encode_set_state_entry(_int("table", o["table"]), parse_bytes(o["key"]),
                                      _int("state", o["state"]),
                                      *(_int(k, o.get(k, "0")) for k in _STATE_TIMERS))
    if verb == "del-state":
        o = _options(verb, tokens, ("table", "key"))
        return encode_del_state_entry(_int("table", o["table"]), parse_bytes(o["key"]))
    if verb == "state-stats":
        o = _options(verb, tokens, ("table",))
        return m.MultipartRequest(m.OFPMP_EXPERIMENTER,
                                  m.StateStatsRequest(_int("table", o["table"])))
    if verb == "pkt-template":
        o = _options(verb, tokens, ("id", "data"), ("egress",), ("slot",))
        kind, has_port, port = o.get("egress", "in_port").partition(":")
        egress = (kind, _int("egress", port)) if has_port else (kind,)
        slots = []
        for text in o["slot"]:
            offset, _, name = text.partition(":")
            slots.append(TemplateSlot(_int("slot", offset), name))
        return encode_pkt_template(
            PacketTemplate(_int("id", o["id"]), parse_bytes(o["data"]), slots, egress))
    raise UsageError(f"unknown verb {verb!r}")


def _build_flow_mod(tokens: list[str]) -> m.FlowMod:
    instructions = []
    rest = []
    for t in tokens:
        kind, sep, text = t.partition(":")
        if t == "clear":
            instructions.append(m.ClearActions())
        elif sep and kind in _INSTRUCTIONS:
            arg = _parse_actions(text) if kind in ("apply", "write") else _int(t, text)
            instructions.append(_INSTRUCTIONS[kind](arg))
        else:
            rest.append(t)
    o = _options("flow-mod", rest, ("cmd",), (*_FLOW_MOD_INTS, "cookie", "flags"), fields=True)
    cookie, has_mask, cookie_mask = o.get("cookie", "0").partition("/")
    return m.FlowMod(
        command=_choice(_FLOW_CMDS, "flow-mod cmd", o["cmd"]),
        match=_match(o),
        cookie=_int("cookie", cookie),
        cookie_mask=_int("cookie", cookie_mask) if has_mask else 0,
        flags=_parse_flags(_FLOW_FLAGS, o["flags"], "flag") if "flags" in o else 0,
        instructions=instructions,
        **{attr: _int(key, o[key]) for key, attr in _FLOW_MOD_INTS.items() if key in o},
    )


def _parse_bucket(text: str) -> m.Bucket:
    token = f"bucket={text}"
    weight = 0
    watch_port = m.OFPP_ANY
    watch_group = m.OFPG_ANY
    actions = []
    for part in text.split(","):
        kind, _, arg = part.partition(":")
        if kind == "weight":
            weight = _int(token, arg)
        elif kind == "watch_port":
            watch_port = _int(token, arg)
        elif kind == "watch_group":
            watch_group = _int(token, arg)
        elif part:
            actions.append(_parse_action(part))
    if not actions:
        raise UsageError(f"{token!r}: bucket has no actions")
    return m.Bucket(actions, weight, watch_port, watch_group)


def _parse_band(text: str):
    """`KIND:RATE[:BURST]`, and `[:PREC]` after a dscp_remark band."""
    kind, *args = text.split(":")
    band = _choice(_BAND_KINDS, "band kind", kind)
    if not 1 <= len(args) <= len(dataclasses.fields(band)):
        raise UsageError(f"'band={text}': expected band=drop:RATE[:BURST] "
                         "or band=dscp_remark:RATE[:BURST][:PREC]")
    return band(*(_int(f"band={text}", a) for a in args))


# -- execution --------------------------------------------------------------------


class _Session:
    """One short-lived connection from the tool to the switch."""

    def __init__(self, endpoint: tuple[str, int], timeout: float):
        try:
            self.sock = socket.create_connection(endpoint, timeout=timeout)
        except OSError as exc:
            raise ConnectError(f"cannot reach {endpoint[0]}:{endpoint[1]}: {exc}") from None
        self.sock.settimeout(timeout)
        self.buf = wire.FrameBuffer()
        self.pending: list[m.OfMessage] = []

    def close(self):
        self.sock.close()

    def send(self, msg: m.OfMessage):
        self.sock.sendall(wire.pack(msg))

    def recv(self) -> m.OfMessage:
        while not self.pending:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectError("connection closed by the switch")
            self.pending.extend(wire.unpack(f) for f in self.buf.feed(data))
        return self.pending.pop(0)

    def handshake(self):
        self.send(m.OfMessage(0, m.Hello()))
        msg = self.recv()
        if not isinstance(msg.body, m.Hello):
            raise ProtocolError(m.OFPET_HELLO_FAILED, m.OFPHFC_INCOMPATIBLE)


def execute(cmd: Command):
    """Run a parsed command; returns the reply body (None for mutations)."""
    sess = _Session(cmd.endpoint, cmd.timeout)
    try:
        sess.handshake()
        sess.send(m.OfMessage(cmd.xid, cmd.body))
        if cmd.is_mutation:
            # mutations have no positive reply; a barrier-style echo flushes
            # any error the switch raised for our request
            sess.send(m.OfMessage(cmd.xid + 1, m.EchoRequest(b"sync")))
            while True:
                msg = sess.recv()
                if isinstance(msg.body, m.Error):
                    raise ProtocolError(msg.body.err_type, msg.body.code, msg.body.data)
                if isinstance(msg.body, m.EchoReply):
                    return None
        else:
            while True:
                msg = sess.recv()
                if isinstance(msg.body, m.Error):
                    raise ProtocolError(msg.body.err_type, msg.body.code, msg.body.data)
                if msg.xid == cmd.xid:
                    return msg.body
    finally:
        sess.close()


# -- output rendering ---------------------------------------------------------------


def _render(body, json_out: bool) -> str:
    if body is None:
        payload = {"result": "ok"}
        return json.dumps(payload) if json_out else "ok"
    if isinstance(body, m.FeaturesReply):
        d = {"datapath_id": body.datapath_id, "n_tables": body.n_tables,
             "n_buffers": body.n_buffers, "capabilities": body.capabilities}
        if json_out:
            return json.dumps(d)
        return "\n".join(f"{k}: {v}" for k, v in d.items())
    if isinstance(body, m.MultipartReply):
        return _render_stats(body, json_out)
    return json.dumps({"reply": repr(body)}) if json_out else repr(body)


def _render_stats(reply: m.MultipartReply, json_out: bool) -> str:
    rows = []
    b = reply.body
    if reply.kind == m.OFPMP_FLOW:
        for s in b:
            rows.append({
                "table": s.table_id, "priority": s.priority, "cookie": s.cookie,
                "packets": s.packet_count, "bytes": s.byte_count,
                "idle": s.idle_timeout, "hard": s.hard_timeout,
                "match": _match_text(s.match),
            })
    elif reply.kind == m.OFPMP_PORT_STATS:
        for s in b:
            rows.append({
                "port": s.port_no, "rx_packets": s.rx_packets, "tx_packets": s.tx_packets,
                "rx_bytes": s.rx_bytes, "tx_bytes": s.tx_bytes,
                "rx_dropped": s.rx_dropped, "tx_dropped": s.tx_dropped,
            })
    elif reply.kind == m.OFPMP_PORT_DESC:
        for s in b:
            rows.append({
                "port": s.port_no, "name": s.name,
                "hw_addr": ":".join(f"{x:02x}" for x in s.hw_addr),
                "state": "down" if s.state & 1 else "up",
            })
    elif reply.kind == m.OFPMP_GROUP:
        for s in b:
            rows.append({
                "group": s.group_id, "packets": s.packet_count, "bytes": s.byte_count,
                "buckets": [{"packets": p, "bytes": y} for p, y in s.bucket_stats],
            })
    elif reply.kind == m.OFPMP_METER:
        for s in b:
            rows.append({
                "meter": s.meter_id, "flows": s.flow_count,
                "packets": s.packet_in_count, "bytes": s.byte_in_count,
            })
    elif reply.kind == m.OFPMP_EXPERIMENTER and isinstance(b, m.StateStats):
        for key, state in b.entries:
            rows.append({"key": key.hex(), "state": state})
    else:
        rows.append({"raw": repr(b)})
    if json_out:
        return json.dumps(rows)
    if not rows:
        return "(empty)"
    return "\n".join(" ".join(f"{k}={v}" for k, v in row.items()) for row in rows)


def _match_text(match: MatchSet) -> str:
    parts = []
    for f in match:
        name = f.name or f"cls{f.oxm_class:#x}.{f.field_id}"
        text = f.value.hex()
        if f.mask is not None:
            text += "/" + f.mask.hex()
        parts.append(f"{name}={text}")
    return ",".join(parts) or "any"


_ERROR_TYPE_NAMES = {
    m.OFPET_HELLO_FAILED: "hello-failed",
    m.OFPET_BAD_REQUEST: "bad-request",
    m.OFPET_BAD_ACTION: "bad-action",
    m.OFPET_BAD_INSTRUCTION: "bad-instruction",
    m.OFPET_BAD_MATCH: "bad-match",
    m.OFPET_FLOW_MOD_FAILED: "flow-mod-failed",
    m.OFPET_GROUP_MOD_FAILED: "group-mod-failed",
    m.OFPET_METER_MOD_FAILED: "meter-mod-failed",
    m.OFPET_EXPERIMENTER: "experimenter",
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cmd = parse_command(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2
    try:
        body = execute(cmd)
    except ProtocolError as exc:
        name = _ERROR_TYPE_NAMES.get(exc.err_type, str(exc.err_type))
        print(f"switch error: type={name} code={exc.err_code}", file=sys.stderr)
        return 1
    except ConnectError as exc:
        print(f"connect error: {exc}", file=sys.stderr)
        return 3
    print(_render(body, cmd.json_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
