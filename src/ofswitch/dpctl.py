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

KEY syntax: dotted IPv4 (10.0.0.1), colon-separated hex bytes
(aa:bb:cc:dd:ee:ff), or plain hex digits.

Exit codes: 0 success, 1 switch reported an error, 2 bad usage,
3 could not connect.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import sys

from . import messages as m
from . import wire
from .errors import ConnectError, ProtocolError, UsageError
from .oxm import FIELDS, MatchSet, make_field
from .stateful import (
    EGRESS_IN_PORT,
    EGRESS_PIPELINE,
    EGRESS_PORT,
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

_FLOW_FLAGS = {
    "send_flow_rem": m.OFPFF_SEND_FLOW_REM,
    "check_overlap": m.OFPFF_CHECK_OVERLAP,
}
_METER_FLAGS = {"kbps": m.OFPMF_KBPS, "pktps": m.OFPMF_PKTPS, "burst": m.OFPMF_BURST}


def _int(token: str, text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise UsageError(f"{token!r}: expected an integer, got {text!r}") from None


def _parse_port(token: str, text: str) -> int:
    if text in _RESERVED_PORTS:
        return _RESERVED_PORTS[text]
    return _int(token, text)


def _parse_key(token: str, text: str) -> bytes:
    try:
        if "." in text:
            return socket.inet_aton(text)
        if ":" in text:
            return bytes(int(b, 16) for b in text.split(":"))
        return bytes.fromhex(text)
    except (OSError, ValueError):
        raise UsageError(f"{token!r}: cannot parse key {text!r}") from None


def _parse_flags(table: dict, text: str, what: str) -> int:
    flags = 0
    for name in text.split(","):
        if name not in table:
            raise UsageError(f"unknown {what} {name!r}")
        flags |= table[name]
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
        if len(parts) < 2:
            raise UsageError(f"{token!r}: expected set_state:TABLE@STATE")
        if len(parts) > 6:
            raise UsageError(f"{token!r}: at most 4 timer values")
        table_id = _int(token, parts[0])
        state = _int(token, parts[1])
        timeouts = [0, 0, 0, 0]
        for i, v in enumerate(parts[2:]):
            timeouts[i] = _int(token, v)
        return m.SetStateAction(table_id, state, *timeouts)
    if kind == "pkt_gen":
        parts = arg.split(":")
        stop = len(parts) > 1 and parts[1] == "stop"
        return m.PktGenAction(_int(token, parts[0]), stop)
    raise UsageError(f"unknown action {token!r}")


def _parse_actions(token: str, text: str) -> list:
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
    return Command(endpoint, body, verb, json_out, timeout, xid)


def _usage(text: str):
    raise UsageError(text)


def _opts(tokens: list[str]) -> dict[str, str]:
    out = {}
    for t in tokens:
        key, sep, value = t.partition("=")
        if not sep:
            raise UsageError(f"expected KEY=VALUE, got {t!r}")
        out[key] = value
    return out


def _build_body(verb: str, tokens: list[str]):
    if verb == "features":
        if tokens:
            raise UsageError(f"features takes no tokens, got {tokens[0]!r}")
        return m.FeaturesRequest()
    if verb == "flow-mod":
        return _build_flow_mod(tokens)
    if verb == "stats-flow":
        table_id = m.OFPTT_ALL
        match = MatchSet()
        for t in tokens:
            key, sep, value = t.partition("=")
            if not sep:
                raise UsageError(f"expected KEY=VALUE, got {t!r}")
            if key == "table":
                table_id = _int(t, value)
            elif key in FIELDS:
                match.add(_parse_match_field(key, value))
            else:
                raise UsageError(f"unknown token {t!r}")
        return m.MultipartRequest(m.OFPMP_FLOW, m.FlowStatsRequest(table_id, match=match))
    if verb == "stats-port":
        opts = _opts(tokens)
        port = _parse_port("port", opts.pop("port")) if "port" in opts else m.OFPP_ANY
        _reject_unknown(opts)
        return m.MultipartRequest(m.OFPMP_PORT_STATS, m.PortStatsRequest(port))
    if verb == "port-desc":
        if tokens:
            raise UsageError(f"port-desc takes no tokens, got {tokens[0]!r}")
        return m.MultipartRequest(m.OFPMP_PORT_DESC, m.PortDescRequest())
    if verb == "stats-group":
        opts = _opts(tokens)
        gid = _int("group", opts.pop("group")) if "group" in opts else m.OFPG_ALL
        _reject_unknown(opts)
        return m.MultipartRequest(m.OFPMP_GROUP, m.GroupStatsRequest(gid))
    if verb == "stats-meter":
        opts = _opts(tokens)
        mid = _int("meter", opts.pop("meter")) if "meter" in opts else 0xFFFFFFFF
        _reject_unknown(opts)
        return m.MultipartRequest(m.OFPMP_METER, m.MeterStatsRequest(mid))
    if verb == "group-mod":
        return _build_group_mod(tokens)
    if verb == "meter-mod":
        return _build_meter_mod(tokens)
    if verb == "state-config":
        opts = _opts(tokens)
        try:
            cfg = StateTableConfig(
                _int("table", opts.pop("table")),
                opts.pop("lookup").split(","),
                opts.pop("update").split(","),
            )
        except KeyError as exc:
            raise UsageError(f"state-config needs {exc.args[0]}=...") from None
        _reject_unknown(opts)
        cfg.validate()
        return encode_state_table_config(cfg)
    if verb == "set-state":
        opts = _opts(tokens)
        try:
            table = _int("table", opts.pop("table"))
            key = _parse_key("key", opts.pop("key"))
            state = _int("state", opts.pop("state"))
        except KeyError as exc:
            raise UsageError(f"set-state needs {exc.args[0]}=...") from None
        timers = [_int(k, opts.pop(k)) if k in opts else 0
                  for k in ("idle", "idle_rb", "hard", "hard_rb")]
        _reject_unknown(opts)
        return encode_set_state_entry(table, key, state, *timers)
    if verb == "del-state":
        opts = _opts(tokens)
        try:
            table = _int("table", opts.pop("table"))
            key = _parse_key("key", opts.pop("key"))
        except KeyError as exc:
            raise UsageError(f"del-state needs {exc.args[0]}=...") from None
        _reject_unknown(opts)
        return encode_del_state_entry(table, key)
    if verb == "state-stats":
        opts = _opts(tokens)
        try:
            table = _int("table", opts.pop("table"))
        except KeyError:
            raise UsageError("state-stats needs table=N") from None
        _reject_unknown(opts)
        return m.MultipartRequest(m.OFPMP_EXPERIMENTER, m.StateStatsRequest(table))
    if verb == "pkt-template":
        return _build_pkt_template(tokens)
    raise UsageError(f"unknown verb {verb!r}")


def _reject_unknown(opts: dict) -> None:
    if opts:
        raise UsageError(f"unknown token {next(iter(opts))!r}")


def _build_flow_mod(tokens: list[str]) -> m.FlowMod:
    fm = m.FlowMod()
    have_cmd = False
    instructions = []
    for t in tokens:
        if t == "clear":
            instructions.append(m.ClearActions())
            continue
        if ":" in t and t.split(":", 1)[0] in ("apply", "write", "goto", "meter"):
            kind, text = t.split(":", 1)
            if kind == "apply":
                instructions.append(m.ApplyActions(_parse_actions(t, text)))
            elif kind == "write":
                instructions.append(m.WriteActions(_parse_actions(t, text)))
            elif kind == "goto":
                instructions.append(m.GotoTable(_int(t, text)))
            else:
                instructions.append(m.MeterInstruction(_int(t, text)))
            continue
        key, sep, value = t.partition("=")
        if not sep:
            raise UsageError(f"expected KEY=VALUE, got {t!r}")
        if key == "cmd":
            if value not in _FLOW_CMDS:
                raise UsageError(f"unknown flow-mod cmd {value!r}")
            fm.command = _FLOW_CMDS[value]
            have_cmd = True
        elif key == "table":
            fm.table_id = _int(t, value)
        elif key == "prio":
            fm.priority = _int(t, value)
        elif key == "idle":
            fm.idle_timeout = _int(t, value)
        elif key == "hard":
            fm.hard_timeout = _int(t, value)
        elif key == "cookie":
            if "/" in value:
                c, cm = value.split("/", 1)
                fm.cookie, fm.cookie_mask = _int(t, c), _int(t, cm)
            else:
                fm.cookie = _int(t, value)
        elif key == "flags":
            fm.flags |= _parse_flags(_FLOW_FLAGS, value, "flag")
        elif key in FIELDS:
            fm.match.add(_parse_match_field(key, value))
        else:
            raise UsageError(f"unknown token {t!r}")
    if not have_cmd:
        raise UsageError("flow-mod needs cmd=add|modify|delete|...")
    return dataclasses.replace(fm, instructions=instructions)


def _build_group_mod(tokens: list[str]) -> m.GroupMod:
    cmd = None
    gtype = m.OFPGT_ALL
    gid = None
    buckets = []
    for t in tokens:
        key, sep, value = t.partition("=")
        if not sep:
            raise UsageError(f"expected KEY=VALUE, got {t!r}")
        if key == "cmd":
            if value not in _GROUP_CMDS:
                raise UsageError(f"unknown group-mod cmd {value!r}")
            cmd = _GROUP_CMDS[value]
        elif key == "type":
            if value not in _GROUP_TYPES:
                raise UsageError(f"unknown group type {value!r}")
            gtype = _GROUP_TYPES[value]
        elif key == "group":
            gid = _int(t, value)
        elif key == "bucket":
            buckets.append(_parse_bucket(t, value))
        else:
            raise UsageError(f"unknown token {t!r}")
    if cmd is None or gid is None:
        raise UsageError("group-mod needs cmd=... and group=N")
    return m.GroupMod(cmd, gtype, gid, buckets)


def _parse_bucket(token: str, text: str) -> m.Bucket:
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


def _build_meter_mod(tokens: list[str]) -> m.MeterMod:
    cmd = None
    mid = None
    flags = m.OFPMF_KBPS
    bands = []
    for t in tokens:
        key, sep, value = t.partition("=")
        if not sep:
            raise UsageError(f"expected KEY=VALUE, got {t!r}")
        if key == "cmd":
            if value not in _METER_CMDS:
                raise UsageError(f"unknown meter-mod cmd {value!r}")
            cmd = _METER_CMDS[value]
        elif key == "meter":
            mid = _int(t, value)
        elif key == "flags":
            flags = _parse_flags(_METER_FLAGS, value, "meter flag")
        elif key == "band":
            parts = value.split(":")
            if parts[0] == "drop":
                if len(parts) < 2:
                    raise UsageError(f"{t!r}: band=drop:RATE[:BURST]")
                bands.append(m.DropBand(_int(t, parts[1]),
                                        _int(t, parts[2]) if len(parts) > 2 else 0))
            elif parts[0] == "dscp_remark":
                if len(parts) < 2:
                    raise UsageError(f"{t!r}: band=dscp_remark:RATE[:BURST][:PREC]")
                bands.append(m.DscpRemarkBand(
                    _int(t, parts[1]),
                    _int(t, parts[2]) if len(parts) > 2 else 0,
                    _int(t, parts[3]) if len(parts) > 3 else 1,
                ))
            else:
                raise UsageError(f"unknown band kind {parts[0]!r}")
        else:
            raise UsageError(f"unknown token {t!r}")
    if cmd is None or mid is None:
        raise UsageError("meter-mod needs cmd=... and meter=N")
    return m.MeterMod(cmd, flags, mid, bands)


def _build_pkt_template(tokens: list[str]):
    opts = []
    tmpl_id = None
    data = None
    egress = (EGRESS_IN_PORT,)
    slots = []
    for t in tokens:
        key, sep, value = t.partition("=")
        if not sep:
            raise UsageError(f"expected KEY=VALUE, got {t!r}")
        if key == "id":
            tmpl_id = _int(t, value)
        elif key == "data":
            try:
                data = bytes.fromhex(value)
            except ValueError:
                raise UsageError(f"{t!r}: data must be hex") from None
        elif key == "egress":
            if value == "in_port":
                egress = (EGRESS_IN_PORT,)
            elif value == "pipeline":
                egress = (EGRESS_PIPELINE,)
            elif value.startswith("port:"):
                egress = (EGRESS_PORT, _int(t, value[5:]))
            else:
                raise UsageError(f"{t!r}: egress=port:N|in_port|pipeline")
        elif key == "slot":
            off_text, sep2, field_name = value.partition(":")
            if not sep2 or field_name not in FIELDS:
                raise UsageError(f"{t!r}: slot=OFFSET:FIELD")
            slots.append(TemplateSlot(_int(t, off_text), field_name))
        else:
            raise UsageError(f"unknown token {t!r}")
    if tmpl_id is None or data is None:
        raise UsageError("pkt-template needs id=N and data=HEX")
    tmpl = PacketTemplate(tmpl_id, data, slots, egress)
    tmpl.validate()
    return encode_pkt_template(tmpl)


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
