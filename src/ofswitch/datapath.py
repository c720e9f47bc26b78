"""The packet-forwarding engine: flow tables, group table, meter table,
instruction and action execution.

A datapath instance is single-threaded by contract: packets, control
messages and timer ticks must be serialized by the caller.  Time comes from
an injected monotonic clock so tests and the harness are deterministic.

``Datapath._output`` is the one egress path: output actions, group buckets,
template egress and packet-out all hand it a port number and a frame, and
only it adds frames to a ``PipelineResult``.  Group buckets and re-entries
through ``OFPP_TABLE`` share one nesting budget, ``MAX_DEPTH``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from . import messages as m
from .errors import (
    BadInstruction,
    BadOutGroup,
    BadTable,
    BadTableId,
    BadTemplate,
    FieldAbsent,
    OverlapError,
    ParseError,
    PopEmpty,
)
from .flowtable import FlowEntry, FlowTable
from .groups import GroupTable
from .meters import MeterTable
from .pkt import edit as pkt_edit
from .pkt.parse import PacketHandle, parse as parse_packet
from .ports import PortRegistry
from .stateful import (
    PacketTemplate,
    SetStateEntry,
    StateTable,
    StateTableConfig,
    decode_experimenter,
)

DEFAULT_N_TABLES = 64
MAX_DEPTH = 16  # how deep group buckets and OFPP_TABLE re-entries may nest

# the output port of each template egress kind other than "port"
_TEMPLATE_PORT = {"in_port": m.OFPP_IN_PORT, "pipeline": m.OFPP_TABLE}


@dataclass
class PacketInEvent:
    reason: int
    table_id: int
    frame: bytes
    in_port: int
    cookie: int = 0


@dataclass
class PipelineResult:
    egress: list = field(default_factory=list)       # (port_no, frame bytes)
    packet_ins: list = field(default_factory=list)   # PacketInEvent
    dropped: bool = False


# execution order of the accumulated action set: pops, pushes, field
# rewrites, then group/output last (group suppresses output)
_SET_STAGE = {
    m.PopVlanAction: 1,
    m.PopMplsAction: 1,
    m.PushMplsAction: 2,
    m.PushVlanAction: 3,
    m.SetFieldAction: 5,
    m.SetStateAction: 6,
    m.PktGenAction: 6,
    m.ExperimenterAction: 6,
    m.GroupAction: 8,
    m.OutputAction: 9,
}


def _forwarding(entries: list[FlowEntry], out_port: int, out_group: int) -> list[FlowEntry]:
    """The entries that hold an output action to ``out_port`` and a group
    action to ``out_group``, as flow stats and deletes ask (OpenFlow 1.3
    §A.3.4.1); ``OFPP_ANY`` and ``OFPG_ANY`` ask for nothing."""
    if out_port == m.OFPP_ANY and out_group == m.OFPG_ANY:
        return entries
    out = []
    for e in entries:
        actions = [a for i in e.instructions if isinstance(i, (m.ApplyActions, m.WriteActions))
                   for a in i.actions]
        ports = {a.port for a in actions if isinstance(a, m.OutputAction)}
        if ((out_port == m.OFPP_ANY or out_port in ports)
                and (out_group == m.OFPG_ANY or m.GroupAction(out_group) in actions)):
            out.append(e)
    return out


class Datapath:
    def __init__(self, datapath_id: int = 1, n_tables: int = DEFAULT_N_TABLES,
                 clock=None, n_buffers: int = 0):
        if not 1 <= n_tables <= 255:
            raise BadTableId(f"table count {n_tables} out of range")
        self.datapath_id = datapath_id
        self.n_tables = n_tables
        self.n_buffers = n_buffers
        self.clock = clock if clock is not None else _time.monotonic
        self.tables = [FlowTable(i) for i in range(n_tables)]
        self.groups = GroupTable()
        self.meters = MeterTable(self.clock)
        self.ports = PortRegistry()
        self.state_tables: dict[int, StateTable] = {}
        self.templates: dict[int, PacketTemplate] = {}
        self._seq = 0
        self._cur_table = 0  # table of the entry being executed (single-threaded)
        # outcome counters: every processed packet lands in exactly one
        self.packets_processed = 0
        self.packets_dropped = 0
        self.packets_egressed = 0
        self.packets_to_controller = 0
        self.packet_in_sink = None     # callable(PacketInEvent)
        self.flow_removed_sink = None  # callable(FlowEntry, reason, table_id)

    # -- control-plane operations ------------------------------------------------

    def _table(self, table_id: int) -> FlowTable:
        if not 0 <= table_id < self.n_tables:
            raise BadTableId(f"table {table_id} out of range (n_tables={self.n_tables})")
        return self.tables[table_id]

    def flow_mod(self, fm: m.FlowMod) -> None:
        cmd = fm.command
        if cmd == m.OFPFC_ADD:
            table = self._table(fm.table_id)
            fm.match.validate_prerequisites()
            now = self.clock()
            entry = FlowEntry(
                match=fm.match,
                priority=fm.priority,
                instructions=fm.instructions,
                idle_timeout=fm.idle_timeout,
                hard_timeout=fm.hard_timeout,
                cookie=fm.cookie,
                flags=fm.flags,
                insertion_seq=self._next_seq(),
                install_time=now,
                last_match_time=now,
            )
            entry.validate_instructions(fm.table_id, self.n_tables)
            self._check_references(fm.instructions)
            if fm.flags & m.OFPFF_CHECK_OVERLAP:
                other = table.find_overlap(fm.match, fm.priority)
                if other is not None:
                    raise OverlapError(
                        f"overlaps entry priority={other.priority} in table {fm.table_id}"
                    )
            table.insert(entry)
            return
        if cmd in (m.OFPFC_MODIFY, m.OFPFC_MODIFY_STRICT):
            table = self._table(fm.table_id)
            strict = cmd == m.OFPFC_MODIFY_STRICT
            FlowEntry(fm.match, fm.priority, fm.instructions).validate_instructions(
                fm.table_id, self.n_tables)
            self._check_references(fm.instructions)
            for e in table.select(fm.match, strict, fm.priority, fm.cookie, fm.cookie_mask):
                e.instructions = fm.instructions
            return
        if cmd in (m.OFPFC_DELETE, m.OFPFC_DELETE_STRICT):
            strict = cmd == m.OFPFC_DELETE_STRICT
            if fm.table_id == m.OFPTT_ALL and not strict:
                tables = self.tables
            else:
                tables = [self._table(fm.table_id)]
            for table in tables:
                if not table.entries:
                    continue
                for e in _forwarding(table.select(fm.match, strict, fm.priority, fm.cookie,
                                                  fm.cookie_mask), fm.out_port, fm.out_group):
                    table.remove(e)
                    self._notify_removed(e, m.OFPRR_DELETE, table.table_id)
            return
        raise BadInstruction(f"unknown flow-mod command {cmd}")

    def _check_references(self, instructions) -> None:
        """Raise when an instruction names a group, meter, packet template
        or state table that does not exist, so no packet can meet it."""
        for ins in instructions:
            if isinstance(ins, m.MeterInstruction):
                self.meters.get(ins.meter_id)
            elif isinstance(ins, (m.ApplyActions, m.WriteActions)):
                for a in ins.actions:
                    if isinstance(a, m.GroupAction) and a.group_id not in self.groups.groups:
                        raise BadOutGroup(f"group {a.group_id} does not exist")
                    if isinstance(a, m.PktGenAction) and a.template_id not in self.templates:
                        raise BadTemplate(f"template {a.template_id} is not registered")
                    if isinstance(a, m.SetStateAction):
                        self._state_table(a.table_id)

    def group_mod(self, gm: m.GroupMod) -> None:
        self.groups.modify(gm.command, gm.group_id, gm.group_type, gm.buckets)

    def meter_mod(self, mm: m.MeterMod) -> None:
        self.meters.modify(mm.command, mm.meter_id, mm.flags, mm.bands)

    def expire(self, now: float | None = None) -> list[FlowEntry]:
        """Remove timed-out flow entries and apply due state rollbacks.
        Returns the removed flow entries (the sink hears of flagged ones)."""
        now = self.clock() if now is None else now
        removed = []
        for table in self.tables:
            for e in table.expired_entries(now):
                reason = e.expiry_reason(now)
                table.remove(e)
                removed.append(e)
                self._notify_removed(e, reason, table.table_id)
        for st in self.state_tables.values():
            st.expire(now)
        return removed

    def _notify_removed(self, entry: FlowEntry, reason: int, table_id: int) -> None:
        if self.flow_removed_sink and entry.flags & m.OFPFF_SEND_FLOW_REM:
            self.flow_removed_sink(entry, reason, table_id)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- stateful configuration ----------------------------------------------------

    def configure_state_table(self, cfg: StateTableConfig) -> None:
        if not 0 <= cfg.table_id < self.n_tables:
            raise BadTable(f"table {cfg.table_id} out of range")
        self.state_tables[cfg.table_id] = StateTable(cfg)

    def _state_table(self, table_id: int) -> StateTable:
        st = self.state_tables.get(table_id)
        if st is None:
            raise BadTable(f"table {table_id} is not configured stateful")
        return st

    def set_state_entry(self, table_id: int, key: bytes, state: int,
                        idle_timeout=0, idle_rollback=0,
                        hard_timeout=0, hard_rollback=0) -> None:
        action = m.SetStateAction(table_id, state, idle_timeout, idle_rollback,
                                  hard_timeout, hard_rollback)
        self._state_table(table_id).set_state(key, action, self.clock())

    def del_state_entry(self, table_id: int, key: bytes) -> None:
        self._state_table(table_id).delete(key)

    def register_template(self, tmpl: PacketTemplate) -> None:
        tmpl.validate()
        self.templates[tmpl.template_id] = tmpl

    def apply_experimenter(self, body: m.Experimenter) -> bool:
        """Apply a stateful-control experimenter message; False if foreign."""
        cmd = decode_experimenter(body)
        if cmd is None:
            return False
        if isinstance(cmd, StateTableConfig):
            self.configure_state_table(cmd)
        elif isinstance(cmd, PacketTemplate):
            self.register_template(cmd)
        elif isinstance(cmd, SetStateEntry):
            self._state_table(cmd.action.table_id).set_state(cmd.key, cmd.action, self.clock())
        else:
            self.del_state_entry(cmd.table_id, cmd.key)
        return True

    # -- data plane ------------------------------------------------------------------

    def receive_packet(self, port_no: int, frame: bytes) -> PipelineResult | None:
        """Entry point for frames arriving on a port; transmits the results."""
        port = self.ports.get(port_no)
        if not port.link_up:
            port.rx_dropped += 1
            return None
        port.rx_packets += 1
        port.rx_bytes += len(frame)
        try:
            handle = parse_packet(frame, port_no)
        except ParseError:
            port.rx_dropped += 1
            return None
        res = self.process_packet(handle)
        self.transmit(res)
        return res

    def transmit(self, res: PipelineResult) -> None:
        for port_no, frame in res.egress:
            self.ports.get(port_no).transmit(frame)
        if self.packet_in_sink:
            for ev in res.packet_ins:
                self.packet_in_sink(ev)

    def process_packet(self, handle: PacketHandle) -> PipelineResult:
        """Run one parsed packet through the pipeline, starting at table 0."""
        now = self.clock()
        self.packets_processed += 1
        res = PipelineResult()
        self._walk_tables(handle, res, now, 0)
        self._account(res)
        return res

    def _account(self, res: PipelineResult) -> None:
        if res.egress:
            self.packets_egressed += 1
        elif res.packet_ins:
            self.packets_to_controller += 1
        else:
            res.dropped = True
            self.packets_dropped += 1

    def _walk_tables(self, handle, res, now, depth: int) -> None:
        table_id = 0
        action_set: dict = {}  # one action per slot, in order of last write
        for _ in range(self.n_tables + 1):
            st = self.state_tables.get(table_id)
            if st is not None:
                state = st.lookup(handle.fields, now)
                handle.fields["state"] = state.to_bytes(4, "big")
            self._cur_table = table_id
            entry = self.tables[table_id].lookup(handle.fields, now, len(handle))
            if entry is None:
                return  # table miss without a miss entry: drop
            next_table = None
            for ins in entry.instructions:
                if isinstance(ins, m.ApplyActions):
                    if self._execute_actions(ins.actions, handle, res, entry, now, depth):
                        return
                elif isinstance(ins, m.WriteActions):
                    for a in ins.actions:
                        slot = ((m.SetFieldAction, a.field.oxm_class, a.field.field_id)
                                if isinstance(a, m.SetFieldAction) else type(a))
                        action_set.pop(slot, None)
                        action_set[slot] = a
                elif isinstance(ins, m.ClearActions):
                    action_set.clear()
                elif isinstance(ins, m.WriteMetadata):
                    handle.metadata = (handle.metadata & ~ins.mask) | (ins.metadata & ins.mask)
                    handle.fields["metadata"] = handle.metadata.to_bytes(8, "big")
                elif isinstance(ins, m.MeterInstruction):
                    outcome = self.meters.apply(ins.meter_id, len(handle), now)
                    if outcome.kind == "drop":
                        return
                    if outcome.kind == "remark":
                        self._remark_dscp(handle, outcome.prec_level)
                elif isinstance(ins, m.GotoTable):
                    next_table = ins.table_id
            if next_table is None:
                break
            table_id = next_table
        if action_set:
            if m.GroupAction in action_set:
                action_set.pop(m.OutputAction, None)
            actions = sorted(action_set.values(), key=lambda a: _SET_STAGE.get(type(a), 7))
            self._execute_actions(actions, handle, res, entry, now, depth)

    def _remark_dscp(self, handle, prec_level: int) -> None:
        raw = handle.fields.get("ip_dscp")
        if raw is None:
            return
        dscp = raw[0]
        af_class, prec = dscp >> 3, (dscp >> 1) & 0x03
        if 1 <= af_class <= 4 and 1 <= prec <= 3:  # assured-forwarding code points
            prec = min(3, prec + prec_level)
            try:
                pkt_edit.apply_set_field(handle, "ip_dscp", (af_class << 3) | (prec << 1))
            except FieldAbsent:
                pass

    def _execute_actions(self, actions, handle, res, entry, now, depth: int) -> bool:
        """Run a list of actions; returns True when the packet must stop
        (a pkt-gen action with the stop flag consumed it)."""
        for a in actions:
            if isinstance(a, m.OutputAction):
                self._output(a.port, bytes(handle.buffer), handle.in_port, res, entry, now, depth)
            elif isinstance(a, m.GroupAction):
                self._apply_group(a.group_id, handle, res, entry, now, depth)
            elif isinstance(a, m.SetFieldAction):
                name = a.field.name
                if name:
                    try:
                        pkt_edit.apply_set_field(handle, name, a.field.value)
                    except FieldAbsent:
                        pass  # set-field on an absent field is a no-op in the fast path
            elif isinstance(a, m.PushVlanAction):
                pkt_edit.push_tag(handle, "vlan", a.ethertype)
            elif isinstance(a, m.PopVlanAction):
                try:
                    pkt_edit.pop_tag(handle, "vlan")
                except PopEmpty:
                    pass
            elif isinstance(a, m.PushMplsAction):
                pkt_edit.push_tag(handle, "mpls", a.ethertype)
            elif isinstance(a, m.PopMplsAction):
                try:
                    pkt_edit.pop_tag(handle, "mpls", a.ethertype)
                except PopEmpty:
                    pass
            elif isinstance(a, m.SetStateAction):
                self._do_set_state(a, handle, now)
            elif isinstance(a, m.PktGenAction):
                tmpl = self.templates.get(a.template_id)
                if tmpl is None:
                    raise BadTemplate(f"template {a.template_id} is not registered")
                kind = tmpl.egress[0]
                port_no = tmpl.egress[1] if kind == "port" else _TEMPLATE_PORT[kind]
                self._output(port_no, tmpl.instantiate(handle.fields), handle.in_port,
                             res, entry, now, depth)
                if a.stop_processing:
                    return True
            # unknown experimenter actions are ignored
        return False

    def _do_set_state(self, a: m.SetStateAction, handle, now: float) -> None:
        st = self._state_table(a.table_id)
        scope = st.config.lookup_scope if a.use_lookup_scope else st.config.update_scope
        key = st.extract_key(handle.fields, scope)
        if key is None:
            st.key_miss_count += 1
            return
        st.set_state(key, a, now)

    def _output(self, port_no: int, frame: bytes, in_port: int, res, entry, now,
                depth: int) -> None:
        """Send ``frame`` to ``port_no``; the only code that fills ``res``.

        Reserved ports resolve here.  ``OFPP_TABLE`` parses the frame again
        and walks it from table 0 one level deeper.  An absent port, an
        unsupported reserved port and a re-entry past ``MAX_DEPTH`` drop."""
        if port_no == m.OFPP_CONTROLLER:
            reason = m.OFPR_NO_MATCH if entry is not None and entry.is_table_miss() else m.OFPR_ACTION
            cookie = entry.cookie if entry is not None else 0
            res.packet_ins.append(PacketInEvent(reason, self._cur_table, frame, in_port, cookie))
            return
        if port_no in (m.OFPP_FLOOD, m.OFPP_ALL):
            for p in self.ports:
                if p.link_up and (port_no == m.OFPP_ALL or p.port_no != in_port):
                    res.egress.append((p.port_no, frame))
            return
        if port_no == m.OFPP_TABLE:
            if depth < MAX_DEPTH:
                try:
                    handle = parse_packet(frame, in_port)
                except ParseError:
                    return
                cur_table = self._cur_table
                self._walk_tables(handle, res, now, depth + 1)
                self._cur_table = cur_table
            return
        if port_no == m.OFPP_IN_PORT:
            port_no = in_port
        if self.ports.exists(port_no):
            res.egress.append((port_no, frame))

    def _apply_group(self, group_id, handle, res, entry, now, depth: int) -> None:
        if depth >= MAX_DEPTH:
            return
        g = self.groups.get(group_id)
        chosen = self.groups.choose(g, self.ports.is_live)
        if not chosen and g.group_type != m.OFPGT_ALL:
            g.no_bucket_drops += 1  # no live bucket: drop, no controller involved
            return
        size = len(handle)
        g.packet_count += 1
        g.byte_count += size
        copy = g.group_type == m.OFPGT_ALL
        for i in chosen:
            g.bucket_packet_counts[i] += 1
            g.bucket_byte_counts[i] += size
            self._execute_actions(g.buckets[i].actions, handle.clone() if copy else handle,
                                  res, entry, now, depth + 1)

    def packet_out(self, po: m.PacketOut) -> PipelineResult:
        """Inject a controller-supplied frame and run its action list."""
        now = self.clock()
        handle = parse_packet(po.payload, po.in_port)
        self.packets_processed += 1
        res = PipelineResult()
        self._execute_actions(po.actions, handle, res, None, now, 0)
        self._account(res)
        self.transmit(res)
        return res

    # -- stats ------------------------------------------------------------------------

    def flow_stats(self, req: m.FlowStatsRequest) -> list[m.FlowStats]:
        now = self.clock()
        if req.table_id == m.OFPTT_ALL:
            tables = self.tables
        else:
            tables = [self._table(req.table_id)]
        out = []
        for table in tables:
            if not table.entries:
                continue
            for e in _forwarding(table.select(req.match, False, cookie=req.cookie,
                                              cookie_mask=req.cookie_mask),
                                 req.out_port, req.out_group):
                dur = max(0.0, now - e.install_time)
                out.append(
                    m.FlowStats(
                        table.table_id, int(dur), int((dur % 1) * 1e9),
                        e.priority, e.idle_timeout, e.hard_timeout, e.flags,
                        e.cookie, e.packet_count, e.byte_count, e.match,
                        e.instructions,
                    )
                )
        return out

    def port_stats(self, req: m.PortStatsRequest) -> list[m.PortStats]:
        ports = self.ports.all() if req.port_no == m.OFPP_ANY else [self.ports.get(req.port_no)]
        return [
            m.PortStats(
                p.port_no, p.rx_packets, p.tx_packets, p.rx_bytes, p.tx_bytes,
                p.rx_dropped, p.tx_dropped,
            )
            for p in ports
        ]

    def port_desc(self) -> list[m.PortDesc]:
        return [
            m.PortDesc(p.port_no, p.hw_addr, p.name, 0, 0 if p.link_up else 1)
            for p in self.ports
        ]

    def group_stats(self, req: m.GroupStatsRequest) -> list[m.GroupStats]:
        if req.group_id == m.OFPG_ALL:
            groups = [self.groups.groups[g] for g in sorted(self.groups.groups)]
        else:
            groups = [self.groups.get(req.group_id)]
        return [
            m.GroupStats(
                g.group_id, 0, g.packet_count, g.byte_count,
                tuple(zip(g.bucket_packet_counts, g.bucket_byte_counts)),
            )
            for g in groups
        ]

    def meter_stats(self, req: m.MeterStatsRequest) -> list[m.MeterStats]:
        if req.meter_id == 0xFFFFFFFF:
            meters = [self.meters.meters[k] for k in sorted(self.meters.meters)]
        else:
            meters = [self.meters.get(req.meter_id)]
        flows: dict[int, int] = {}  # meter id -> flow entries that use it
        for table in self.tables:
            for e in table.entries:
                for mid in {i.meter_id for i in e.instructions
                            if isinstance(i, m.MeterInstruction)}:
                    flows[mid] = flows.get(mid, 0) + 1
        return [
            m.MeterStats(e.meter_id, flows.get(e.meter_id, 0), e.packet_in_count,
                         e.byte_in_count)
            for e in meters
        ]

    def state_stats(self, table_id: int) -> m.StateStats:
        st = self._state_table(table_id)
        return m.StateStats(table_id, tuple(st.dump(self.clock())))
