"""OpenFlow 1.3 wire codec: pack, unpack and stream framing.

All multi-byte quantities are big-endian.  Each fixed-size layout is one
``struct.Struct`` that both directions use.  ``unpack`` never reads past the
supplied buffer: every access goes through :class:`_Reader`, which raises
``BadLength`` on overrun.
"""

from __future__ import annotations

import struct

from . import messages as m
from .errors import (
    BadActionType,
    BadBandType,
    BadInstructionType,
    BadLength,
    BadMatch,
    BadMultipart,
    BadType,
    BadVersion,
    DesyncError,
    Unencodable,
)
from .oxm import (
    OFPXMC_EXPERIMENTER,
    STATE_EXPERIMENTER_ID,
    MatchSet,
    OxmField,
    field_by_key,
)

_HEADER = struct.Struct("!BBHI")  # version, type, length, xid
_TL = struct.Struct("!HH")  # type and length heading a match, action, instruction or band
_ID = struct.Struct("!I")  # group, meter or experimenter id


def _pad_to(n: int, align: int = 8) -> int:
    return (align - n % align) % align


class _Reader:
    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int = 0, end: int | None = None):
        self.data = data
        self.pos = pos
        self.end = len(data) if end is None else end

    def remaining(self) -> int:
        return self.end - self.pos

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > self.end:
            raise BadLength(f"need {n} bytes, {self.remaining()} remaining")
        b = self.data[self.pos:self.pos + n]
        self.pos += n
        return b

    def read(self, layout: struct.Struct) -> tuple:
        """Unpack exactly ``layout.size`` bytes."""
        pos = self.pos
        if pos + layout.size > self.end:
            raise BadLength(f"need {layout.size} bytes, {self.remaining()} remaining")
        self.pos = pos + layout.size
        return layout.unpack_from(self.data, pos)

    def sub(self, n: int) -> "_Reader":
        if self.pos + n > self.end:
            raise BadLength("nested structure overruns buffer")
        r = _Reader(self.data, self.pos, self.pos + n)
        self.pos += n
        return r


def _tlv(t: int, body: bytes) -> bytes:
    """Prefix ``body`` with a type and a length that counts the prefix."""
    return _TL.pack(t, _TL.size + len(body)) + body


# -- OXM / match -----------------------------------------------------------------

_OXM_HEADER = struct.Struct("!HBB")  # class, field id << 1 | hasmask, payload length


def encode_oxm(f: OxmField) -> bytes:
    body = f.value + (f.mask or b"")
    if f.oxm_class == OFPXMC_EXPERIMENTER:
        body = STATE_EXPERIMENTER_ID.to_bytes(4, "big") + body
    hdr = _OXM_HEADER.pack(
        f.oxm_class, (f.field_id << 1) | (1 if f.has_mask else 0), len(body)
    )
    return hdr + body


def decode_oxm(r: _Reader) -> OxmField:
    oxm_class, fh, length = r.read(_OXM_HEADER)
    field_id = fh >> 1
    has_mask = bool(fh & 1)
    body = r.take(length)
    if oxm_class == OFPXMC_EXPERIMENTER:
        if length < 4:
            raise BadMatch("experimenter OXM shorter than its id")
        exp_id = int.from_bytes(body[:4], "big")
        if exp_id != STATE_EXPERIMENTER_ID:
            raise BadMatch(f"unknown experimenter OXM id {exp_id:#x}")
        body = body[4:]
    t = field_by_key(oxm_class, field_id)
    if t is None:
        raise BadMatch(f"unknown OXM field class={oxm_class:#x} id={field_id}")
    vlen = t.nbytes
    if has_mask:
        if len(body) != 2 * vlen:
            raise BadMatch(f"{t.name}: masked OXM payload length {len(body)} != {2*vlen}")
        return OxmField(t.oxm_class, field_id, body[:vlen], body[vlen:])
    if len(body) != vlen:
        raise BadMatch(f"{t.name}: OXM payload length {len(body)} != {vlen}")
    return OxmField(t.oxm_class, field_id, body)  # the registry's int, shared by every field


def encode_match(match: MatchSet) -> bytes:
    oxms = b"".join(encode_oxm(f) for f in match)
    length = 4 + len(oxms)  # type + length + fields, excluding pad
    return _TL.pack(1, length) + oxms + b"\x00" * _pad_to(length)


def decode_match(r: _Reader) -> MatchSet:
    match_type, length = r.read(_TL)
    if match_type != 1:
        raise BadMatch(f"unsupported match type {match_type}")
    if length < 4:
        raise BadLength("match length below minimum")
    body = r.sub(length - 4)
    ms = MatchSet()
    while body.remaining() > 0:
        ms.add(decode_oxm(body))
    r.take(_pad_to(length))
    return ms


# -- actions -----------------------------------------------------------------------

OFPAT_OUTPUT = 0
OFPAT_PUSH_VLAN = 17
OFPAT_POP_VLAN = 18
OFPAT_PUSH_MPLS = 19
OFPAT_POP_MPLS = 20
OFPAT_GROUP = 22
OFPAT_SET_FIELD = 25
OFPAT_EXPERIMENTER = 0xFFFF

_EXPACT_SET_STATE = 1
_EXPACT_PKT_GEN = 2

_OUTPUT = struct.Struct("!IH6x")  # port, max_len
_ETHERTYPE = struct.Struct("!H2x")  # of a push or pop action
_EXPACT_SUBTYPE = struct.Struct("!H")
_SET_STATE = struct.Struct("!BBIIIII")  # flags, then the SetStateAction fields
_PKT_GEN = struct.Struct("!BxI")  # flags, template id


def _experimenter_action(exp_id: int, payload: bytes) -> bytes:
    return _tlv(OFPAT_EXPERIMENTER, _ID.pack(exp_id) + payload)


def encode_action(a) -> bytes:
    if isinstance(a, m.OutputAction):
        return _tlv(OFPAT_OUTPUT, _OUTPUT.pack(a.port, a.max_len))
    if isinstance(a, m.GroupAction):
        return _tlv(OFPAT_GROUP, _ID.pack(a.group_id))
    if isinstance(a, m.PushVlanAction):
        return _tlv(OFPAT_PUSH_VLAN, _ETHERTYPE.pack(a.ethertype))
    if isinstance(a, m.PopVlanAction):
        return _tlv(OFPAT_POP_VLAN, bytes(4))
    if isinstance(a, m.PushMplsAction):
        return _tlv(OFPAT_PUSH_MPLS, _ETHERTYPE.pack(a.ethertype))
    if isinstance(a, m.PopMplsAction):
        return _tlv(OFPAT_POP_MPLS, _ETHERTYPE.pack(a.ethertype))
    if isinstance(a, m.SetFieldAction):
        oxm = encode_oxm(a.field)
        return _tlv(OFPAT_SET_FIELD, oxm + b"\x00" * _pad_to(4 + len(oxm)))
    if isinstance(a, m.SetStateAction):
        payload = _EXPACT_SUBTYPE.pack(_EXPACT_SET_STATE) + _SET_STATE.pack(
            1 if a.use_lookup_scope else 0,
            a.table_id,
            a.next_state,
            a.idle_timeout,
            a.idle_rollback,
            a.hard_timeout,
            a.hard_rollback,
        )
        return _experimenter_action(STATE_EXPERIMENTER_ID, payload)
    if isinstance(a, m.PktGenAction):
        payload = _EXPACT_SUBTYPE.pack(_EXPACT_PKT_GEN) + _PKT_GEN.pack(
            1 if a.stop_processing else 0, a.template_id)
        return _experimenter_action(STATE_EXPERIMENTER_ID, payload)
    if isinstance(a, m.ExperimenterAction):
        if len(a.payload) % 8:
            raise Unencodable("experimenter action payload must pad to 8 bytes")
        return _experimenter_action(a.experimenter_id, a.payload)
    raise Unencodable(f"cannot encode action {a!r}")


def _decode_state_action(r: _Reader):
    (subtype,) = r.read(_EXPACT_SUBTYPE)
    if subtype == _EXPACT_SET_STATE:
        flags, table_id, next_state, idle_t, idle_rb, hard_t, hard_rb = r.read(_SET_STATE)
        return m.SetStateAction(
            table_id, next_state, idle_t, idle_rb, hard_t, hard_rb, bool(flags & 1)
        )
    if subtype == _EXPACT_PKT_GEN:
        flags, template_id = r.read(_PKT_GEN)
        return m.PktGenAction(template_id, bool(flags & 1))
    return None


def decode_action(r: _Reader):
    a_type, length = r.read(_TL)
    if length < 8 or length % 8:
        raise BadLength(f"action length {length} invalid")
    body = r.sub(length - 4)
    if a_type == OFPAT_OUTPUT:
        return m.OutputAction(*body.read(_OUTPUT))
    if a_type == OFPAT_GROUP:
        return m.GroupAction(*body.read(_ID))
    if a_type == OFPAT_PUSH_VLAN:
        return m.PushVlanAction(*body.read(_ETHERTYPE))
    if a_type == OFPAT_POP_VLAN:
        return m.PopVlanAction()
    if a_type == OFPAT_PUSH_MPLS:
        return m.PushMplsAction(*body.read(_ETHERTYPE))
    if a_type == OFPAT_POP_MPLS:
        return m.PopMplsAction(*body.read(_ETHERTYPE))
    if a_type == OFPAT_SET_FIELD:
        return m.SetFieldAction(decode_oxm(body))
    if a_type == OFPAT_EXPERIMENTER:
        (exp_id,) = body.read(_ID)
        payload = body.take(body.remaining())
        if exp_id == STATE_EXPERIMENTER_ID:
            decoded = _decode_state_action(_Reader(payload))
            if decoded is not None:
                return decoded
        return m.ExperimenterAction(exp_id, payload)
    raise BadActionType(f"unknown action type {a_type}")


def _decode_actions(r: _Reader) -> list:
    actions = []
    while r.remaining() > 0:
        actions.append(decode_action(r))
    return actions


# -- instructions ---------------------------------------------------------------------

OFPIT_GOTO_TABLE = 1
OFPIT_WRITE_METADATA = 2
OFPIT_WRITE_ACTIONS = 3
OFPIT_APPLY_ACTIONS = 4
OFPIT_CLEAR_ACTIONS = 5
OFPIT_METER = 6

_GOTO_TABLE = struct.Struct("!B3x")
_WRITE_METADATA = struct.Struct("!4xQQ")  # metadata, mask


def encode_instruction(ins) -> bytes:
    if isinstance(ins, m.GotoTable):
        return _tlv(OFPIT_GOTO_TABLE, _GOTO_TABLE.pack(ins.table_id))
    if isinstance(ins, m.WriteMetadata):
        return _tlv(OFPIT_WRITE_METADATA, _WRITE_METADATA.pack(ins.metadata, ins.mask))
    if isinstance(ins, (m.WriteActions, m.ApplyActions)):
        t = OFPIT_WRITE_ACTIONS if isinstance(ins, m.WriteActions) else OFPIT_APPLY_ACTIONS
        acts = b"".join(encode_action(a) for a in ins.actions)
        return _tlv(t, b"\x00" * 4 + acts)
    if isinstance(ins, m.ClearActions):
        return _tlv(OFPIT_CLEAR_ACTIONS, b"\x00" * 4)
    if isinstance(ins, m.MeterInstruction):
        return _tlv(OFPIT_METER, _ID.pack(ins.meter_id))
    raise Unencodable(f"cannot encode instruction {ins!r}")


def decode_instruction(r: _Reader):
    i_type, length = r.read(_TL)
    if length < 8:
        raise BadLength(f"instruction length {length} below minimum")
    body = r.sub(length - 4)
    if i_type == OFPIT_GOTO_TABLE:
        return m.GotoTable(*body.read(_GOTO_TABLE))
    if i_type == OFPIT_WRITE_METADATA:
        return m.WriteMetadata(*body.read(_WRITE_METADATA))
    if i_type == OFPIT_WRITE_ACTIONS:
        body.take(4)
        return m.WriteActions(_decode_actions(body))
    if i_type == OFPIT_APPLY_ACTIONS:
        body.take(4)
        return m.ApplyActions(_decode_actions(body))
    if i_type == OFPIT_CLEAR_ACTIONS:
        return m.ClearActions()
    if i_type == OFPIT_METER:
        return m.MeterInstruction(*body.read(_ID))
    raise BadInstructionType(f"unknown instruction type {i_type}")


def _decode_instructions(r: _Reader) -> list:
    out = []
    while r.remaining() > 0:
        out.append(decode_instruction(r))
    return out


# -- buckets / bands -------------------------------------------------------------------

_BUCKET = struct.Struct("!HHII4x")  # length, weight, watch port, watch group
_DROP_BAND = struct.Struct("!II4x")  # rate, burst
_DSCP_REMARK_BAND = struct.Struct("!IIB3x")  # rate, burst, prec level


def encode_bucket(b: m.Bucket) -> bytes:
    acts = b"".join(encode_action(a) for a in b.actions)
    return _BUCKET.pack(_BUCKET.size + len(acts), b.weight, b.watch_port, b.watch_group) + acts


def decode_bucket(r: _Reader) -> m.Bucket:
    length, weight, watch_port, watch_group = r.read(_BUCKET)
    if length < _BUCKET.size:
        raise BadLength(f"bucket length {length} below minimum")
    actions = _decode_actions(r.sub(length - _BUCKET.size))
    return m.Bucket(actions, weight, watch_port, watch_group)


def encode_band(b) -> bytes:
    if isinstance(b, m.DropBand):
        return _tlv(m.OFPMBT_DROP, _DROP_BAND.pack(b.rate, b.burst))
    if isinstance(b, m.DscpRemarkBand):
        return _tlv(m.OFPMBT_DSCP_REMARK, _DSCP_REMARK_BAND.pack(b.rate, b.burst, b.prec_level))
    raise Unencodable(f"cannot encode band {b!r}")


def decode_band(r: _Reader):
    b_type, length = r.read(_TL)
    if length < 16:
        raise BadLength(f"band length {length} below minimum")
    body = r.sub(length - 4)
    if b_type == m.OFPMBT_DROP:
        return m.DropBand(*body.read(_DROP_BAND))
    if b_type == m.OFPMBT_DSCP_REMARK:
        return m.DscpRemarkBand(*body.read(_DSCP_REMARK_BAND))
    raise BadBandType(f"unknown meter band type {b_type}")


# -- body packers ------------------------------------------------------------------------

_ERROR = struct.Struct("!HH")  # type, code
_EXPERIMENTER = struct.Struct("!II")  # experimenter id, exp type
_FEATURES_REPLY = struct.Struct("!QIBB2xI4x")
_PACKET_IN = struct.Struct("!IHBBQ")
_FLOW_REMOVED = struct.Struct("!QHBBIIHHQQ")  # the FlowRemoved fields up to the match
_PACKET_OUT = struct.Struct("!IIH6x")  # buffer id, in port, actions length
_FLOW_MOD = struct.Struct("!QQBBHHHIIIH2x")
_GROUP_MOD = struct.Struct("!HBxI")
_METER_MOD = struct.Struct("!HHI")
_MULTIPART = struct.Struct("!HH4x")  # kind, flags
_FLOW_STATS_REQUEST = struct.Struct("!B3xII4xQQ")  # the FlowStatsRequest fields up to the match
_ID_REQUEST = struct.Struct("!I4x")  # port, group or meter stats request
_STATE_STATS_REQUEST = struct.Struct("!B7x")  # table id
_FLOW_STATS = struct.Struct("!HBxIIHHHH4xQQQ")  # length, the FlowStats fields up to the match
_PORT_STATS = struct.Struct("!I4x12QII")
_GROUP_STATS = struct.Struct("!H2xII4xQQII")
_BUCKET_COUNTER = struct.Struct("!QQ")  # packets, bytes
_METER_STATS = struct.Struct("!IH6xIQQII")
_PORT_DESC = struct.Struct("!I4x6s2x16s8I")
_STATE_STATS = struct.Struct("!B3xI")  # table id, entry count
_STATE_ENTRY = struct.Struct("!H2xI")  # key length, state


def _pack_body(body) -> bytes:
    if isinstance(body, m.Hello):
        return b""
    if isinstance(body, m.Error):
        return _ERROR.pack(body.err_type, body.code) + body.data
    if isinstance(body, (m.EchoRequest, m.EchoReply)):
        return body.payload
    if isinstance(body, m.Experimenter):
        return _EXPERIMENTER.pack(body.experimenter_id, body.exp_type) + body.payload
    if isinstance(body, m.FeaturesRequest):
        return b""
    if isinstance(body, m.FeaturesReply):
        return _FEATURES_REPLY.pack(
            body.datapath_id,
            body.n_buffers,
            body.n_tables,
            body.aux_id,
            body.capabilities,
        )
    if isinstance(body, m.PacketIn):
        head = _PACKET_IN.pack(
            body.buffer_id, body.total_len, body.reason, body.table_id, body.cookie
        )
        return head + encode_match(body.match) + b"\x00\x00" + body.payload
    if isinstance(body, m.FlowRemoved):
        head = _FLOW_REMOVED.pack(
            body.cookie,
            body.priority,
            body.reason,
            body.table_id,
            body.duration_sec,
            body.duration_nsec,
            body.idle_timeout,
            body.hard_timeout,
            body.packet_count,
            body.byte_count,
        )
        return head + encode_match(body.match)
    if isinstance(body, m.PacketOut):
        acts = b"".join(encode_action(a) for a in body.actions)
        head = _PACKET_OUT.pack(body.buffer_id, body.in_port, len(acts))
        return head + acts + body.payload
    if isinstance(body, m.FlowMod):
        head = _FLOW_MOD.pack(
            body.cookie,
            body.cookie_mask,
            body.table_id,
            body.command,
            body.idle_timeout,
            body.hard_timeout,
            body.priority,
            body.buffer_id,
            body.out_port,
            body.out_group,
            body.flags,
        )
        ins = b"".join(encode_instruction(i) for i in body.instructions)
        return head + encode_match(body.match) + ins
    if isinstance(body, m.GroupMod):
        head = _GROUP_MOD.pack(body.command, body.group_type, body.group_id)
        return head + b"".join(encode_bucket(b) for b in body.buckets)
    if isinstance(body, m.MeterMod):
        head = _METER_MOD.pack(body.command, body.flags, body.meter_id)
        return head + b"".join(encode_band(b) for b in body.bands)
    if isinstance(body, m.MultipartRequest):
        return _MULTIPART.pack(body.kind, body.flags) + _pack_mp_request_body(body)
    if isinstance(body, m.MultipartReply):
        return _MULTIPART.pack(body.kind, body.flags) + _pack_mp_reply_body(body)
    if isinstance(body, m.Unsupported):
        return body.raw
    raise Unencodable(f"cannot encode body {type(body).__name__}")


def _pack_mp_request_body(mp: m.MultipartRequest) -> bytes:
    b = mp.body
    if mp.kind == m.OFPMP_FLOW:
        b = b or m.FlowStatsRequest()
        head = _FLOW_STATS_REQUEST.pack(
            b.table_id, b.out_port, b.out_group, b.cookie, b.cookie_mask
        )
        return head + encode_match(b.match)
    if mp.kind == m.OFPMP_PORT_STATS:
        b = b or m.PortStatsRequest()
        return _ID_REQUEST.pack(b.port_no)
    if mp.kind == m.OFPMP_GROUP:
        b = b or m.GroupStatsRequest()
        return _ID_REQUEST.pack(b.group_id)
    if mp.kind == m.OFPMP_METER:
        b = b or m.MeterStatsRequest()
        return _ID_REQUEST.pack(b.meter_id)
    if mp.kind == m.OFPMP_PORT_DESC:
        return b""
    if mp.kind == m.OFPMP_EXPERIMENTER:
        if isinstance(b, m.StateStatsRequest):
            return (_EXPERIMENTER.pack(STATE_EXPERIMENTER_ID, 1)
                    + _STATE_STATS_REQUEST.pack(b.table_id))
        if isinstance(b, bytes):
            return b
        raise Unencodable("experimenter multipart request needs a body")
    raise Unencodable(f"cannot encode multipart request kind {mp.kind}")


def _pack_flow_stats(fs: m.FlowStats) -> bytes:
    match = encode_match(fs.match)
    ins = b"".join(encode_instruction(i) for i in fs.instructions)
    length = _FLOW_STATS.size + len(match) + len(ins)
    head = _FLOW_STATS.pack(
        length,
        fs.table_id,
        fs.duration_sec,
        fs.duration_nsec,
        fs.priority,
        fs.idle_timeout,
        fs.hard_timeout,
        fs.flags,
        fs.cookie,
        fs.packet_count,
        fs.byte_count,
    )
    return head + match + ins


def _pack_mp_reply_body(mp: m.MultipartReply) -> bytes:
    if mp.kind == m.OFPMP_FLOW:
        return b"".join(_pack_flow_stats(fs) for fs in mp.body)
    if mp.kind == m.OFPMP_PORT_STATS:
        out = []
        for ps in mp.body:
            out.append(
                _PORT_STATS.pack(
                    ps.port_no,
                    ps.rx_packets,
                    ps.tx_packets,
                    ps.rx_bytes,
                    ps.tx_bytes,
                    ps.rx_dropped,
                    ps.tx_dropped,
                    ps.rx_errors,
                    ps.tx_errors,
                    0,
                    0,
                    0,
                    0,
                    ps.duration_sec,
                    ps.duration_nsec,
                )
            )
        return b"".join(out)
    if mp.kind == m.OFPMP_GROUP:
        out = []
        for gs in mp.body:
            buckets = b"".join(_BUCKET_COUNTER.pack(p, b) for (p, b) in gs.bucket_stats)
            out.append(
                _GROUP_STATS.pack(
                    _GROUP_STATS.size + len(buckets),
                    gs.group_id,
                    gs.ref_count,
                    gs.packet_count,
                    gs.byte_count,
                    0,
                    0,
                )
                + buckets
            )
        return b"".join(out)
    if mp.kind == m.OFPMP_METER:
        out = []
        for ms in mp.body:
            out.append(
                _METER_STATS.pack(
                    ms.meter_id,
                    _METER_STATS.size,
                    ms.flow_count,
                    ms.packet_in_count,
                    ms.byte_in_count,
                    0,
                    0,
                )
            )
        return b"".join(out)
    if mp.kind == m.OFPMP_PORT_DESC:
        out = []
        for pd in mp.body:
            name = pd.name.encode()[:15]
            out.append(
                _PORT_DESC.pack(
                    pd.port_no,
                    pd.hw_addr,
                    name,
                    pd.config,
                    pd.state,
                    0, 0, 0, 0,  # curr/advertised/supported/peer
                    0, 0,  # curr/max speed
                )
            )
        return b"".join(out)
    if mp.kind == m.OFPMP_EXPERIMENTER:
        b = mp.body
        if isinstance(b, m.StateStats):
            head = (_EXPERIMENTER.pack(STATE_EXPERIMENTER_ID, 1)
                    + _STATE_STATS.pack(b.table_id, len(b.entries)))
            chunks = [head]
            for key, state in b.entries:
                pad = _pad_to(_STATE_ENTRY.size + len(key))
                chunks.append(_STATE_ENTRY.pack(len(key), state) + key + b"\x00" * pad)
            return b"".join(chunks)
        if isinstance(b, bytes):
            return b
        raise Unencodable("experimenter multipart reply needs a body")
    raise Unencodable(f"cannot encode multipart reply kind {mp.kind}")


# -- body unpackers -----------------------------------------------------------------------

def _unpack_mp_request_body(kind: int, r: _Reader):
    if kind == m.OFPMP_FLOW:
        return m.FlowStatsRequest(*r.read(_FLOW_STATS_REQUEST), decode_match(r))
    if kind == m.OFPMP_PORT_STATS:
        return m.PortStatsRequest(*r.read(_ID_REQUEST))
    if kind == m.OFPMP_GROUP:
        return m.GroupStatsRequest(*r.read(_ID_REQUEST))
    if kind == m.OFPMP_METER:
        return m.MeterStatsRequest(*r.read(_ID_REQUEST))
    if kind == m.OFPMP_PORT_DESC:
        return None
    if kind == m.OFPMP_EXPERIMENTER:
        exp_id, exp_type = r.read(_EXPERIMENTER)
        if exp_id == STATE_EXPERIMENTER_ID and exp_type == 1:
            return m.StateStatsRequest(*r.read(_STATE_STATS_REQUEST))
        return _EXPERIMENTER.pack(exp_id, exp_type) + r.take(r.remaining())
    raise BadMultipart(f"unknown multipart kind {kind}")


def _unpack_flow_stats(r: _Reader) -> m.FlowStats:
    length, *fixed = r.read(_FLOW_STATS)
    if length < _FLOW_STATS.size:
        raise BadLength("flow stats entry below minimum")
    body = r.sub(length - _FLOW_STATS.size)
    return m.FlowStats(*fixed, decode_match(body), _decode_instructions(body))


def _unpack_mp_reply_body(kind: int, r: _Reader):
    if kind == m.OFPMP_FLOW:
        out = []
        while r.remaining() > 0:
            out.append(_unpack_flow_stats(r))
        return out
    if kind == m.OFPMP_PORT_STATS:
        out = []
        while r.remaining() > 0:
            port_no, *counters, dur, durn = r.read(_PORT_STATS)
            # frame, overrun and CRC errors and collisions are not modelled
            out.append(m.PortStats(port_no, *counters[:8], dur, durn))
        return out
    if kind == m.OFPMP_GROUP:
        out = []
        while r.remaining() > 0:
            length, gid, ref, pkts, byts, _dur, _durn = r.read(_GROUP_STATS)
            if length < _GROUP_STATS.size:
                raise BadLength("group stats entry below minimum")
            body = r.sub(length - _GROUP_STATS.size)
            buckets = []
            while body.remaining() >= _BUCKET_COUNTER.size:
                buckets.append(body.read(_BUCKET_COUNTER))
            out.append(m.GroupStats(gid, ref, pkts, byts, tuple(buckets)))
        return out
    if kind == m.OFPMP_METER:
        out = []
        while r.remaining() > 0:
            mid, length, flows, pkts, byts, _dur, _durn = r.read(_METER_STATS)
            if length < _METER_STATS.size:
                raise BadLength("meter stats entry below minimum")
            r.take(length - _METER_STATS.size)  # band stats are not modelled
            out.append(m.MeterStats(mid, flows, pkts, byts))
        return out
    if kind == m.OFPMP_PORT_DESC:
        out = []
        while r.remaining() > 0:
            port_no, hw, name, config, state, *_features = r.read(_PORT_DESC)
            name = name.rstrip(b"\x00").decode(errors="replace")
            out.append(m.PortDesc(port_no, hw, name, config, state))
        return out
    if kind == m.OFPMP_EXPERIMENTER:
        exp_id, exp_type = r.read(_EXPERIMENTER)
        if exp_id == STATE_EXPERIMENTER_ID and exp_type == 1:
            table_id, n = r.read(_STATE_STATS)
            entries = []
            for _ in range(n):
                klen, state = r.read(_STATE_ENTRY)
                key = r.take(klen)
                r.take(_pad_to(_STATE_ENTRY.size + klen))
                entries.append((key, state))
            return m.StateStats(table_id, tuple(entries))
        return _EXPERIMENTER.pack(exp_id, exp_type) + r.take(r.remaining())
    raise BadMultipart(f"unknown multipart kind {kind}")


def _unpack_body(msg_type: int, r: _Reader):
    if msg_type == m.OFPT_HELLO:
        r.take(r.remaining())  # hello elements tolerated and ignored
        return m.Hello()
    if msg_type == m.OFPT_ERROR:
        return m.Error(*r.read(_ERROR), r.take(r.remaining()))
    if msg_type == m.OFPT_ECHO_REQUEST:
        return m.EchoRequest(r.take(r.remaining()))
    if msg_type == m.OFPT_ECHO_REPLY:
        return m.EchoReply(r.take(r.remaining()))
    if msg_type == m.OFPT_EXPERIMENTER:
        return m.Experimenter(*r.read(_EXPERIMENTER), r.take(r.remaining()))
    if msg_type == m.OFPT_FEATURES_REQUEST:
        return m.FeaturesRequest()
    if msg_type == m.OFPT_FEATURES_REPLY:
        dpid, n_buffers, n_tables, aux_id, capabilities = r.read(_FEATURES_REPLY)
        return m.FeaturesReply(dpid, n_buffers, n_tables, capabilities, aux_id)
    if msg_type == m.OFPT_PACKET_IN:
        buffer_id, total_len, reason, table_id, cookie = r.read(_PACKET_IN)
        match = decode_match(r)
        r.take(2)
        payload = r.take(r.remaining())
        return m.PacketIn(buffer_id, reason, table_id, match, payload, cookie, total_len)
    if msg_type == m.OFPT_FLOW_REMOVED:
        return m.FlowRemoved(*r.read(_FLOW_REMOVED), decode_match(r))
    if msg_type == m.OFPT_PACKET_OUT:
        buffer_id, in_port, actions_len = r.read(_PACKET_OUT)
        actions = _decode_actions(r.sub(actions_len))
        return m.PacketOut(buffer_id, in_port, actions, r.take(r.remaining()))
    if msg_type == m.OFPT_FLOW_MOD:
        (cookie, cookie_mask, table_id, command, idle, hard, priority,
         buffer_id, out_port, out_group, flags) = r.read(_FLOW_MOD)
        match = decode_match(r)
        match.validate_prerequisites()
        instructions = _decode_instructions(r)
        return m.FlowMod(
            table_id, command, match, priority, idle, hard, cookie, cookie_mask,
            flags, instructions, buffer_id, out_port, out_group,
        )
    if msg_type == m.OFPT_GROUP_MOD:
        command, group_type, group_id = r.read(_GROUP_MOD)
        buckets = []
        while r.remaining() > 0:
            buckets.append(decode_bucket(r))
        return m.GroupMod(command, group_type, group_id, buckets)
    if msg_type == m.OFPT_METER_MOD:
        command, flags, meter_id = r.read(_METER_MOD)
        bands = []
        while r.remaining() > 0:
            bands.append(decode_band(r))
        return m.MeterMod(command, flags, meter_id, bands)
    if msg_type == m.OFPT_MULTIPART_REQUEST:
        kind, flags = r.read(_MULTIPART)
        return m.MultipartRequest(kind, _unpack_mp_request_body(kind, r), flags)
    if msg_type == m.OFPT_MULTIPART_REPLY:
        kind, flags = r.read(_MULTIPART)
        return m.MultipartReply(kind, _unpack_mp_reply_body(kind, r), flags)
    if msg_type <= 29:
        return m.Unsupported(msg_type, r.take(r.remaining()))
    raise BadType(f"unknown message type {msg_type}")


# -- public API ------------------------------------------------------------------------------

def pack(msg: m.OfMessage) -> bytes:
    """Encode a message; the header length is recomputed and written.
    A value too wide for its wire field raises ``Unencodable``."""
    try:
        body = _pack_body(msg.body)
        return _HEADER.pack(m.OFP_VERSION, msg.msg_type, m.OFP_HEADER_LEN + len(body),
                            msg.xid) + body
    except struct.error as exc:
        raise Unencodable(f"{type(msg.body).__name__}: {exc}") from exc


def unpack(data: bytes) -> m.OfMessage:
    """Decode exactly one wire frame into an OfMessage."""
    r = _Reader(data)
    version, msg_type, length, xid = r.read(_HEADER)
    if version != m.OFP_VERSION:
        raise BadVersion(f"version {version:#x}, expected 0x04")
    if length < m.OFP_HEADER_LEN:
        raise BadLength(f"declared length {length} below header size")
    if length != len(data):
        raise BadLength(f"declared length {length} != frame size {len(data)}")
    body = _unpack_body(msg_type, r)
    if r.remaining() != 0:
        raise BadLength(f"{r.remaining()} trailing bytes after body")
    return m.OfMessage(xid, body)


class FrameBuffer:
    """Re-frames a TCP byte stream into wire frames by declared length."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buf.extend(data)
        frames = []
        while len(self._buf) >= m.OFP_HEADER_LEN:
            version, _, length, _ = _HEADER.unpack_from(self._buf)
            if version != m.OFP_VERSION or length < m.OFP_HEADER_LEN:
                raise DesyncError(
                    f"malformed header mid-stream (version={version:#x} length={length})"
                )
            if len(self._buf) < length:
                break
            frames.append(bytes(self._buf[:length]))
            del self._buf[:length]
        return frames

    @property
    def pending(self) -> int:
        return len(self._buf)


def frame_stream(chunks) -> list[bytes]:
    """Split an iterable of byte chunks into complete frames."""
    fb = FrameBuffer()
    frames = []
    for chunk in chunks:
        frames.extend(fb.feed(chunk))
    return frames
