"""In-memory representation of OpenFlow 1.3 messages.

Only the message subset the switch speaks is modelled as typed variants;
everything else decodes to :class:`Unsupported` so the channel can answer
with a bad-request error instead of dropping the connection.

Sequence fields (instructions, actions, buckets, bands) are stored as
tuples whatever the caller passed, and multipart reply bodies as lists, so
equality is plain field equality: a message built with lists equals the
same message decoded from the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

from .oxm import MatchSet

OFP_VERSION = 0x04
OFP_HEADER_LEN = 8

# message types
OFPT_HELLO = 0
OFPT_ERROR = 1
OFPT_ECHO_REQUEST = 2
OFPT_ECHO_REPLY = 3
OFPT_EXPERIMENTER = 4
OFPT_FEATURES_REQUEST = 5
OFPT_FEATURES_REPLY = 6
OFPT_PACKET_IN = 10
OFPT_FLOW_REMOVED = 11
OFPT_PACKET_OUT = 13
OFPT_FLOW_MOD = 14
OFPT_GROUP_MOD = 15
OFPT_MULTIPART_REQUEST = 18
OFPT_MULTIPART_REPLY = 19
OFPT_METER_MOD = 29

# reserved ports
OFPP_MAX = 0xFFFFFF00
OFPP_IN_PORT = 0xFFFFFFF8
OFPP_TABLE = 0xFFFFFFF9
OFPP_NORMAL = 0xFFFFFFFA
OFPP_FLOOD = 0xFFFFFFFB
OFPP_ALL = 0xFFFFFFFC
OFPP_CONTROLLER = 0xFFFFFFFD
OFPP_LOCAL = 0xFFFFFFFE
OFPP_ANY = 0xFFFFFFFF

OFPG_ANY = 0xFFFFFFFF
OFPG_ALL = 0xFFFFFFFC
OFPTT_ALL = 0xFF
OFP_NO_BUFFER = 0xFFFFFFFF
OFPCML_NO_BUFFER = 0xFFFF

# flow-mod commands
OFPFC_ADD = 0
OFPFC_MODIFY = 1
OFPFC_MODIFY_STRICT = 2
OFPFC_DELETE = 3
OFPFC_DELETE_STRICT = 4

# flow-mod flags
OFPFF_SEND_FLOW_REM = 1 << 0
OFPFF_CHECK_OVERLAP = 1 << 1

# flow-removed reasons
OFPRR_IDLE_TIMEOUT = 0
OFPRR_HARD_TIMEOUT = 1
OFPRR_DELETE = 2

# packet-in reasons
OFPR_NO_MATCH = 0
OFPR_ACTION = 1

# group commands / types
OFPGC_ADD = 0
OFPGC_MODIFY = 1
OFPGC_DELETE = 2
OFPGT_ALL = 0
OFPGT_SELECT = 1
OFPGT_INDIRECT = 2
OFPGT_FF = 3

# meter commands / flags / bands
OFPMC_ADD = 0
OFPMC_MODIFY = 1
OFPMC_DELETE = 2
OFPMF_KBPS = 1 << 0
OFPMF_PKTPS = 1 << 1
OFPMF_BURST = 1 << 2
OFPMF_STATS = 1 << 3
OFPMBT_DROP = 1
OFPMBT_DSCP_REMARK = 2

# multipart kinds
OFPMP_FLOW = 1
OFPMP_PORT_STATS = 4
OFPMP_GROUP = 6
OFPMP_METER = 9
OFPMP_PORT_DESC = 13
OFPMP_EXPERIMENTER = 0xFFFF

# error types
OFPET_HELLO_FAILED = 0
OFPET_BAD_REQUEST = 1
OFPET_BAD_ACTION = 2
OFPET_BAD_INSTRUCTION = 3
OFPET_BAD_MATCH = 4
OFPET_FLOW_MOD_FAILED = 5
OFPET_GROUP_MOD_FAILED = 6
OFPET_METER_MOD_FAILED = 12
OFPET_EXPERIMENTER = 0xFFFF

# the error codes the switch emits, numbered as in OpenFlow 1.3's openflow.h
OFPHFC_INCOMPATIBLE = 0
OFPBRC_BAD_TYPE = 1
OFPBRC_BAD_MULTIPART = 2
OFPBRC_BAD_LEN = 6
OFPBRC_BAD_TABLE_ID = 9
OFPBRC_BAD_PACKET = 12
OFPFMFC_BAD_TABLE_ID = 2
OFPFMFC_OVERLAP = 3
OFPBAC_BAD_TYPE = 0
OFPBAC_BAD_OUT_GROUP = 9
OFPBIC_UNKNOWN_INST = 0
OFPBIC_BAD_TABLE_ID = 2
OFPBMC_BAD_FIELD = 6
OFPGMFC_INVALID_GROUP = 1
OFPGMFC_BAD_TYPE = 11
OFPMMFC_UNKNOWN_METER = 3
OFPMMFC_BAD_BAND = 8


# -- actions -----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class OutputAction:
    port: int
    max_len: int = OFPCML_NO_BUFFER


@dataclass(frozen=True, slots=True)
class GroupAction:
    group_id: int


@dataclass(frozen=True, slots=True)
class PushVlanAction:
    ethertype: int = 0x8100


@dataclass(frozen=True, slots=True)
class PopVlanAction:
    pass


@dataclass(frozen=True, slots=True)
class PushMplsAction:
    ethertype: int = 0x8847


@dataclass(frozen=True, slots=True)
class PopMplsAction:
    ethertype: int = 0x0800


@dataclass(frozen=True, slots=True)
class SetFieldAction:
    field: "OxmFieldLike"


@dataclass(frozen=True, slots=True)
class ExperimenterAction:
    experimenter_id: int
    payload: bytes


@dataclass(frozen=True, slots=True)
class SetStateAction:
    """Fast-path state write against a stateful flow table."""

    table_id: int
    next_state: int
    idle_timeout: int = 0
    idle_rollback: int = 0
    hard_timeout: int = 0
    hard_rollback: int = 0
    use_lookup_scope: bool = False  # default: key extracted with update scope


@dataclass(frozen=True, slots=True)
class PktGenAction:
    """Emit a registered packet template, substituting trigger fields."""

    template_id: int
    stop_processing: bool = False  # True drops the triggering packet afterwards


Action = object  # documentation alias; actions are the dataclasses above
OxmFieldLike = object


# -- instructions --------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GotoTable:
    table_id: int


@dataclass(frozen=True, slots=True)
class WriteMetadata:
    metadata: int
    mask: int = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True, slots=True)
class WriteActions:
    actions: tuple

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))


@dataclass(frozen=True, slots=True)
class ApplyActions:
    actions: tuple

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))


@dataclass(frozen=True, slots=True)
class ClearActions:
    pass


@dataclass(frozen=True, slots=True)
class MeterInstruction:
    meter_id: int


# -- group / meter pieces -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Bucket:
    actions: tuple
    weight: int = 0
    watch_port: int = OFPP_ANY
    watch_group: int = OFPG_ANY

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))


@dataclass(frozen=True, slots=True)
class DropBand:
    rate: int
    burst: int = 0


@dataclass(frozen=True, slots=True)
class DscpRemarkBand:
    rate: int
    burst: int = 0
    prec_level: int = 1


# -- message bodies --------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Hello:
    pass


@dataclass(frozen=True, slots=True)
class Error:
    err_type: int
    code: int
    data: bytes = b""


@dataclass(frozen=True, slots=True)
class EchoRequest:
    payload: bytes = b""


@dataclass(frozen=True, slots=True)
class EchoReply:
    payload: bytes = b""


@dataclass(frozen=True, slots=True)
class FeaturesRequest:
    pass


@dataclass(frozen=True, slots=True)
class FeaturesReply:
    datapath_id: int
    n_buffers: int
    n_tables: int
    capabilities: int
    aux_id: int = 0


@dataclass(slots=True)
class FlowMod:
    table_id: int = 0
    command: int = OFPFC_ADD
    match: MatchSet = dfield(default_factory=MatchSet)
    priority: int = 0
    idle_timeout: int = 0
    hard_timeout: int = 0
    cookie: int = 0
    cookie_mask: int = 0
    flags: int = 0
    instructions: tuple = ()
    buffer_id: int = OFP_NO_BUFFER
    out_port: int = OFPP_ANY
    out_group: int = OFPG_ANY

    def __post_init__(self):
        self.instructions = tuple(self.instructions)


@dataclass(slots=True)
class GroupMod:
    command: int
    group_type: int
    group_id: int
    buckets: tuple = ()

    def __post_init__(self):
        self.buckets = tuple(self.buckets)


@dataclass(slots=True)
class MeterMod:
    command: int
    flags: int
    meter_id: int
    bands: tuple = ()

    def __post_init__(self):
        self.bands = tuple(self.bands)


@dataclass(slots=True)
class PacketIn:
    buffer_id: int
    reason: int
    table_id: int
    match: MatchSet
    payload: bytes
    cookie: int = 0
    total_len: Optional[int] = None  # None: the whole payload

    def __post_init__(self):
        if self.total_len is None:
            self.total_len = len(self.payload)


@dataclass(slots=True)
class PacketOut:
    buffer_id: int
    in_port: int
    actions: tuple
    payload: bytes

    def __post_init__(self):
        self.actions = tuple(self.actions)


@dataclass(slots=True)
class FlowRemoved:
    cookie: int
    priority: int
    reason: int
    table_id: int
    duration_sec: int
    duration_nsec: int
    idle_timeout: int
    hard_timeout: int
    packet_count: int
    byte_count: int
    match: MatchSet


@dataclass(slots=True)
class MultipartRequest:
    kind: int
    body: object = None
    flags: int = 0


@dataclass(slots=True)
class MultipartReply:
    kind: int
    body: object = None
    flags: int = 0

    def __post_init__(self):
        if isinstance(self.body, tuple):
            self.body = list(self.body)


@dataclass(frozen=True, slots=True)
class Experimenter:
    experimenter_id: int
    exp_type: int
    payload: bytes = b""


@dataclass(frozen=True, slots=True)
class Unsupported:
    msg_type: int
    raw: bytes


# -- multipart bodies -------------------------------------------------------------

@dataclass(slots=True)
class FlowStatsRequest:
    table_id: int = OFPTT_ALL
    out_port: int = OFPP_ANY
    out_group: int = OFPG_ANY
    cookie: int = 0
    cookie_mask: int = 0
    match: MatchSet = dfield(default_factory=MatchSet)


@dataclass(slots=True)
class FlowStats:
    table_id: int
    duration_sec: int
    duration_nsec: int
    priority: int
    idle_timeout: int
    hard_timeout: int
    flags: int
    cookie: int
    packet_count: int
    byte_count: int
    match: MatchSet
    instructions: tuple

    def __post_init__(self):
        self.instructions = tuple(self.instructions)


@dataclass(frozen=True, slots=True)
class PortStatsRequest:
    port_no: int = OFPP_ANY


@dataclass(frozen=True, slots=True)
class PortStats:
    port_no: int
    rx_packets: int
    tx_packets: int
    rx_bytes: int
    tx_bytes: int
    rx_dropped: int
    tx_dropped: int
    rx_errors: int = 0
    tx_errors: int = 0
    duration_sec: int = 0
    duration_nsec: int = 0


@dataclass(frozen=True, slots=True)
class PortDescRequest:
    pass


@dataclass(frozen=True, slots=True)
class PortDesc:
    port_no: int
    hw_addr: bytes
    name: str
    config: int = 0
    state: int = 0  # bit 0: link down


@dataclass(frozen=True, slots=True)
class GroupStatsRequest:
    group_id: int = OFPG_ALL


@dataclass(frozen=True, slots=True)
class GroupStats:
    group_id: int
    ref_count: int
    packet_count: int
    byte_count: int
    bucket_stats: tuple = ()


@dataclass(frozen=True, slots=True)
class MeterStatsRequest:
    meter_id: int = 0xFFFFFFFF


@dataclass(frozen=True, slots=True)
class MeterStats:
    meter_id: int
    flow_count: int
    packet_in_count: int
    byte_in_count: int


@dataclass(frozen=True, slots=True)
class StateStatsRequest:
    """Experimenter multipart body: dump a table's state entries."""

    table_id: int


@dataclass(frozen=True, slots=True)
class StateStats:
    table_id: int
    entries: tuple  # of (key bytes, state int)


# -- top-level message ---------------------------------------------------------------

_BODY_TYPE = {
    Hello: OFPT_HELLO,
    Error: OFPT_ERROR,
    EchoRequest: OFPT_ECHO_REQUEST,
    EchoReply: OFPT_ECHO_REPLY,
    Experimenter: OFPT_EXPERIMENTER,
    FeaturesRequest: OFPT_FEATURES_REQUEST,
    FeaturesReply: OFPT_FEATURES_REPLY,
    PacketIn: OFPT_PACKET_IN,
    FlowRemoved: OFPT_FLOW_REMOVED,
    PacketOut: OFPT_PACKET_OUT,
    FlowMod: OFPT_FLOW_MOD,
    GroupMod: OFPT_GROUP_MOD,
    MultipartRequest: OFPT_MULTIPART_REQUEST,
    MultipartReply: OFPT_MULTIPART_REPLY,
    MeterMod: OFPT_METER_MOD,
}


@dataclass(slots=True)
class OfMessage:
    xid: int
    body: object

    @property
    def msg_type(self) -> int:
        if isinstance(self.body, Unsupported):
            return self.body.msg_type
        return _BODY_TYPE[type(self.body)]
