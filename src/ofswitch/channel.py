"""Controller channel: the message-level session between a datapath and a
controller, plus the TCP transport around it.

`SwitchConnection` is sans-IO: it consumes raw bytes through `feed()` and
emits raw bytes through the injected `send` callable, so tests can drive a
complete handshake and message exchange without sockets.  `SwitchTcpServer`
and `connect_active` put the same object on a real TCP socket.
"""

from __future__ import annotations

import itertools
import socket
import socketserver
import threading
from collections import deque

from . import messages as m
from . import wire
from .errors import (
    BadActionType,
    BadBandType,
    BadGroupId,
    BadGroupType,
    BadInstruction,
    BadInstructionType,
    BadMatch,
    BadMeterId,
    BadMultipart,
    BadOutGroup,
    BadPort,
    BadTableId,
    BadType,
    BadVersion,
    CodecError,
    DesyncError,
    HelloFailed,
    OverlapError,
    ParseError,
    StatefulError,
    SwitchError,
)

_ERROR_PREFIX_LEN = 64  # how much of the offending message an Error echoes back
TRACE_LEN = 1024  # the newest ("rx" | "tx", message) pairs a session keeps

CAPABILITIES = 0x0F  # flow, table, port and group statistics

# exception class -> (error type, error code)
_ERROR_MAP = [
    (OverlapError, (m.OFPET_FLOW_MOD_FAILED, m.OFPFMFC_OVERLAP)),
    (BadTableId, (m.OFPET_FLOW_MOD_FAILED, m.OFPFMFC_BAD_TABLE_ID)),
    (BadInstruction, (m.OFPET_BAD_INSTRUCTION, 0)),
    (BadMatch, (m.OFPET_BAD_MATCH, m.OFPBMC_BAD_FIELD)),
    (BadGroupType, (m.OFPET_GROUP_MOD_FAILED, m.OFPGMFC_BAD_TYPE)),
    (BadGroupId, (m.OFPET_GROUP_MOD_FAILED, m.OFPGMFC_INVALID_GROUP)),
    (BadMeterId, (m.OFPET_METER_MOD_FAILED, m.OFPMMFC_UNKNOWN_METER)),
    (BadOutGroup, (m.OFPET_BAD_ACTION, m.OFPBAC_BAD_OUT_GROUP)),
    (BadPort, (m.OFPET_BAD_ACTION, 4)),
    (StatefulError, (m.OFPET_EXPERIMENTER, 1)),
    (BadVersion, (m.OFPET_HELLO_FAILED, m.OFPHFC_INCOMPATIBLE)),
    (BadMultipart, (m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_MULTIPART)),
    (BadActionType, (m.OFPET_BAD_ACTION, m.OFPBAC_BAD_TYPE)),
    (BadInstructionType, (m.OFPET_BAD_INSTRUCTION, m.OFPBIC_UNKNOWN_INST)),
    (BadBandType, (m.OFPET_METER_MOD_FAILED, m.OFPMMFC_BAD_BAND)),
    (BadType, (m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_TYPE)),
    (CodecError, (m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_LEN)),
    (ParseError, (m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_PACKET)),
]


def _error_for(exc: Exception) -> tuple[int, int]:
    for cls, pair in _ERROR_MAP:
        if isinstance(exc, cls):
            return pair
    return (m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_TYPE)


class SwitchConnection:
    """One controller session.  States: handshake -> active -> closed."""

    def __init__(self, datapath, send, attach: bool = True, lock=None):
        self.dp = datapath
        self._send_raw = send
        self.state = "handshake"
        self._buf = wire.FrameBuffer()
        self._xids = itertools.count(0x10000)  # switch-initiated xids
        self._lock = lock if lock is not None else threading.Lock()
        self.trace: deque[tuple[str, m.OfMessage]] = deque(maxlen=TRACE_LEN)
        if attach:
            datapath.packet_in_sink = self.emit_packet_in
            datapath.flow_removed_sink = self.emit_flow_removed

    # -- outbound --------------------------------------------------------------

    def _send(self, msg: m.OfMessage) -> None:
        self.trace.append(("tx", msg))
        self._send_raw(wire.pack(msg))

    def start(self) -> None:
        """Open the session by sending our version greeting."""
        self._send(m.OfMessage(next(self._xids), m.Hello()))

    def emit_packet_in(self, ev) -> None:
        match = m.MatchSet.from_pairs({"in_port": ev.in_port})
        body = m.PacketIn(m.OFP_NO_BUFFER, ev.reason, ev.table_id, match,
                          ev.frame, ev.cookie)
        self._send(m.OfMessage(next(self._xids), body))

    def emit_flow_removed(self, entry, reason: int, table_id: int) -> None:
        now = self.dp.clock()
        dur = max(0.0, now - entry.install_time)
        body = m.FlowRemoved(
            entry.cookie, entry.priority, reason, table_id,
            int(dur), int((dur % 1) * 1e9),
            entry.idle_timeout, entry.hard_timeout,
            entry.packet_count, entry.byte_count, entry.match,
        )
        self._send(m.OfMessage(next(self._xids), body))

    # -- inbound ---------------------------------------------------------------

    def feed(self, data: bytes) -> None:
        try:
            frames = self._buf.feed(data)
        except DesyncError:
            if self.state != "handshake":
                raise
            # the very first bytes already speak the wrong protocol version
            self._send(m.OfMessage(0, m.Error(m.OFPET_HELLO_FAILED,
                                              m.OFPHFC_INCOMPATIBLE,
                                              data[:_ERROR_PREFIX_LEN])))
            self.state = "closed"
            raise HelloFailed(f"peer speaks protocol version {data[0]:#x}")
        for frame in frames:
            with self._lock:
                self._handle_frame(frame)

    def _handle_frame(self, raw: bytes) -> None:
        if self.state == "handshake" and raw and raw[0] != m.OFP_VERSION:
            self._send(m.OfMessage(0, m.Error(m.OFPET_HELLO_FAILED,
                                              m.OFPHFC_INCOMPATIBLE,
                                              raw[:_ERROR_PREFIX_LEN])))
            self.state = "closed"
            raise HelloFailed(f"peer speaks protocol version {raw[0]:#x}")
        try:
            msg = wire.unpack(raw)
        except CodecError as exc:
            # a frame that does not decode is still answered under its own xid
            xid = int.from_bytes(raw[4:8], "big")
            err_type, code = _error_for(exc)
            self._send(m.OfMessage(xid, m.Error(err_type, code, raw[:_ERROR_PREFIX_LEN])))
            return
        self.trace.append(("rx", msg))
        reply = None
        try:
            reply = self._dispatch(msg)
        except SwitchError as exc:
            err_type, code = _error_for(exc)
            reply = m.Error(err_type, code, raw[:_ERROR_PREFIX_LEN])
        if reply is not None:
            self._send(m.OfMessage(msg.xid, reply))

    def _dispatch(self, msg: m.OfMessage):
        body = msg.body
        if isinstance(body, m.Hello):
            self.state = "active"
            return None
        if isinstance(body, m.EchoRequest):
            return m.EchoReply(body.payload)
        if isinstance(body, (m.EchoReply, m.Error)):
            return None
        if isinstance(body, m.FeaturesRequest):
            return m.FeaturesReply(self.dp.datapath_id, self.dp.n_buffers,
                                   self.dp.n_tables, CAPABILITIES)
        if isinstance(body, m.FlowMod):
            self.dp.flow_mod(body)
            return None
        if isinstance(body, m.GroupMod):
            self.dp.group_mod(body)
            return None
        if isinstance(body, m.MeterMod):
            self.dp.meter_mod(body)
            return None
        if isinstance(body, m.PacketOut):
            self.dp.packet_out(body)
            return None
        if isinstance(body, m.MultipartRequest):
            return self._multipart(body)
        if isinstance(body, m.Experimenter):
            if not self.dp.apply_experimenter(body):
                return m.Error(m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_TYPE)
            return None
        if isinstance(body, m.Unsupported):
            return m.Error(m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_TYPE,
                           body.raw[:_ERROR_PREFIX_LEN])
        return m.Error(m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_TYPE)

    def _multipart(self, req: m.MultipartRequest) -> m.MultipartReply:
        kind = req.kind
        if kind == m.OFPMP_FLOW:
            body = self.dp.flow_stats(req.body or m.FlowStatsRequest())
        elif kind == m.OFPMP_PORT_STATS:
            body = self.dp.port_stats(req.body or m.PortStatsRequest())
        elif kind == m.OFPMP_PORT_DESC:
            body = self.dp.port_desc()
        elif kind == m.OFPMP_GROUP:
            body = self.dp.group_stats(req.body or m.GroupStatsRequest())
        elif kind == m.OFPMP_METER:
            body = self.dp.meter_stats(req.body or m.MeterStatsRequest())
        elif kind == m.OFPMP_EXPERIMENTER and isinstance(req.body, m.StateStatsRequest):
            body = self.dp.state_stats(req.body.table_id)
        else:
            raise BadMultipart(f"unsupported multipart kind {kind}")
        return m.MultipartReply(kind, body)


# -- TCP transport --------------------------------------------------------------


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        server: SwitchTcpServer = self.server  # type: ignore[assignment]
        conn = SwitchConnection(server.datapath, self.request.sendall,
                                attach=server.attach_sinks, lock=server.dp_lock)
        conn.start()
        try:
            while True:
                data = self.request.recv(65536)
                if not data:
                    break
                conn.feed(data)
        except (HelloFailed, ConnectionError, OSError):
            pass


class SwitchTcpServer(socketserver.ThreadingTCPServer):
    """Passive listener: each accepted client gets its own session against
    the shared datapath, serialized by one lock."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, datapath, host: str = "127.0.0.1", port: int = 0,
                 attach_sinks: bool = False):
        self.datapath = datapath
        self.attach_sinks = attach_sinks
        self.dp_lock = threading.Lock()
        super().__init__((host, port), _Handler)
        self._thread = None

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread:
            self._thread.join(timeout=5)


def connect_active(datapath, host: str, port: int, max_backoff: float = 32.0,
                   sleep=None, attempts: int | None = None):
    """Dial out to a controller, retrying with doubling delay (1s up to
    `max_backoff`).  Returns (socket, SwitchConnection) once connected."""
    import time as _time

    sleep = sleep if sleep is not None else _time.sleep
    delay = 1.0
    tried = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10)
        except OSError:
            tried += 1
            if attempts is not None and tried >= attempts:
                raise
            sleep(delay)
            delay = min(delay * 2, max_backoff)
            continue
        conn = SwitchConnection(datapath, sock.sendall)
        conn.start()
        return sock, conn
