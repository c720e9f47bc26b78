"""Span tracing around the public functions of each ofswitch layer.

The tracer replaces functions and methods with wrappers that record one
span per call: name, start and end (``perf_counter_ns``) and the index of
the span that was open when the call began.  A span's self time is its
duration minus the time its child spans cover; the aggregates below are
kept exactly for every call, while the span list kept for writing out is
capped so that a long traced run stays small in memory.

A function imported with ``from ... import`` is looked up in the importing
module, so it is wrapped there too (``parse`` is ``parse_packet`` inside
``ofswitch.datapath``).  Nothing is wrapped unless ``install`` is called:
untraced runs execute the program unmodified.
"""

from __future__ import annotations

import importlib
import json
import time

MAX_KEPT_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, start_ns, end_ns, parent index)
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.bytes: dict[str, int] = {}
        self._stack: list[list] = []   # [span index, child ns]
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, label=None, size=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``label(args, result)`` may return a suffix that splits the span
        name (hit/miss, message type); ``size(args)`` adds a byte count."""
        fn = getattr(owner, attr)
        now = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns
        nbytes = self.bytes

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans) if len(spans) < MAX_KEPT_SPANS else -1, 0]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                result = None
                raise
            finally:
                t1 = now()
                stack.pop()
                span = name if label is None else f"{name}{label(args, result)}"
                dur = t1 - t0
                calls[span] = calls.get(span, 0) + 1
                self_ns[span] = self_ns.get(span, 0) + dur - frame[1]
                if size is not None:
                    nbytes[span] = nbytes.get(span, 0) + size(args)
                if stack:
                    stack[-1][1] += dur
                if frame[0] >= 0:
                    spans.append((span, t0, t1, parent))
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")

    # -- aggregates ------------------------------------------------------------

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def self_us(self, name: str) -> float | None:
        calls = self.n(name)
        return self.self_ns[name] / calls / 1e3 if calls else None


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from ofswitch import channel, datapath, flowtable, groups, meters, oxm, stateful, wire
    from ofswitch.harness import clock, links
    from ofswitch.pkt import build, checksum, edit

    # the package re-exports the function ``parse`` over its submodule's name
    parse = importlib.import_module("ofswitch.pkt.parse")
    w = tracer.wrap
    for owner, attr in ((datapath, "parse_packet"), (parse, "parse"), (edit, "parse")):
        w(owner, attr, "pkt.parse")
    w(checksum, "internet_checksum", "pkt.checksum", size=lambda a: len(a[0]))
    w(build, "udp4_frame", "pkt.build.udp4_frame")
    w(edit, "apply_set_field", "pkt.edit.set_field")
    w(parse.PacketHandle, "clone", "pkt.clone")
    w(oxm.MatchSet, "matches", "oxm.matches")
    # a table miss is no match or a match of the table-miss entry
    w(flowtable.FlowTable, "lookup", "flowtable.lookup",
      label=lambda a, r: ".miss" if r is None or r.is_table_miss() else ".hit")
    for attr in ("insert", "remove", "select", "expired_entries"):
        w(flowtable.FlowTable, attr, f"flowtable.{attr}")
    for attr in ("receive_packet", "transmit", "flow_mod", "flow_stats", "expire", "packet_out"):
        w(datapath.Datapath, attr, f"datapath.{attr}")
    w(groups.GroupTable, "bucket_live", "groups.bucket_live")
    w(meters.MeterTable, "apply", "meters.apply")
    w(stateful.StateTable, "lookup", "stateful.lookup")
    w(stateful.StateTable, "set_state", "stateful.set_state")
    w(stateful.PacketTemplate, "instantiate", "stateful.instantiate")
    w(wire, "unpack", "wire.unpack", label=lambda a, r: f".{type(r.body).__name__}" if r else "")
    w(wire, "pack", "wire.pack", label=lambda a, r: f".{type(a[0].body).__name__}")
    w(wire.FrameBuffer, "feed", "wire.framebuffer")
    w(channel.SwitchConnection, "feed", "channel.feed")
    w(clock.Scheduler, "step", "harness.scheduler.step")
    w(links.Link, "send_from", "harness.link.send")


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics for every layer that did work in this run; ratios
    per packet are taken against ``Datapath.receive_packet`` calls."""
    out = {}

    def put(name, value, unit):
        if value is not None:
            out[name] = (value, unit)

    def self_us(metric, span):
        put(metric, tr.self_us(span), "us")

    pkts = tr.n("datapath.receive_packet")
    self_us("pkt.parse.self_us", "pkt.parse")
    if pkts:
        put("pkt.parse.calls_per_pkt", tr.n("pkt.parse") / pkts, "calls/pkt")
        if tr.n("pkt.checksum"):
            put("pkt.checksum.kb_per_pkt", tr.bytes["pkt.checksum"] / 1024 / pkts, "KB/pkt")
        if tr.n("groups.bucket_live"):
            put("groups.bucket_live.calls_per_pkt", tr.n("groups.bucket_live") / pkts,
                "calls/pkt")
    if tr.n("pkt.checksum"):
        kb = tr.bytes["pkt.checksum"] / 1024
        put("pkt.checksum.self_us_per_kb", tr.self_ns["pkt.checksum"] / 1e3 / kb, "us/KB")
    self_us("pkt.build.udp4_frame.self_us", "pkt.build.udp4_frame")
    self_us("pkt.edit.set_field.self_us", "pkt.edit.set_field")
    self_us("pkt.clone.self_us", "pkt.clone")
    hits, misses = tr.n("flowtable.lookup.hit"), tr.n("flowtable.lookup.miss")
    if hits + misses:
        put("oxm.matches.calls_per_lookup", tr.n("oxm.matches") / (hits + misses), "calls/lookup")
        put("flowtable.lookup.hit_ratio", hits / (hits + misses), "ratio")
    self_us("oxm.matches.self_us", "oxm.matches")
    self_us("flowtable.lookup.hit_self_us", "flowtable.lookup.hit")
    self_us("flowtable.lookup.miss_self_us", "flowtable.lookup.miss")
    for attr in ("insert", "remove", "select", "expired_entries"):
        self_us(f"flowtable.{attr}.self_us", f"flowtable.{attr}")
    for attr in ("receive_packet", "transmit", "flow_mod", "flow_stats", "expire", "packet_out"):
        self_us(f"datapath.{attr}.self_us", f"datapath.{attr}")
    self_us("meters.apply.self_us", "meters.apply")
    self_us("stateful.lookup.self_us", "stateful.lookup")
    self_us("stateful.set_state.self_us", "stateful.set_state")
    self_us("stateful.instantiate.self_us", "stateful.instantiate")
    for span in sorted(tr.calls):
        for kind in ("unpack", "pack"):
            if span.startswith(f"wire.{kind}."):
                self_us(f"wire.{kind}.self_us.{span.split('.', 2)[2]}", span)
    self_us("wire.framebuffer.self_us", "wire.framebuffer")
    self_us("channel.feed.self_us", "channel.feed")
    self_us("harness.scheduler.step_self_us", "harness.scheduler.step")
    self_us("harness.link.send_self_us", "harness.link.send")
    return out
