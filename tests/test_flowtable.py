"""Flow table semantics: ordering, replacement, lookup, selection, timeouts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofswitch import messages as m
from ofswitch.datapath import Datapath
from ofswitch.errors import BadInstruction, BadTableId, OverlapError
from ofswitch.flowtable import FlowEntry, FlowTable
from ofswitch.oxm import OFPXMC_OPENFLOW_BASIC, MatchSet, OxmField, make_field

from match_oracle import is_subset_of, overlaps


def entry(priority, seq, pairs=None, **kw):
    return FlowEntry(MatchSet.from_pairs(pairs or {}), priority, [],
                     insertion_seq=seq, **kw)


def test_priority_order_then_insertion_order():
    t = FlowTable(0)
    a = entry(10, 1, {"in_port": 1})
    b = entry(20, 2, {"in_port": 1})
    c = entry(20, 3, {"eth_type": 0x0800})
    for e in (a, b, c):
        t.insert(e)
    assert t.entries == [b, c, a]


def test_lookup_picks_highest_priority_match():
    t = FlowTable(0)
    low = entry(1, 1, {"in_port": 2})
    high = entry(9, 2, {"in_port": 2})
    t.insert(low)
    t.insert(high)
    got = t.lookup({"in_port": (2).to_bytes(4, "big")}, 0.0, 100)
    assert got is high
    assert high.packet_count == 1 and high.byte_count == 100
    assert low.packet_count == 0


def test_equal_priority_first_inserted_wins():
    t = FlowTable(0)
    first = entry(5, 1, {"in_port": 3})
    second = entry(5, 2, {"in_port": 3, "eth_type": 0x0800})
    t.insert(first)
    t.insert(second)
    fields = {"in_port": (3).to_bytes(4, "big"), "eth_type": b"\x08\x00"}
    assert t.lookup(fields) is first


def test_identical_match_and_priority_replaces():
    t = FlowTable(0)
    old = entry(5, 1, {"in_port": 1})
    new = entry(5, 2, {"in_port": 1})
    t.insert(old)
    replaced = t.insert(new)
    assert replaced is old
    assert len(t) == 1


def test_table_miss_is_priority_zero_empty_match():
    miss = entry(0, 1)
    assert miss.is_table_miss()
    assert not entry(1, 1).is_table_miss()
    assert not entry(0, 1, {"in_port": 1}).is_table_miss()


def test_miss_entry_catches_everything():
    t = FlowTable(0)
    t.insert(entry(0, 1))
    assert t.lookup({"eth_type": b"\x86\xdd"}) is not None


def test_strict_select_needs_exact_match_and_priority():
    t = FlowTable(0)
    e = entry(5, 1, {"in_port": 1})
    t.insert(e)
    assert t.select(MatchSet.from_pairs({"in_port": 1}), True, 5) == [e]
    assert t.select(MatchSet.from_pairs({"in_port": 1}), True, 6) == []
    assert t.select(MatchSet(), True, 5) == []


def test_nonstrict_select_is_subset_based():
    t = FlowTable(0)
    narrow = entry(5, 1, {"in_port": 1, "eth_type": 0x0800})
    wide = entry(5, 2, {"in_port": 1})
    other = entry(5, 3, {"in_port": 2})
    for e in (narrow, wide, other):
        t.insert(e)
    got = t.select(MatchSet.from_pairs({"in_port": 1}), False)
    assert set(map(id, got)) == {id(narrow), id(wide)}
    assert t.select(MatchSet(), False) == t.entries


def test_cookie_filter_on_select():
    t = FlowTable(0)
    a = entry(5, 1, {"in_port": 1}, cookie=0x11)
    b = entry(5, 2, {"in_port": 2}, cookie=0x22)
    t.insert(a)
    t.insert(b)
    got = t.select(MatchSet(), False, cookie=0x22, cookie_mask=0xFF)
    assert got == [b]


def test_hard_timeout_boundary_inclusive(clock):
    e = entry(1, 1, hard_timeout=10)
    e.install_time = e.last_match_time = 0.0
    assert not e.expired(9.999)
    assert e.expired(10.0)
    assert e.expiry_reason(10.0) == m.OFPRR_HARD_TIMEOUT


def test_idle_timeout_resets_on_match():
    t = FlowTable(0)
    e = entry(1, 1, {"in_port": 1}, idle_timeout=5)
    t.insert(e)
    t.lookup({"in_port": (1).to_bytes(4, "big")}, now=4.0)
    assert not e.expired(8.9)
    assert e.expired(9.0)
    assert e.expiry_reason(9.0) == m.OFPRR_IDLE_TIMEOUT


def test_hard_timeout_wins_when_both_have_run_out():
    e = entry(1, 1, idle_timeout=5, hard_timeout=10)
    assert e.expiry_reason(12.0) == m.OFPRR_HARD_TIMEOUT


def test_goto_validation():
    ok = FlowEntry(MatchSet(), 1, [m.GotoTable(5)])
    ok.validate_instructions(2, 64)
    with pytest.raises(BadInstruction):
        FlowEntry(MatchSet(), 1, [m.GotoTable(2)]).validate_instructions(2, 64)
    with pytest.raises(BadInstruction):
        FlowEntry(MatchSet(), 1, [m.GotoTable(1)]).validate_instructions(2, 64)
    with pytest.raises(BadInstruction):
        FlowEntry(MatchSet(), 1, [m.GotoTable(64)]).validate_instructions(2, 64)
    with pytest.raises(BadInstruction):
        FlowEntry(MatchSet(), 1,
                  [m.GotoTable(5), m.GotoTable(6)]).validate_instructions(2, 64)


def test_flow_mod_check_overlap(datapath):
    fm1 = m.FlowMod(command=m.OFPFC_ADD, priority=5,
                    match=MatchSet.from_pairs({"in_port": 1}))
    datapath.flow_mod(fm1)
    overlapping = m.FlowMod(command=m.OFPFC_ADD, priority=5,
                            match=MatchSet.from_pairs({"eth_type": 0x0800}),
                            flags=m.OFPFF_CHECK_OVERLAP)
    with pytest.raises(OverlapError):
        datapath.flow_mod(overlapping)
    # different priority never overlaps
    overlapping.priority = 6
    datapath.flow_mod(overlapping)
    # disjoint matches at the same priority are fine
    disjoint = m.FlowMod(command=m.OFPFC_ADD, priority=5,
                         match=MatchSet.from_pairs({"in_port": 2}),
                         flags=m.OFPFF_CHECK_OVERLAP)
    datapath.flow_mod(disjoint)


def test_flow_mod_bad_table(datapath):
    with pytest.raises(BadTableId):
        datapath.flow_mod(m.FlowMod(command=m.OFPFC_ADD, table_id=64))


def test_delete_all_tables(datapath):
    for t in (0, 1, 5):
        datapath.flow_mod(m.FlowMod(command=m.OFPFC_ADD, table_id=t, priority=1,
                                    match=MatchSet.from_pairs({"in_port": 1})))
    datapath.flow_mod(m.FlowMod(command=m.OFPFC_DELETE, table_id=m.OFPTT_ALL))
    assert all(len(t) == 0 for t in datapath.tables)


def test_expire_notifies_with_flag(datapath, clock):
    removed = []
    datapath.flow_removed_sink = lambda e, reason, tid: removed.append((e, reason, tid))
    datapath.flow_mod(m.FlowMod(command=m.OFPFC_ADD, priority=1, hard_timeout=5,
                                match=MatchSet.from_pairs({"in_port": 1}),
                                flags=m.OFPFF_SEND_FLOW_REM))
    datapath.flow_mod(m.FlowMod(command=m.OFPFC_ADD, priority=2, hard_timeout=5,
                                match=MatchSet.from_pairs({"in_port": 2})))
    clock.advance(6)
    gone = datapath.expire()
    assert len(gone) == 2
    assert len(removed) == 1  # only the flagged entry is announced
    assert removed[0][1] == m.OFPRR_HARD_TIMEOUT


# -- tuple-space lookup against a linear scan ----------------------------------------

def scan_lookup(table, fields):
    """The reference classifier: the first entry in table order whose
    match accepts the field map."""
    return next((e for e in table.entries if e.match.matches(fields)), None)


_ADDRS = [bytes([10, 0, 0, 1]), bytes([10, 0, 1, 1]), bytes([10, 1, 0, 1]),
          bytes([11, 0, 0, 1])]
_PORTS = [(1).to_bytes(4, "big"), (2).to_bytes(4, "big")]
_ETH_TYPES = [b"\x08\x00", b"\x86\xdd"]
# ipv4_dst constraints: exact, or a prefix mask of 0, 8, 16, 24 or 32 bits
_PREFIXES = [None, 0, 8, 16, 24, 32]
# a field this switch does not know: an entry naming it never matches
_UNKNOWN = OxmField(OFPXMC_OPENFLOW_BASIC, 99, b"\x01")


def _prefix_mask(bits):
    return ((1 << 32) - (1 << (32 - bits))).to_bytes(4, "big")


_match_specs = st.tuples(
    st.sampled_from([None] + _PORTS),
    st.sampled_from([None] + _ETH_TYPES),
    st.sampled_from([None] + _ADDRS),
    st.sampled_from(_PREFIXES),
    st.sampled_from([False] * 7 + [True]),  # the unknown field
    st.booleans(),  # list the fields in reverse order
)


def build_match(spec):
    port, eth_type, addr, prefix, unknown, reverse = spec
    fields = []
    if addr is not None:
        mask = None if prefix is None else _prefix_mask(prefix)
        fields.append(make_field("ipv4_dst", addr, mask))
    if eth_type is not None:
        fields.append(make_field("eth_type", eth_type))
    if port is not None:
        fields.append(make_field("in_port", port))
    if unknown:
        fields.append(_UNKNOWN)
    return MatchSet(fields[::-1] if reverse else fields)


_PKT_VALUES = {
    "in_port": st.sampled_from(_PORTS),
    "eth_type": st.sampled_from(_ETH_TYPES),
    # a 3-byte value never satisfies a masked 4-byte field
    "ipv4_dst": st.sampled_from(_ADDRS + [b"\x0a\x00\x00"]),
}
# field maps with every field, or with some missing
_field_maps = st.one_of(
    st.fixed_dictionaries(_PKT_VALUES, optional={"udp_dst": st.just(b"\x00\x35")}),
    st.fixed_dictionaries({}, optional=_PKT_VALUES),
)

_inserts = st.tuples(st.just("insert"), st.integers(0, 3), _match_specs)
_table_ops = st.one_of(
    _inserts,
    st.tuples(st.just("replace"), st.integers(0, 1 << 16)),
    st.tuples(st.just("remove"), st.integers(0, 1 << 16)),
    st.tuples(st.just("lookup"), _field_maps),
)


@given(ops=st.lists(_inserts, min_size=4, max_size=30).flatmap(
    lambda fill: st.lists(_table_ops, min_size=1, max_size=40).map(lambda ops: fill + ops)))
@settings(max_examples=400, deadline=None)
def test_lookup_equals_linear_scan(ops):
    t = FlowTable(0)
    seq = lookups = matched = 0
    for op in ops:
        if op[0] == "insert" or (op[0] == "replace" and t.entries):
            if op[0] == "insert":
                priority, match = op[1], build_match(op[2])
            else:
                old = t.entries[op[1] % len(t.entries)]
                priority, match = old.priority, MatchSet(old.match)
            seq += 1
            before = [e for e in t.entries if e.priority == priority and e.match == match]
            new = FlowEntry(match, priority, [], insertion_seq=seq)
            assert t.insert(new) is (before[0] if before else None)
            assert new in t.entries and not any(e in t.entries for e in before)
        elif op[0] == "remove" and t.entries:
            t.remove(t.entries[op[1] % len(t.entries)])
        elif op[0] == "lookup":
            fields = op[1]
            want = scan_lookup(t, fields)
            count = want.packet_count if want else 0
            assert t.lookup(fields, 1.0, 60) is want
            lookups += 1
            if want is not None:
                matched += 1
                assert want.packet_count == count + 1 and want.last_match_time == 1.0
    assert (t.lookup_count, t.matched_count) == (lookups, matched)


def test_lookup_calls_no_match_test(monkeypatch):
    t = FlowTable(0)
    for i in range(10_000):
        addr = bytes([10, 0, i >> 8, i & 0xFF])
        pairs = {"eth_type": 0x0800, "ipv4_dst": (addr, "255.255.255.255") if i % 2 else addr}
        t.insert(FlowEntry(MatchSet.from_pairs(pairs), i, [], insertion_seq=i))
    calls = []
    matches = MatchSet.matches

    def counting(self, fields):
        calls.append(1)
        return matches(self, fields)

    monkeypatch.setattr(MatchSet, "matches", counting)
    hit = {"eth_type": b"\x08\x00", "ipv4_dst": bytes([10, 0, 0, 7])}
    miss = {"eth_type": b"\x08\x00", "ipv4_dst": bytes([172, 16, 0, 1])}
    assert t.lookup(hit).priority == 7
    assert t.lookup(miss) is None
    assert calls == []


# -- flow-mods through the index against a linear scan --------------------------------

_FULL_MASK = b"\xff" * 4
_IP4 = make_field("eth_type", 0x0800)


def build_mod_match(spec):
    """A match from ``(port, addr, addr_mask, unknown, reverse)``: an
    ``ipv4_dst`` (with its ``eth_type`` prerequisite) exact, under an
    all-ones mask or under a /24 mask, an ``in_port``, the unknown field
    one or two bytes wide, listed forwards or backwards."""
    port, addr, addr_mask, unknown, reverse = spec
    fields = []
    if addr is not None:
        fields += [_IP4, make_field("ipv4_dst", addr, addr_mask)]
    if port is not None:
        fields.append(make_field("in_port", port))
    if unknown is not None:
        fields.append(unknown)
    return MatchSet(fields[::-1] if reverse else fields)


# the unknown field again, two bytes wide: a different field from ``_UNKNOWN``,
# though each of its bytes agrees with it
_UNKNOWN_WIDE = OxmField(OFPXMC_OPENFLOW_BASIC, 99, b"\x01\x01")
_WIDTH_SWAP = {_UNKNOWN: _UNKNOWN_WIDE, _UNKNOWN_WIDE: _UNKNOWN}


_mod_specs = st.tuples(
    st.sampled_from([None] + _PORTS),
    st.sampled_from([None] + _ADDRS[:2]),
    st.sampled_from([None, _FULL_MASK, _prefix_mask(24)]),
    st.sampled_from([None] * 8 + [_UNKNOWN, _UNKNOWN_WIDE]),
    st.booleans(),
)
_cookies = st.sampled_from([0x10, 0x11, 0x20])
_variants = st.sampled_from(["same", "reversed", "mask", "unknown", "wide"])
_cookie_masks = st.sampled_from([0, 0xF0, 0xFF])
_MASKS = [None, _FULL_MASK, _prefix_mask(31), _prefix_mask(24), _prefix_mask(16),
          _prefix_mask(0)]


def build_request(spec):
    """A non-strict request from ``(port, eth_type, addr, addr_mask,
    unknown, reverse)``: any subset of the fields entries use, without
    prerequisites, ``ipv4_dst`` exact or under a mask from all ones to none,
    and either width of the unknown field."""
    port, eth_type, addr, addr_mask, unknown, reverse = spec
    fields = []
    if eth_type:
        fields.append(_IP4)
    if addr is not None:
        fields.append(make_field("ipv4_dst", addr, addr_mask))
    if port is not None:
        fields.append(make_field("in_port", port))
    if unknown is not None:
        fields.append(unknown)
    return MatchSet(fields[::-1] if reverse else fields)


_request_specs = st.tuples(
    st.sampled_from([None] * 2 + _PORTS),
    st.booleans(),
    st.sampled_from([None] + _ADDRS[:3]),
    st.sampled_from(_MASKS),
    st.sampled_from([None] * 3 + [_UNKNOWN, _UNKNOWN_WIDE]),
    st.booleans(),
)
_out_ports = st.one_of(st.none(), st.integers(0, 1 << 16))  # None: OFPP_ANY; else a row's port
_out_groups = st.sampled_from([m.OFPG_ANY] * 2 + [1, 2])
_mod_ops = st.one_of(
    st.tuples(st.just("add"), _mod_specs, st.integers(1, 3), _cookies,
              st.sampled_from([(0, 0), (0, 2), (1, 0), (3, 5)])),  # (idle, hard)
    st.tuples(st.just("add_checked"), _mod_specs, st.integers(1, 3), _cookies),
    st.tuples(st.just("wide"), st.sampled_from(["stats", "modify", "delete"]), _request_specs,
              _cookies, _cookie_masks, _out_ports, _out_groups, st.booleans()),
    st.tuples(st.just("delete_out"), st.integers(0, 1 << 16), _out_ports, _out_groups),
    st.tuples(st.just("readd"), st.integers(0, 1 << 16), _variants),
    st.tuples(st.sampled_from(["modify", "delete"]), _mod_specs, st.integers(1, 3),
              _cookies, _cookie_masks),
    st.tuples(st.just("redo"), st.sampled_from(["modify", "delete"]),
              st.integers(0, 1 << 16), _variants, _cookies, _cookie_masks),
    st.tuples(st.just("delete_wide"), _mod_specs, _cookies, _cookie_masks),
    st.tuples(st.just("expire"), st.sampled_from([0.5, 1.0, 2.0])),
    st.tuples(st.just("lookup"), st.fixed_dictionaries(
        {}, optional={"in_port": st.sampled_from(_PORTS), "eth_type": st.just(b"\x08\x00"),
                      "ipv4_dst": st.sampled_from(_ADDRS[:2] + [bytes([10, 0, 0, 9])])})),
)


class _Row:
    """The oracle's copy of one entry."""

    def __init__(self, match, priority, seq, cookie, timeouts, now, port):
        self.match, self.priority, self.seq, self.cookie = match, priority, seq, cookie
        self.idle, self.hard = timeouts
        self.installed = self.touched = now
        self.port = port


def _picked(row, cookie, cookie_mask):
    return not cookie_mask or not (row.cookie ^ cookie) & cookie_mask


def _out(port):
    """Output to ``port``, and to group ``port % 3`` unless that is 0."""
    group = (m.GroupAction(port % 3),) if port % 3 else ()
    return (m.ApplyActions((m.OutputAction(port),) + group),)


def _forwards(row, out_port, out_group):
    """Whether a row holds an output to ``out_port`` and a group action
    to ``out_group``, either of which may be ANY."""
    return ((out_port == m.OFPP_ANY or row.port == out_port)
            and (out_group == m.OFPG_ANY or row.port % 3 == out_group))


def _variant(match, how):
    """``match`` itself, the same match with its fields listed in the other
    order, or a different match that a broken index could take for it: an
    exact ``ipv4_dst`` swapped with one under an all-ones mask, the
    unknown field added or dropped, or swapped for its other width."""
    fields = list(match)
    if how == "reversed":
        return MatchSet(fields[::-1])
    if how == "wide":
        return MatchSet([_WIDTH_SWAP.get(f, f) for f in fields])
    if how == "unknown":
        known = [f for f in fields if f not in _WIDTH_SWAP]
        return MatchSet(known if len(known) < len(fields) else fields + [_UNKNOWN])
    if how == "mask":
        return MatchSet(OxmField(f.oxm_class, f.field_id, f.value,
                                 None if f.mask == _FULL_MASK else _FULL_MASK)
                        if f.name == "ipv4_dst" and f.mask in (None, _FULL_MASK) else f
                        for f in fields)
    return match


def _resolve(op, rows):
    """A concrete ``(kind, match, ...)`` op; ``readd`` and ``redo`` aim at
    an existing row's priority and a variant of its match."""
    kind = op[0]
    if kind in ("add", "add_checked", "modify", "delete", "delete_wide"):
        return (kind, build_mod_match(op[1])) + op[2:]
    if kind == "wide":
        out_port = m.OFPP_ANY if op[5] is None or not rows else rows[op[5] % len(rows)].port
        return (kind, op[1], build_request(op[2])) + op[3:5] + (out_port,) + op[6:]
    if kind == "delete_out" and rows:
        row = rows[op[1] % len(rows)]
        out_port = m.OFPP_ANY if op[2] is None else rows[op[2] % len(rows)].port
        return (kind, row.match, row.priority, out_port, op[3])
    if kind == "readd" and rows:
        row = rows[op[1] % len(rows)]
        return ("add", _variant(row.match, op[2]), row.priority, row.cookie,
                (row.idle, row.hard))
    if kind == "redo" and rows:
        row = rows[op[2] % len(rows)]
        return (op[1], _variant(row.match, op[3]), row.priority) + op[4:]
    return op if kind in ("expire", "lookup") else None


# wide requests that pick many entries, checked after every step
_PROBES = [MatchSet([_IP4]), MatchSet([make_field("ipv4_dst", _ADDRS[0], _prefix_mask(16))]),
           MatchSet([make_field("in_port", _PORTS[0])]), MatchSet([_UNKNOWN]),
           MatchSet([_UNKNOWN_WIDE])]
# a table of a few entries first, so that wide requests pick several
_fill = st.lists(st.tuples(st.just("add"), _mod_specs, st.integers(1, 3), _cookies,
                           st.just((0, 0))), min_size=4, max_size=24)


@given(ops=_fill.flatmap(lambda fill: st.lists(_mod_ops, min_size=1, max_size=60).map(
    lambda ops: fill + ops)))
@settings(max_examples=300, deadline=None)
def test_flow_mods_equal_linear_scan(ops):
    now = [0.0]
    dp = Datapath(n_tables=1, clock=lambda: now[0])
    for group_id in (1, 2):
        dp.group_mod(m.GroupMod(m.OFPGC_ADD, m.OFPGT_INDIRECT, group_id,
                                [m.Bucket([m.OutputAction(1)])]))
    table = dp.tables[0]
    rows: list[_Row] = []  # in table order
    seq = port = 0

    def strict(match, priority, cookie, cookie_mask):
        """The strict selection, by scan and ``MatchSet.__eq__``; it is
        also checked against ``FlowTable.select``."""
        want = [r for r in rows if r.priority == priority and r.match == match
                and _picked(r, cookie, cookie_mask)]
        got = table.select(match, True, priority, cookie, cookie_mask)
        assert [(e.priority, e.insertion_seq) for e in got] == [(r.priority, r.seq) for r in want]
        return want

    for op in ops:
        op = _resolve(op, rows)
        if op is None:
            continue
        kind = op[0]
        if kind == "add":
            _, match, priority, cookie, timeouts = op
            old = strict(match, priority, 0, 0)
            seq += 1
            port += 1
            rows = [r for r in rows if r not in old]
            rows.append(_Row(match, priority, seq, cookie, timeouts, now[0], port))
            rows.sort(key=lambda r: (-r.priority, r.seq))
            dp.flow_mod(m.FlowMod(command=m.OFPFC_ADD, match=match, priority=priority,
                                  cookie=cookie, idle_timeout=timeouts[0],
                                  hard_timeout=timeouts[1], instructions=_out(port)))
        elif kind in ("modify", "delete"):
            _, match, priority, cookie, cookie_mask = op
            hit = strict(match, priority, cookie, cookie_mask)
            port += 1
            if kind == "modify":
                for r in hit:
                    r.port = port
            else:
                rows = [r for r in rows if r not in hit]
            command = m.OFPFC_MODIFY_STRICT if kind == "modify" else m.OFPFC_DELETE_STRICT
            dp.flow_mod(m.FlowMod(command=command, match=match, priority=priority,
                                  cookie=cookie, cookie_mask=cookie_mask,
                                  instructions=_out(port)))
        elif kind == "delete_wide":
            _, match, cookie, cookie_mask = op
            rows = [r for r in rows if not (is_subset_of(r.match, match)
                                            and _picked(r, cookie, cookie_mask))]
            dp.flow_mod(m.FlowMod(command=m.OFPFC_DELETE, match=match, cookie=cookie,
                                  cookie_mask=cookie_mask))
        elif kind == "add_checked":
            _, match, priority, cookie = op
            seq += 1  # a rejected ADD uses up its sequence number too
            port += 1
            fm = m.FlowMod(command=m.OFPFC_ADD, match=match, priority=priority, cookie=cookie,
                           flags=m.OFPFF_CHECK_OVERLAP, instructions=_out(port))
            if any(r.priority == priority and overlaps(r.match, match) for r in rows):
                with pytest.raises(OverlapError):
                    dp.flow_mod(fm)
            else:
                rows.append(_Row(match, priority, seq, cookie, (0, 0), now[0], port))
                rows.sort(key=lambda r: (-r.priority, r.seq))
                dp.flow_mod(fm)
        elif kind == "wide":
            _, how, match, cookie, cookie_mask, out_port, out_group, all_tables = op
            picked = [r for r in rows if is_subset_of(r.match, match)
                      and _picked(r, cookie, cookie_mask)]
            table_id = m.OFPTT_ALL if all_tables and how != "modify" else 0
            if how == "stats":
                got = dp.flow_stats(m.FlowStatsRequest(table_id, out_port, out_group, cookie,
                                                       cookie_mask, match))
                want = [r for r in picked if _forwards(r, out_port, out_group)]
                assert [(s.priority, s.cookie, s.instructions) for s in got] \
                    == [(r.priority, r.cookie, _out(r.port)) for r in want]
                assert all(s.match == r.match for s, r in zip(got, want))
            elif how == "modify":  # out_port and out_group do not apply
                port += 1
                for r in picked:
                    r.port = port
                dp.flow_mod(m.FlowMod(command=m.OFPFC_MODIFY, match=match, cookie=cookie,
                                      cookie_mask=cookie_mask, out_port=out_port,
                                      out_group=out_group, instructions=_out(port)))
            else:
                gone = [r for r in picked if _forwards(r, out_port, out_group)]
                rows = [r for r in rows if r not in gone]
                dp.flow_mod(m.FlowMod(command=m.OFPFC_DELETE, table_id=table_id, match=match,
                                      cookie=cookie, cookie_mask=cookie_mask,
                                      out_port=out_port, out_group=out_group))
        elif kind == "delete_out":
            _, match, priority, out_port, out_group = op
            rows = [r for r in rows if not (r.priority == priority and r.match == match
                                            and _forwards(r, out_port, out_group))]
            dp.flow_mod(m.FlowMod(command=m.OFPFC_DELETE_STRICT, match=match, priority=priority,
                                  out_port=out_port, out_group=out_group))
        elif kind == "expire":
            now[0] += op[1]
            rows = [r for r in rows if not (r.hard and now[0] - r.installed >= r.hard
                                            or r.idle and now[0] - r.touched >= r.idle)]
            dp.expire()
        else:
            fields = op[1]
            want = next((r for r in rows if r.match.matches(fields)), None)
            got = table.lookup(fields, now[0], 60)
            assert (got and got.insertion_seq) == (want and want.seq)
            if want is not None:
                want.touched = now[0]
        assert [(e.priority, e.insertion_seq, e.cookie, e.instructions) for e in table.entries] \
            == [(r.priority, r.seq, r.cookie, _out(r.port)) for r in rows]
        assert all(e.match == r.match for e, r in zip(table.entries, rows))
        for probe in _PROBES:
            assert [e.insertion_seq for e in table.select(probe, False)] \
                == [r.seq for r in rows if is_subset_of(r.match, probe)]
            for priority in (1, 2, 3):
                got = table.find_overlap(probe, priority)
                assert (got and got.insertion_seq) == next(
                    (r.seq for r in rows if r.priority == priority and overlaps(r.match, probe)),
                    None)


def test_flow_mods_call_no_match_comparison(monkeypatch):
    t = FlowTable(0)
    matches = []
    for i in range(10_000):
        addr = bytes([10, 0, i >> 8, i & 0xFF])
        pairs = {"eth_type": 0x0800, "ipv4_dst": (addr, "255.255.255.255") if i % 2 else addr}
        matches.append(MatchSet.from_pairs(pairs))
        t.insert(FlowEntry(matches[-1], i % 5, [], insertion_seq=i))
    calls = []
    eq = MatchSet.__eq__

    def counting(self, other):
        calls.append(1)
        return eq(self, other)

    monkeypatch.setattr(MatchSet, "__eq__", counting)
    old = t.entries[len(t) // 2]
    new = FlowEntry(MatchSet(list(old.match)[::-1]), old.priority, [], insertion_seq=10_000)
    assert t.insert(new) is old
    assert t.insert(FlowEntry(MatchSet(), 9, [], insertion_seq=10_001)) is None
    got = t.select(matches[7], True, 7 % 5)
    assert len(got) == 1 and got[0].match is matches[7]
    assert t.select(matches[7], True, 4) == []
    t.remove(got[0])
    t.remove(new)
    assert len(t) == 9_999
    assert calls == []


class _CountedEntry(FlowEntry):
    """A flow entry that counts how often its priority is read."""

    __slots__ = ()
    reads = 0

    @property
    def priority(self):
        _CountedEntry.reads += 1
        return FlowEntry.priority.__get__(self)

    @priority.setter
    def priority(self, value):
        FlowEntry.priority.__set__(self, value)


def test_one_match_at_many_priorities_costs_no_walk_of_its_key():
    """Entries that share one match share one key; adding, finding and
    removing one of them must not read every other entry at that key."""
    n = 3_000
    t = FlowTable(0)
    match = MatchSet.from_pairs({"eth_type": 0x0800})
    _CountedEntry.reads = 0
    for p in range(n):
        t.insert(_CountedEntry(match, p, [], insertion_seq=p))
    for p in reversed(range(n)):  # each removal takes the key's top entry
        (e,) = t.select(match, True, p)
        t.remove(e)
    assert len(t) == 0
    assert _CountedEntry.reads < 100 * n


# -- out_port and out_group ---------------------------------------------------------

def _two_flows():
    """A 1-table switch with a flow to port 1 at priority 10, one to
    port 2 (with a max_len) at 20, and one to group 7 at 30."""
    dp = Datapath(n_tables=1, clock=lambda: 0.0)
    dp.group_mod(m.GroupMod(m.OFPGC_ADD, m.OFPGT_INDIRECT, 7, [m.Bucket([m.OutputAction(3)])]))
    for priority, action in ((10, m.OutputAction(1)), (20, m.OutputAction(2, 128))):
        dp.flow_mod(m.FlowMod(command=m.OFPFC_ADD, priority=priority,
                              match=MatchSet.from_pairs({"in_port": action.port}),
                              instructions=[m.ApplyActions([action])]))
    dp.flow_mod(m.FlowMod(command=m.OFPFC_ADD, priority=30,
                          match=MatchSet.from_pairs({"in_port": 3}),
                          instructions=[m.WriteActions([m.GroupAction(7)])]))
    return dp


def _priorities(dp, **kw):
    return [s.priority for s in dp.flow_stats(m.FlowStatsRequest(0, **kw))]


def test_flow_stats_keep_only_flows_to_out_port_and_out_group():
    dp = _two_flows()
    assert _priorities(dp) == [30, 20, 10]
    assert _priorities(dp, out_port=2) == [20]
    assert _priorities(dp, out_port=5) == []
    assert _priorities(dp, out_group=7) == [30]
    assert _priorities(dp, out_port=2, out_group=7) == []


def test_delete_keeps_flows_not_to_out_port_or_out_group():
    dp = _two_flows()
    dp.flow_mod(m.FlowMod(command=m.OFPFC_DELETE, out_port=2))
    assert _priorities(dp) == [30, 10]
    dp.flow_mod(m.FlowMod(command=m.OFPFC_DELETE, out_group=8))
    assert _priorities(dp) == [30, 10]
    dp.flow_mod(m.FlowMod(command=m.OFPFC_DELETE, table_id=m.OFPTT_ALL, out_group=7))
    assert _priorities(dp) == [10]


def test_delete_strict_keeps_a_flow_not_to_out_port():
    dp = _two_flows()
    match = MatchSet.from_pairs({"in_port": 2})
    dp.flow_mod(m.FlowMod(command=m.OFPFC_DELETE_STRICT, match=match, priority=20, out_port=1))
    assert _priorities(dp) == [30, 20, 10]
    dp.flow_mod(m.FlowMod(command=m.OFPFC_DELETE_STRICT, match=match, priority=20, out_port=2))
    assert _priorities(dp) == [30, 10]


def test_modify_ignores_out_port():
    dp = _two_flows()
    ins = (m.ApplyActions((m.OutputAction(4),)),)
    dp.flow_mod(m.FlowMod(command=m.OFPFC_MODIFY, instructions=ins, out_port=5, out_group=9))
    assert all(e.instructions == ins for e in dp.tables[0].entries)
