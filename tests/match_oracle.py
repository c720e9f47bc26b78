"""Match set algebra by byte-wise scan: the oracle that the flow table's
subtable selection and overlap check are tested against."""


def _fields(match):
    return {(f.oxm_class, f.field_id): f for f in match}


def _mask(f):
    return f.mask if f.mask is not None else b"\xff" * len(f.value)


def is_subset_of(narrow, wide) -> bool:
    """True when ``narrow`` matches at most the packets ``wide`` matches:
    every field of ``wide`` is present in ``narrow``, as wide, with an
    equal-or-narrower mask and agreeing bits.  This is non-strict flow-mod
    and flow-stats selection."""
    mine = _fields(narrow)
    for wf in wide:
        f = mine.get((wf.oxm_class, wf.field_id))
        if f is None or len(f.value) != len(wf.value):
            return False
        for mm, wm, mv, wv in zip(_mask(f), _mask(wf), f.value, wf.value):
            if (mm & wm) != wm:  # narrow must constrain every bit wide constrains
                return False
            if (mv & wm) != (wv & wm):
                return False
    return True


def overlaps(a, b) -> bool:
    """True when one packet could satisfy both match sets: every field both
    name is as wide in each and agrees under both masks."""
    other = _fields(b)
    for f in a:
        of = other.get((f.oxm_class, f.field_id))
        if of is None:
            continue
        if len(f.value) != len(of.value):
            return False
        for fm, om, fv, ov in zip(_mask(f), _mask(of), f.value, of.value):
            common = fm & om
            if (fv & common) != (ov & common):
                return False
    return True
