"""The frame algorithms the bitmask engine replaced, kept as independent
oracles for it: pairwise join closure of the principal C-ideals, the
literal join-irreducible-and-prime points scan with its filter checks,
and Hasse edges from the enumerated frame's Poset.  They run on the
frozenset C-ideals of `presentations.saturate`, not on bitmasks."""

from pointfree.errors import PointfreeError
from pointfree.frames import frame_from_order
from pointfree.order import sort_key
from pointfree.presentations import saturate, stabilize


def enumerate_frame(p):
    """Every C-ideal is a join of principal ones: close the bottom and the
    principal C-ideals under binary joins, O(n²) saturations."""
    p = stabilize(p)
    joins = {}

    def join(a, b):
        u = a | b
        if u in elems:
            return u
        if u not in joins:
            joins[u] = saturate(p, u).members
        return joins[u]

    elems = ({saturate(p, []).members}
             | {saturate(p, [m]).members for m in p.all_meets()})
    frontier = list(elems)
    while frontier:
        new = {join(a, b) for a in frontier for b in elems} - elems
        elems |= new
        frontier = list(new)
    return frame_from_order(elems, lambda a, b: a <= b,
                            lambda a, b: a & b, join)


def hasse_edges(f):
    return f.as_poset().hasse_edges()


def points(f):
    """Upsets of the join-irreducible elements that are also join-prime,
    each re-checked as a filter: O(n³)."""
    pts = []
    for j in f.elements:
        if j == f.bottom:
            continue
        strictly_below = [x for x in f.elements if f.le(x, j) and x != j]
        if f.join_all(strictly_below) == j:
            continue
        if any(f.le(j, f.join(a, b)) and not f.le(j, a) and not f.le(j, b)
               for a in f.elements for b in f.elements):
            continue
        pts.append(frozenset(x for x in f.elements if f.le(j, x)))
    for filt in pts:
        _check_point(f, filt)
    return sorted(pts, key=sort_key)


def _check_point(f, filt):
    if f.top not in filt or f.bottom in filt:
        raise PointfreeError("point fails top/bottom conditions")
    for a in filt:
        for b in f.elements:
            if f.le(a, b) and b not in filt:
                raise PointfreeError("point not upward closed")
        for b in filt:
            if f.meet(a, b) not in filt:
                raise PointfreeError("point not meet closed")
