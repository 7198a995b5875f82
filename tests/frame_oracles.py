"""The frame algorithms that theorems replaced, kept as independent
oracles for them.

- For the Horn closure (`presentations.saturate`): the fixpoint that
  down-closes the seed and rescans every stabilized rule until nothing
  changes, on frozensets of formal meets.
- For the bitmask engine: pairwise join closure of the principal
  C-ideals, the literal join-irreducible-and-prime points scan with its
  filter checks, and Hasse edges from the enumerated frame's Poset.  They
  run on the frozenset C-ideals of the fixpoint above, not on bitmasks.
- For the join-prime coproduct and Hausdorff check: the suplattice-tensor
  fixpoint with pairwise join closure, and the search of f ⊕ f for a
  closed (open) diagonal witness by comparing congruences.
- The literal subset scans behind positivity (u ≠ ⊥) and the frame law
  (binary distributivity).
"""

from itertools import combinations

from pointfree.config import DEFAULT
from pointfree.errors import CapExceeded, PointfreeError
from pointfree.frames import (Congruence, FrameHom, closed_congruence,
                              frame_from_order, open_congruence)
from pointfree.order import sort_key
from pointfree.presentations import stabilize


def down_close(p, meets):
    """All formal meets below some of the given ones: their supersets."""
    gens = p.generators
    out = set()
    frontier = list(meets)
    while frontier:
        m = frontier.pop()
        if m in out:
            continue
        out.add(m)
        for g in gens:
            if g not in m:
                frontier.append(m | {g})
    return out


def saturate(p, seed):
    """Least C-ideal containing the given formal meets, as a frozenset:
    down-close, then add the down-closed left side of every rule whose
    right side lies inside, until no rule adds anything."""
    members = down_close(p, seed)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in p.covers:
            if lhs not in members and rhs <= members:
                members |= down_close(p, [lhs])
                changed = True
    return frozenset(members)


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
            joins[u] = saturate(p, u)
        return joins[u]

    elems = {saturate(p, [])} | {saturate(p, [m]) for m in p.all_meets()}
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


# --- coproduct and Hausdorff by search -------------------------------------------

def _tensor_saturate(f, g, downset):
    """Close a downset of f × g under the two join-stability conditions."""
    d = set(downset)
    # empty joins: bottom rows and columns are always present
    d |= {(f.bottom, v) for v in g.elements}
    d |= {(u, g.bottom) for u in f.elements}
    changed = True
    while changed:
        changed = False
        for (u, v) in list(d):
            for (u2, v2) in list(d):
                if v2 == v:
                    cand = (f.join(u, u2), v)
                    if cand not in d:
                        d.add(cand)
                        changed = True
                if u2 == u:
                    cand = (u, g.join(v, v2))
                    if cand not in d:
                        d.add(cand)
                        changed = True
        # downward closure
        for (u, v) in list(d):
            for u2 in f.elements:
                for v2 in g.elements:
                    if f.le(u2, u) and g.le(v2, v) and (u2, v2) not in d:
                        d.add((u2, v2))
                        changed = True
    return frozenset(d)


def coproduct(f, g, cap=None):
    """Frame coproduct computed as the suplattice tensor product.

    Elements are the downsets of f × g closed under coordinatewise joins.
    Returns (tensor, inj1, inj2, rect) with the two coproduct injections and
    the basic-rectangle map rect(u, v) = u ⊕ v.
    """
    cap = cap if cap is not None else DEFAULT.coproduct_cap
    if len(f.elements) * len(g.elements) > cap:
        raise CapExceeded("coproduct carrier",
                          len(f.elements) * len(g.elements), cap)

    def rect_downset(u, v):
        return _tensor_saturate(f, g, {(u, v)})

    rects = {}
    for u in f.elements:
        for v in g.elements:
            rects[u, v] = rect_downset(u, v)
    bottom = _tensor_saturate(f, g, set())
    elems = {bottom} | set(rects.values())
    frontier = sorted(elems, key=sort_key)
    join_memo = {}

    def join(a, b):
        u = a | b
        if u in elems:
            return u
        if u not in join_memo:
            join_memo[u] = _tensor_saturate(f, g, u)
        return join_memo[u]

    while frontier:
        new = set()
        for a in frontier:
            for b in elems:
                j = join(a, b)
                if j not in elems and j not in new:
                    new.add(j)
        elems |= new
        frontier = sorted(new, key=sort_key)

    tensor = frame_from_order(elems, lambda a, b: a <= b,
                              lambda a, b: a & b, join)
    inj1 = FrameHom(f, tensor, {u: rects[u, g.top] for u in f.elements})
    inj2 = FrameHom(g, tensor, {v: rects[f.top, v] for v in g.elements})

    def rect(u, v):
        return rects[u, v]

    return tensor, inj1, inj2, rect


def diagonal_hom(f, cap=None):
    """The codiagonal u ⊕ v ↦ u ∧ v from f ⊕ f to f."""
    tensor, inj1, inj2, rect = coproduct(f, f, cap=cap)
    mapping = {d: f.join_all(f.meet(u, v) for (u, v) in sorted(d, key=sort_key))
               for d in tensor.elements}
    return tensor, FrameHom(tensor, f, mapping)


def is_hausdorff(f, cap=None):
    """Search f ⊕ f for a closed-diagonal witness. Returns (bool, witness)."""
    tensor, delta = diagonal_hom(f, cap=cap)
    kernel = Congruence.from_map(tensor, delta)
    for d in tensor.elements:
        if closed_congruence(tensor, d).classes == kernel.classes:
            return True, d
    return False, None


def has_open_diagonal(f, cap=None):
    tensor, delta = diagonal_hom(f, cap=cap)
    kernel = Congruence.from_map(tensor, delta)
    return any(open_congruence(tensor, d).classes == kernel.classes
               for d in tensor.elements)


# --- subset scans ------------------------------------------------------------------

def check_frame_distributivity(f):
    """Exhaustive a ∧ ⋁B = ⋁(a ∧ B) over all subsets B."""
    elems = f.elements
    for a in elems:
        for n in range(len(elems) + 1):
            for bs in combinations(elems, n):
                lhs = f.meet(a, f.join_all(bs))
                rhs = f.join_all(f.meet(a, b) for b in bs)
                if lhs != rhs:
                    return False
    return True


def is_positive(f, u):
    """Every cover of u is inhabited, scanning all subsets as covers."""
    if u not in f._index:
        raise PointfreeError(f"unknown element {u!r}")
    for n in range(len(f.elements) + 1):
        for s in combinations(f.elements, n):
            if f.le(u, f.join_all(s)) and not s:
                return False
    return True
