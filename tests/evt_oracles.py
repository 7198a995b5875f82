"""The one-sided searches and the locate that restarted them, kept as
independent oracles for `evt`, whose searches are step generators that
`locate` resumes from round to round.

Here each round of `locate` runs `positive_witness` and then
`cover_certificate` afresh at the round's budget, doubling from 1 and
capped at bnb_node_budget: a search at budget 2B repeats the B splits of
the round before.  The resumed searches must give the same branch,
witness, bound, threshold and pieces, or the same exhaustion."""

import heapq
from fractions import Fraction

from pointfree.config import DEFAULT
from pointfree.errors import BudgetExhausted, PointfreeError
from pointfree.evt import LeftBranch, RightBranch, _check_size
from pointfree.reals import RatInterval, compile_expr, eval_interval


def _push(heap, e, box, floor):
    bounds = eval_interval(e, box)
    if bounds.hi < floor:
        return None
    heapq.heappush(heap, (-bounds.hi, box.lo, box.width, box, bounds))
    return bounds


def positive_witness(e, d, q, budget):
    """Best first on the interval upper bound; a box whose interval lower
    bound clears q, or None after `budget` splits."""
    q = Fraction(q)
    if budget < 1:
        raise PointfreeError("budget must be at least 1")
    e = compile_expr(e)
    heap = []
    for box in d.components:
        bounds = _push(heap, e, box, q)
        if bounds is not None and bounds.lo > q:
            return box
    splits = 0
    while heap and splits < budget:
        _, _, _, box, bounds = heapq.heappop(heap)
        if box.is_point:
            continue
        mid = box.midpoint()
        splits += 1
        for child in (RatInterval(box.lo, mid), RatInterval(mid, box.hi)):
            cb = _push(heap, e, child, q)
            if cb is not None and cb.lo > q:
                return child
    return None


def cover_certificate(e, d, q, budget):
    """Depth first; pieces of d each with interval upper bound below q, or
    None after `budget` splits or at a point box not below q."""
    q = Fraction(q)
    if budget < 1:
        raise PointfreeError("budget must be at least 1")
    e = compile_expr(e)
    stack = list(reversed(d.components))
    pieces = []
    splits = 0
    while stack:
        box = stack.pop()
        if eval_interval(e, box).hi < q:
            pieces.append(box)
            continue
        if box.is_point or splits >= budget:
            return None
        mid = box.midpoint()
        splits += 1
        stack.append(RatInterval(mid, box.hi))
        stack.append(RatInterval(box.lo, mid))
    return pieces


def locate(e, d, p, q, limits=DEFAULT):
    p, q = Fraction(p), Fraction(q)
    if p >= q:
        raise PointfreeError("locate needs p < q")
    e = compile_expr(e)
    _check_size(e, d, q - p, limits)
    threshold = (p + q) / 2
    limit = limits.bnb_node_budget
    budget = 0
    while budget < limit:
        budget = min(2 * budget or 1, limit)
        w = positive_witness(e, d, p, budget)
        if w is not None:
            return LeftBranch(p, w, eval_interval(e, w).lo)
        c = cover_certificate(e, d, threshold, budget)
        if c is not None:
            return RightBranch(q, threshold, tuple(c))
    raise BudgetExhausted(f"locate budget {limit} exhausted for ({p}, {q})")
