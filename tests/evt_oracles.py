"""The searches of `evt` on `Fraction` boxes, kept as independent oracles
for `evt`, whose searches run on integer boxes of one dyadic grid and whose
`locate` resumes its step generators from round to round.

`evt_maximize`, `_witness_steps` and `_cover_steps` are the searches as
they ran on `RatInterval` boxes, evaluated by `reals.eval_interval` and
`reals.eval_point` and keyed on `Fraction`s; the integer searches must give
the same enclosure, trace, cover, witness, bound and pieces, or the same
exhaustion with the same partial answer.

`positive_witness`, `cover_certificate` and `locate` restart: each round
of `locate` runs `positive_witness` and then `cover_certificate` afresh at
the round's budget, doubling from 1 and capped at bnb_node_budget, so a
search at budget 2B repeats the B splits of the round before.  The resumed
searches must give the same branch, witness, bound, threshold and pieces,
or the same exhaustion."""

import heapq
import itertools
from fractions import Fraction

from pointfree.config import DEFAULT
from pointfree.errors import BudgetExhausted, PointfreeError
from pointfree.evt import (DedekindEnclosure, LeftBranch, MaximizerCover,
                           RightBranch, _check_size, _rat_sqrt_upper)
from pointfree.reals import (RatInterval, compile_expr, eval_interval,
                             eval_point)


def _push(heap, e, box, floor):
    """Evaluate a box and add it to the live heap unless provably below
    floor."""
    bounds = eval_interval(e, box)
    if bounds.hi < floor:
        return None
    heapq.heappush(heap, (-bounds.hi, box.lo, box.hi - box.lo, box, bounds))
    return bounds


def _cover(boxes, delta):
    return MaximizerCover(tuple(sorted(boxes, key=lambda b: (b.lo, b.hi))),
                          delta)


def evt_maximize(e, d, eps, limits=DEFAULT):
    """Best first on (-hi, lo, width), then cover refinement leftmost box
    first, each box evaluated when it is pushed."""
    eps = Fraction(eps)
    if eps <= 0:
        raise PointfreeError("eps must be strictly positive")
    e = compile_expr(e)
    _check_size(e, d, eps, limits)
    node_budget = limits.bnb_node_budget
    delta = _rat_sqrt_upper(eps)
    heap = []
    lower = None
    for box in d.components:
        val = eval_point(e, box.midpoint())
        lower = val if lower is None else max(lower, val)
    for box in d.components:
        _push(heap, e, box, lower)
    nodes = 0

    def upper_now():
        while heap and -heap[0][0] < lower:
            heapq.heappop(heap)
        return -heap[0][0] if heap else lower

    upper = upper_now()
    trace = [(lower, upper)]
    while upper - lower > eps:
        if nodes >= node_budget:
            raise BudgetExhausted(
                f"node budget {node_budget} exhausted",
                partial=(DedekindEnclosure(lower, upper, eps, nodes,
                                           tuple(trace)),
                         _cover([item[3] for item in heap
                                 if -item[0] >= lower], delta)))
        _, _, _, box, _ = heapq.heappop(heap)
        mid = box.midpoint()
        lower = max(lower, eval_point(e, mid))
        nodes += 1
        _push(heap, e, RatInterval(box.lo, mid), lower)
        _push(heap, e, RatInterval(mid, box.hi), lower)
        upper = upper_now()
        trace.append((lower, upper))

    work = []  # heap of (lo, hi, seq, box, upper bound): leftmost box first
    seq = itertools.count()

    def push(box, top):
        heapq.heappush(work, (box.lo, box.hi, next(seq), box, top))

    for item in heap:
        if -item[0] >= lower:
            push(item[3], -item[0])
    survivors = []
    while work:
        _, _, _, box, top = heapq.heappop(work)
        if top < lower:
            continue
        if box.hi - box.lo <= delta:
            survivors.append((box, top))
            continue
        if nodes >= node_budget:
            raise BudgetExhausted(
                f"node budget {node_budget} exhausted",
                partial=(DedekindEnclosure(lower, upper, eps, nodes,
                                           tuple(trace)),
                         _cover([b for b, _ in survivors] + [box] +
                                [item[3] for item in work], delta)))
        mid = box.midpoint()
        lower = max(lower, eval_point(e, mid))
        nodes += 1
        for child in (RatInterval(box.lo, mid), RatInterval(mid, box.hi)):
            push(child, eval_interval(e, child).hi)
    survivors = [(b, top) for b, top in survivors if top >= lower]
    upper = min(upper, max(top for _, top in survivors))
    trace.append((lower, upper))
    enc = DedekindEnclosure(lower, upper, eps, nodes, tuple(trace))
    return enc, _cover([b for b, _ in survivors], delta)


def _witness_steps(e, d, q):
    """Best first on the interval upper bound; (box, interval lower bound)
    for the first box whose lower bound clears q, or None."""
    heap = []
    for box in d.components:
        bounds = _push(heap, e, box, q)
        if bounds is not None and bounds.lo > q:
            return box, bounds.lo
    while heap:
        _, _, _, box, bounds = heapq.heappop(heap)
        if box.lo == box.hi:
            continue
        yield
        mid = box.midpoint()
        for child in (RatInterval(box.lo, mid), RatInterval(mid, box.hi)):
            cb = _push(heap, e, child, q)
            if cb is not None and cb.lo > q:
                return child, cb.lo
    return None


def _cover_steps(e, d, q):
    """Depth first, left to right; the pieces, each with interval upper
    bound below q, or None at a point box that is not below q."""
    stack = list(reversed(d.components))
    pieces = []
    while stack:
        box = stack.pop()
        if eval_interval(e, box).hi < q:
            pieces.append(box)
            continue
        if box.lo == box.hi:
            return None
        yield
        mid = box.midpoint()
        stack.append(RatInterval(mid, box.hi))
        stack.append(RatInterval(box.lo, mid))
    return pieces


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
        if box.lo == box.hi:
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
        if box.lo == box.hi or splits >= budget:
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
