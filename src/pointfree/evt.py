"""Certified global maximization over exact rational intervals.

The maximizer runs a deterministic best-first branch and bound.  The lower
bound is advanced only by exact point evaluations at rational midpoints, so
every reported lower bound comes with an actual witness input; the upper
bound is the largest interval-evaluation bound over the live boxes.  The
result is a two-sided rational enclosure of the maximum together with an
outer cover of the maximizer set.

Each entry point compiles its expression once (`reals.compile_expr`) and
hands the compiled form to every evaluation and helper below it.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT
from .errors import BudgetExhausted, CapExceeded, PointfreeError
from .reals import (RatInterval, compile_expr, eval_interval, eval_point,
                    rat_bits)


@dataclass(frozen=True)
class DedekindEnclosure:
    lower: Fraction
    upper: Fraction
    eps: Fraction
    nodes_expanded: int
    trace: tuple  # ((lower_k, upper_k), ...) per expansion step

    def __post_init__(self):
        if self.lower > self.upper:
            raise PointfreeError("enclosure with lower > upper")


@dataclass(frozen=True)
class MaximizerCover:
    intervals: tuple  # closed RatIntervals, sorted, cannot be excluded
    delta: Fraction   # width bound: every interval has width <= delta


def _rat_sqrt_upper(q):
    """A rational upper bound on sqrt(q) for q > 0."""
    q = Fraction(q)
    n = q.numerator * q.denominator
    return Fraction(math.isqrt(n) + 1, q.denominator)


def _check_size(c, d, eps, limits):
    """Refuse a compiled expression past degree_cap or constant_bit_cap
    before any power is computed: its values grow in bit size with both, and
    with the degree times the bits of the domain's endpoints and of eps."""
    ends = max(rat_bits(b) for box in d.components for b in (box.lo, box.hi))
    for what, size, field in (
            ("expression degree", c.degree, "degree_cap"),
            ("constant bits", c.constant_bits, "constant_bit_cap"),
            ("value bits",
             c.constant_bits + c.degree * (ends + rat_bits(eps)),
             "constant_bit_cap")):
        if size > getattr(limits, field):
            raise CapExceeded(what, size, getattr(limits, field), field=field)


def _push(heap, e, box, floor):
    """Evaluate a box and add it to the live heap unless provably below
    the current lower bound."""
    bounds = eval_interval(e, box)
    if bounds.hi < floor:
        return None
    heapq.heappush(heap, (-bounds.hi, box.lo, box.width, box, bounds))
    return bounds


def evt_maximize(e, d, eps, limits=DEFAULT):
    """Enclose max of e over d within eps, expanding at most
    bnb_node_budget nodes; returns (enclosure, cover)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise PointfreeError("eps must be strictly positive")
    e = compile_expr(e)
    _check_size(e, d, eps, limits)
    node_budget = limits.bnb_node_budget
    delta = _rat_sqrt_upper(eps)  # the cover's width bound
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
            heapq.heappop(heap)  # lazily drop boxes pruned by a later lower
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

    # refine the surviving boxes to the cover's width bound, each box with
    # the upper bound it was evaluated to when it was pushed
    work = []  # heap of (lo, hi, seq, box, upper bound): leftmost box first
    seq = itertools.count()

    def push(box, top):
        heapq.heappush(work, (box.lo, box.hi, next(seq), box, top))

    for item in heap:
        if -item[0] >= lower:
            push(item[3], -item[0])
    survivors = []  # (box, upper bound)
    while work:
        _, _, _, box, top = heapq.heappop(work)
        if top < lower:
            continue
        if box.width <= delta:
            survivors.append((box, top))
            continue
        if nodes >= node_budget:
            # the box being refined is still live, so it stays in the cover
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


def _cover(boxes, delta):
    """A MaximizerCover with its boxes sorted by (lo, hi)."""
    return MaximizerCover(tuple(sorted(boxes, key=lambda b: (b.lo, b.hi))),
                          delta)


# --- one-sided certificates -----------------------------------------------------
#
# Each search is a step generator: it yields before each split and returns
# its answer, so a caller grants splits one `next` at a time and can resume
# a search where it stopped.  A fresh generator runs to its first split
# request on the first `next`; each later `next` grants one split.

def _witness_steps(e, d, q):
    """Best-first on the interval upper bound, so the search concentrates
    where the maximum can live; returns (box, interval lower bound) for the
    first box whose lower bound clears q, or None once no box is left."""
    heap = []
    for box in d.components:
        bounds = _push(heap, e, box, q)  # floor q: boxes with hi < q useless
        if bounds is not None and bounds.lo > q:
            return box, bounds.lo
    while heap:
        _, _, _, box, bounds = heapq.heappop(heap)
        if box.is_point:
            continue
        yield
        mid = box.midpoint()
        for child in (RatInterval(box.lo, mid), RatInterval(mid, box.hi)):
            cb = _push(heap, e, child, q)
            if cb is not None and cb.lo > q:
                return child, cb.lo
    return None


def _cover_steps(e, d, q):
    """Depth first, left to right; returns the pieces, each with interval
    upper bound below q, or None at a point box that is not below q."""
    stack = list(reversed(d.components))
    pieces = []
    while stack:
        box = stack.pop()
        if eval_interval(e, box).hi < q:
            pieces.append(box)
            continue
        if box.is_point:
            return None
        yield
        mid = box.midpoint()
        stack.append(RatInterval(mid, box.hi))
        stack.append(RatInterval(box.lo, mid))
    return pieces


def _advance(steps, grants):
    """The answer of a step generator after `grants` more calls of `next`
    (a search that has answered answers None again), or None while it
    still waits for a split."""
    try:
        for _ in range(grants):
            next(steps)
    except StopIteration as stop:
        return stop.value
    return None


def _search(steps, e, d, q, budget):
    q = Fraction(q)
    if budget < 1:
        raise PointfreeError("budget must be at least 1")
    # one `next` to start, then one per split
    return _advance(steps(compile_expr(e), d, q), budget + 1)


def positive_witness(e, d, q, budget):
    """A subinterval of d on which e provably exceeds q, or None (exhausted
    after `budget` splits).  A box is a witness when its interval lower
    bound already clears q.  Exhaustion is inconclusive, not a refutation.
    """
    found = _search(_witness_steps, e, d, q, budget)
    return None if found is None else found[0]


def cover_certificate(e, d, q, budget):
    """A finite subdivision of d with e provably below q on every piece,
    or None (exhausted after `budget` splits).  The pieces union exactly
    to d."""
    return _search(_cover_steps, e, d, q, budget)


@dataclass(frozen=True)
class LeftBranch:
    """Certifies p < max: a witness interval with interval lower bound > p."""

    p: Fraction
    witness: RatInterval
    bound: Fraction  # the certified strict lower bound on the witness


@dataclass(frozen=True)
class RightBranch:
    """Certifies max < q via a threshold q' < q and a full cover below q'."""

    q: Fraction
    threshold: Fraction
    pieces: tuple


def locate(e, d, p, q, limits=DEFAULT):
    """Constructive locatedness: decide p < max or max < q with certificates.

    Alternates one positivity search against p and one cover search against
    the midpoint q' = (p+q)/2 in rounds whose budgets double from 1, the
    last round capped at bnb_node_budget; each round resumes both searches
    where the last one stopped, so each splits at most bnb_node_budget
    times in all, and a budget below 1 refuses before any search.  Some
    branch must certify:
    if the maximum exceeds p a witness box eventually appears, and otherwise
    the maximum is below q', so a finite subdivision eventually certifies it.
    """
    p, q = Fraction(p), Fraction(q)
    if p >= q:
        raise PointfreeError("locate needs p < q")
    e = compile_expr(e)
    _check_size(e, d, q - p, limits)  # q - p plays the part of eps
    threshold = (p + q) / 2
    limit = limits.bnb_node_budget
    witness = _witness_steps(e, d, p)
    cover = _cover_steps(e, d, threshold)
    budget, granted = 0, -1  # each search takes one `next` to start
    while budget < limit:
        budget = min(2 * budget or 1, limit)
        found = _advance(witness, budget - granted)
        if found is not None:
            return LeftBranch(p, *found)
        pieces = _advance(cover, budget - granted)
        if pieces is not None:
            return RightBranch(q, threshold, tuple(pieces))
        granted = budget
    raise BudgetExhausted(f"locate budget {limit} exhausted for ({p}, {q})")


def cut_validate(enc, probes, e, d, limits=DEFAULT):
    """Cross-examine an enclosure with locate dichotomies, each on the
    bnb_node_budget of limits.

    For each probe (p, q) with p < q, the returned branch must be consistent
    with the enclosure: a left branch (p < max) requires p < upper, a right
    branch (max < q) requires lower < q.  Also re-checks every certificate
    and the monotonicity of the recorded bound trace.
    """
    e = compile_expr(e)
    _check_size(e, d, enc.eps, limits)
    probes = list(probes)
    failures = []
    for k, (p, q) in enumerate(probes):
        p, q = Fraction(p), Fraction(q)
        if p >= q:
            failures.append({"probe": k, "reason": "p >= q"})
            continue
        branch = locate(e, d, p, q, limits=limits)
        if isinstance(branch, LeftBranch):
            if eval_interval(e, branch.witness).lo <= p:
                failures.append({"probe": k, "reason": "left certificate "
                                 "does not clear p"})
            if not p < enc.upper:
                failures.append({"probe": k,
                                 "reason": "left branch with p >= upper"})
        else:
            if any(eval_interval(e, piece).hi >= branch.threshold
                   for piece in branch.pieces):
                failures.append({"probe": k, "reason": "right certificate "
                                 "piece not below threshold"})
            if not enc.lower < q:
                failures.append({"probe": k,
                                 "reason": "right branch with lower >= q"})
    trace_ok = all(a[0] <= b[0] and a[1] >= b[1] and b[0] <= b[1]
                   for a, b in zip(enc.trace, enc.trace[1:]))
    if enc.trace and not all(lo <= hi for lo, hi in enc.trace):
        trace_ok = False
    return {"probes": len(probes), "failures": failures,
            "trace_monotone": trace_ok,
            "ok": trace_ok and not failures}
