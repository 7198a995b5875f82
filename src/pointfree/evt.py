"""Certified global maximization over exact rational intervals.

The maximizer runs a deterministic best-first branch and bound.  The lower
bound is advanced only by exact point evaluations at rational midpoints, so
every reported lower bound comes with an actual witness input; the upper
bound is the largest interval-evaluation bound over the live boxes.  The
result is a two-sided rational enclosure of the maximum together with an
outer cover of the maximizer set.

The searches run on the integer boxes of one dyadic grid (`_Grid`) and
compare by integer cross-multiplication, best first on integer keys
(`_Heap`).  Fractions are built only for what leaves a search: lower when
it rises, upper after each step, the trace, cover, witness, bound, pieces.

Each entry point compiles its expression once (`reals.compile_expr`) and
hands the compiled form to every evaluation and helper below it.
"""

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT
from .errors import BudgetExhausted, PointfreeError
from .reals import (RatInterval, compile_expr, eval_interval, eval_numerators,
                    eval_point, rat_bits)


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
    limits.check("expression degree", c.degree, "degree_cap")
    limits.check("constant bits", c.constant_bits, "constant_bit_cap")
    limits.check("value bits",
                 c.constant_bits + c.degree * (ends + rat_bits(eps)),
                 "constant_bit_cap")


MEMO_ENTRIES = 4096  # the most box bounds a memoizing _Grid keeps


class _Grid:
    """The dyadic boxes of a domain for a compiled expression e.  With D the
    lcm of the denominators of the domain's endpoints, the box (a, b, k) is
    [a/(D 2^k), b/(D 2^k)], its halves are (2a, a+b, k+1) and (a+b, 2b, k+1),
    and the kernel bounds it in numerators over scale(k) = C 2^(k deg).

    With memo, the grid keeps the bounds of the first MEMO_ENTRIES boxes it
    bounds, the top of the tree that every search starts from, and hands
    them out again: a box's bounds depend on e, the domain and the box
    alone, not on what a search compares them with."""

    def __init__(self, e, d, memo=False):
        self.e, self.deg = e, e.degree
        self.memo = {} if memo else None
        self.den = math.lcm(*(x.denominator for c in d.components
                              for x in (c.lo, c.hi)))
        self.roots = [(c.lo.numerator * (self.den // c.lo.denominator),
                       c.hi.numerator * (self.den // c.hi.denominator))
                      for c in d.components]
        self.pws = [[self.den ** i for i in range(self.deg + 1)]]
        self.c = e.scale(self.pws[0][-1])

    def bounds(self, a, b, k):
        """(lo, hi, F(m) or None) of the box (a, b, k) over scale(k)."""
        memo = self.memo
        if memo is not None:
            out = memo.get((a, b, k))
            if out is not None:
                return out
        pws = self.pws
        while len(pws) <= k:  # the powers of D 2^j at depth j
            pws.append([p << (i * len(pws)) for i, p in enumerate(pws[0])])
        out = eval_numerators(self.e, a, b, pws[k])
        if memo is not None and len(memo) < MEMO_ENTRIES:
            memo[a, b, k] = out
        return out

    def scale(self, k):
        return self.c << (k * self.deg)

    def interval(self, a, b, k):
        den = self.den << k
        return RatInterval(Fraction(a, den), Fraction(b, den))


class _Heap:
    """Live grid boxes best first: the largest upper bound, then the
    leftmost, then the narrowest.  An item is (-hi, lo, width, hi, a, b, k,
    F(m)), its first three keys brought to the deepest depth pushed so far,
    so that they compare as integers exactly as the values do; pushing a
    deeper box shifts every key left, which keeps the heap order."""

    def __init__(self, grid):
        self.grid, self.items, self.depth = grid, [], 0

    def offer(self, a, b, k, n, d):
        """Bound the box (a, b, k) and push it unless its upper bound is
        below n/d; the numerator of its lower bound."""
        lo, hi, fm = self.grid.bounds(a, b, k)
        if hi * d < n * self.grid.scale(k):
            return lo
        deg = self.grid.deg
        if k > self.depth:
            up = k - self.depth
            self.items[:] = [(h << up * deg, l << up, w << up, *box)
                             for h, l, w, *box in self.items]
            self.depth = k
        s = self.depth - k
        heapq.heappush(self.items, (-hi << s * deg, a << s, (b - a) << s,
                                    hi, a, b, k, fm))
        return lo


def _cover(grid, boxes, delta):
    """A MaximizerCover of grid boxes (a, b, k), sorted by (lo, hi)."""
    return MaximizerCover(tuple(sorted((grid.interval(*box) for box in boxes),
                                       key=lambda b: (b.lo, b.hi))), delta)


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
    lower = max(eval_point(e, box.midpoint()) for box in d.components)
    ln, ld = lower.numerator, lower.denominator
    grid = _Grid(e, d)
    heap = _Heap(grid)
    items, scale, deg = heap.items, grid.scale, e.degree
    for a, b in grid.roots:
        heap.offer(a, b, 0, ln, ld)
    nodes = 0

    def expand(a, b, k, fm):
        """Raise lower to F at the box's midpoint (a kernel call on the
        point unless the box carries it); the halves' depth."""
        nonlocal lower, ln, ld, nodes
        j = k
        if fm is None:
            fm, j = grid.bounds(a + b, a + b, k + 1)[0], k + 1
        if fm * ld > ln * scale(j):
            lower = Fraction(fm, scale(j))
            ln, ld = lower.numerator, lower.denominator
        nodes += 1
        return k + 1

    def live(hi, k):
        """Whether a box bounded above by hi over scale(k) reaches lower."""
        return hi * ld >= ln * scale(k)

    def upper_now():
        while items and not live(items[0][3], items[0][6]):
            heapq.heappop(items)  # lazily drop boxes pruned by a later lower
        return Fraction(items[0][3], scale(items[0][6])) if items else lower

    def exhausted(boxes):
        """The refusal, with boxes (hi, a, b, k, ...) as the partial cover."""
        return BudgetExhausted(
            f"node budget {node_budget} exhausted",
            partial=(DedekindEnclosure(lower, upper, eps, nodes, tuple(trace)),
                     _cover(grid, [box[1:4] for box in boxes], delta)))

    upper = upper_now()
    trace = [(lower, upper)]
    en, ed = eps.numerator, eps.denominator
    while ((upper.numerator * ld - ln * upper.denominator) * ed
           > en * upper.denominator * ld):  # upper - lower > eps
        if nodes >= node_budget:
            raise exhausted([item[3:] for item in items
                             if live(item[3], item[6])])
        _, _, _, _, a, b, k, fm = heapq.heappop(items)
        k, m = expand(a, b, k, fm), a + b
        for a, b in ((2 * a, m), (m, 2 * b)):
            heap.offer(a, b, k, ln, ld)
        upper = upper_now()
        trace.append((lower, upper))

    # refine the surviving boxes to the cover's width bound, leftmost first,
    # each with the upper bound it was evaluated to when it was pushed: the
    # boxes are disjoint, so a box's halves come before every box to its
    # right, and a stack keeps that order
    stack = [item[3:] for item in reversed(sorted(
        (item for item in items if live(item[3], item[6])),
        key=lambda item: (item[1], item[1] + item[2])))]
    survivors = []  # (hi, a, b, k, F(m))
    wide, dd = delta.numerator * grid.den, delta.denominator
    while stack:
        box = stack.pop()
        hi, a, b, k, fm = box
        if not live(hi, k):
            continue
        if (b - a) * dd <= wide << k:
            survivors.append(box)
            continue
        if nodes >= node_budget:
            # the box being refined is still live, so it stays in the cover
            raise exhausted(survivors + [box] + stack)
        k, m = expand(a, b, k, fm), a + b
        for a, b in ((m, 2 * b), (2 * a, m)):  # the left half on top
            _, hi, fm = grid.bounds(a, b, k)
            stack.append((hi, a, b, k, fm))
    survivors = [box for box in survivors if live(box[0], box[3])]
    deep = max(box[3] for box in survivors)
    best = max(box[0] << (deep - box[3]) * deg for box in survivors)
    if best * upper.denominator < upper.numerator * scale(deep):
        upper = Fraction(best, scale(deep))
    trace.append((lower, upper))
    enc = DedekindEnclosure(lower, upper, eps, nodes, tuple(trace))
    return enc, _cover(grid, [box[1:4] for box in survivors], delta)


# --- one-sided certificates -----------------------------------------------------
#
# Each search is a step generator: it yields before each split and returns
# its answer, so a caller grants splits one `next` at a time and can resume
# a search where it stopped.  A fresh generator runs to its first split
# request on the first `next`; each later `next` grants one split.

def _witness_steps(grid, q):
    """Best-first on the interval upper bound, so the search concentrates
    where the maximum can live; returns (box, interval lower bound) for the
    first box whose lower bound clears q, or None once no box is left."""
    heap = _Heap(grid)
    qn, qd = q.numerator, q.denominator

    def push(a, b, k):
        """Push the box unless its upper bound is below q (then it is
        useless); the box and its lower bound when that clears q."""
        lo = heap.offer(a, b, k, qn, qd)
        if lo * qd > qn * grid.scale(k):
            return grid.interval(a, b, k), Fraction(lo, grid.scale(k))
        return None

    for a, b in grid.roots:
        found = push(a, b, 0)
        if found is not None:
            return found
    while heap.items:
        _, _, _, _, a, b, k, _ = heapq.heappop(heap.items)
        if a == b:
            continue
        yield
        m = a + b
        for a, b in ((2 * a, m), (m, 2 * b)):
            found = push(a, b, k + 1)
            if found is not None:
                return found
    return None


def _cover_steps(grid, q):
    """Depth first, left to right; returns the pieces, each with interval
    upper bound below q, or None at a point box that is not below q."""
    qn, qd = q.numerator, q.denominator
    stack = [(a, b, 0) for a, b in reversed(grid.roots)]
    pieces = []
    while stack:
        a, b, k = box = stack.pop()
        if grid.bounds(a, b, k)[1] * qd < qn * grid.scale(k):
            pieces.append(box)
            continue
        if a == b:
            return None
        yield
        m = a + b
        stack.append((m, 2 * b, k + 1))
        stack.append((2 * a, m, k + 1))
    return [grid.interval(*box) for box in pieces]


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
    return _advance(steps(_Grid(compile_expr(e), d), q), budget + 1)


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


def locate(e, d, p, q, limits=DEFAULT, grid=None):
    """Constructive locatedness: decide p < max or max < q with certificates.

    Alternates one positivity search against p and one cover search against
    the midpoint q' = (p+q)/2 in rounds whose budgets double from 1, the
    last round capped at bnb_node_budget; each round resumes both searches
    where the last one stopped, so each splits at most bnb_node_budget
    times in all, and a budget below 1 refuses before any search.  Some
    branch must certify:
    if the maximum exceeds p a witness box eventually appears, and otherwise
    the maximum is below q', so a finite subdivision eventually certifies it.

    Both searches bound their boxes on one memoizing grid: grid if given
    (a _Grid of e and d with a memo, shared with other locates), else a
    fresh one.
    """
    p, q = Fraction(p), Fraction(q)
    if p >= q:
        raise PointfreeError("locate needs p < q")
    e = compile_expr(e)
    _check_size(e, d, q - p, limits)  # q - p plays the part of eps
    threshold = (p + q) / 2
    limit = limits.bnb_node_budget
    if grid is None:
        grid = _Grid(e, d, memo=True)
    witness = _witness_steps(grid, p)
    cover = _cover_steps(grid, threshold)
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
    and the monotonicity of the recorded bound trace.  The probes' locates
    share one memoizing grid; the re-checks evaluate afresh.
    """
    e = compile_expr(e)
    _check_size(e, d, enc.eps, limits)
    grid = _Grid(e, d, memo=True)
    probes = list(probes)
    failures = []
    for k, (p, q) in enumerate(probes):
        p, q = Fraction(p), Fraction(q)
        if p >= q:
            failures.append({"probe": k, "reason": "p >= q"})
            continue
        branch = locate(e, d, p, q, limits=limits, grid=grid)
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
