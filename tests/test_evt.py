"""Certified global maximization: enclosures, covers, one-sided certificates,
the locatedness dichotomy, and enclosure cross-examination."""

import collections
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import evt_oracles
from pointfree import evt, reals
from pointfree.config import Limits
from pointfree.errors import BudgetExhausted, CapExceeded, PointfreeError
from pointfree.evt import (DedekindEnclosure, LeftBranch, MaximizerCover,
                           RightBranch, _rat_sqrt_upper, cover_certificate,
                           cut_validate, evt_maximize, locate,
                           positive_witness)
from pointfree.reals import (Abs, BinOp, Const, Neg, Pow, Var, compile_expr,
                             domain_of, eval_interval, eval_point, parse_expr)

UNIT = domain_of((0, 1))

CORPUS = [
    ("x*(1 - x)", UNIT, F(1, 4)),
    ("min(x, 1 - x)", UNIT, F(1, 2)),
    ("abs(x - 1/3)", UNIT, F(2, 3)),
    ("x^3 - x", domain_of((-2, 2)), F(6)),
    ("max(abs(x), 1 - x^2)", domain_of((-1, 2)), F(2)),
]


def search_nodes(enc):
    """Nodes the search spent before cover refinement: the trace holds the
    initial bounds, one entry per search node and the final bounds."""
    return len(enc.trace) - 2


def test_exhausted_cover_keeps_the_box_being_refined():
    """When the budget runs out during cover refinement, the box popped for
    refinement is still live: every box of the full run's cover must lie
    inside a box of the exhausted run's cover."""
    e = parse_expr("max(x*(1-x), 1/4 - (x-1/4)^2)")
    done, full = evt_maximize(e, UNIT, F(1, 10000))
    budget = search_nodes(done) + 1  # one refinement split, then exhausted
    assert done.nodes_expanded > budget
    with pytest.raises(BudgetExhausted) as err:
        evt_maximize(e, UNIT, F(1, 10000),
                     limits=Limits(bnb_node_budget=budget))
    enc, partial = err.value.partial
    assert enc.nodes_expanded == budget
    assert enc.upper - enc.lower <= enc.eps  # the search had finished
    for b in full.intervals:
        assert any(p.lo <= b.lo and b.hi <= p.hi for p in partial.intervals)


def is_sorted_cover(cover):
    keys = [(b.lo, b.hi) for b in cover.intervals]
    return keys == sorted(keys)


@pytest.mark.parametrize("src, eps", [
    ("max(x*(1-x), 1/4 - (x-1/4)^2)", F(1, 100)),
    ("max(x*(1-x), 1/4 - (x-1/4)^2)", F(1, 10000)),
    ("max(x*(1-x), 1/4 - (x-1/4)^2)", F(1, 10 ** 6)),
    ("min(x, 1 - x)", F(1, 10000))])
def test_every_cover_is_sorted(src, eps):
    """Finished runs, and runs that exhaust their budget in the search or
    in cover refinement, all return their boxes sorted by (lo, hi)."""
    e = parse_expr(src)
    done, full = evt_maximize(e, UNIT, eps)
    assert is_sorted_cover(full)
    searched = search_nodes(done)
    budgets = {searched // 2: False,
               **{b: True for b in range(searched + 1, done.nodes_expanded)}}
    assert set(budgets.values()) == {False, True}  # both places are reached
    for budget, refining in budgets.items():
        with pytest.raises(BudgetExhausted) as err:
            evt_maximize(e, UNIT, eps, limits=Limits(bnb_node_budget=budget))
        enc, partial = err.value.partial
        assert (enc.upper - enc.lower <= enc.eps) == refining
        assert is_sorted_cover(partial)


def test_rat_sqrt_upper_bounds():
    for q in [F(1, 1000000), F(2), F(9, 4), F(1, 3)]:
        u = _rat_sqrt_upper(q)
        assert u * u >= q


# --- maximization -----------------------------------------------------------------

@pytest.mark.parametrize("src,dom,true_max", CORPUS)
def test_evt_encloses_the_true_maximum(src, dom, true_max):
    e = parse_expr(src)
    enc, cover = evt_maximize(e, dom, F(1, 10000))
    assert enc.lower <= true_max <= enc.upper
    assert enc.upper - enc.lower <= enc.eps
    assert enc.nodes_expanded < 10 ** 5


def test_evt_tight_tolerance_parabola():
    enc, cover = evt_maximize(parse_expr("x*(1 - x)"), UNIT, F(1, 10 ** 6))
    assert enc.lower <= F(1, 4) <= enc.upper
    assert enc.upper - enc.lower <= F(1, 10 ** 6)


def test_evt_centered_form_keeps_the_parabola_small():
    """The naive form needs 68,099 nodes here (the dependency problem);
    the centered form's O(width^2) overestimate needs a few dozen."""
    enc, cover = evt_maximize(parse_expr("x*(1 - x)"), UNIT, F(1, 10 ** 9))
    assert enc.lower <= F(1, 4) <= enc.upper
    assert enc.nodes_expanded <= 100
    assert any(b.lo <= F(1, 2) <= b.hi for b in cover.intervals)


# --- a corpus with closed-form maximizers ------------------------------------------

def rat(lo, hi, den):
    return st.integers(lo * den, hi * den).map(lambda n: F(n, den))


def poly_text(coeffs):
    """c0 + c1*x + c2*x*x + ..., powers as repeated x so the naive form
    meets the dependency problem."""
    return " + ".join(f"({c})" + "".join("*x" for _ in range(k))
                      for k, c in enumerate(coeffs))


def quadratic(a, v, top):
    """Coefficients of top - a (x - v)^2."""
    return [top - a * v * v, 2 * a * v, -a]


@st.composite
def peaked(draw):
    """(text, domain, argmax, max) for a quadratic, a cubic or the max of
    two quadratics with distinct peaks, on a domain around the argmax."""
    kind = draw(st.sampled_from(["quad", "cubic", "twopeak"]))
    left, right = draw(rat(0, 1, 8)) + F(1, 8), draw(rat(0, 1, 8)) + F(1, 8)
    v, top = draw(rat(-1, 1, 16)), draw(rat(-2, 2, 8))
    a = draw(rat(1, 3, 4))
    if kind == "quad":
        return poly_text(quadratic(a, v, top)), domain_of(
            (v - left, v + right)), v, top
    if kind == "cubic":
        # f' = -a (x - s)(x - v), s < v: local min at s, maximum at v on
        # [s, v + right], where f falls on both sides of v
        s = v - draw(rat(0, 1, 8)) - F(1, 8)
        f = [0, -a * s * v, a * (s + v) / 2, -a / 3]
        f[0] = top - sum(c * v ** k for k, c in enumerate(f))
        return poly_text(f), domain_of((s, v + right)), v, top
    w = v + draw(rat(0, 1, 8)) + F(1, 4)
    low = top - draw(st.sampled_from([F(1, 10), F(1, 100), F(1, 1000)]))
    b = draw(rat(1, 3, 4))
    peaks = [(v, top), (w, low)]
    if draw(st.booleans()):
        peaks = [(v, low), (w, top)]
    (v1, t1), (v2, t2) = peaks
    text = (f"max({poly_text(quadratic(a, v1, t1))}, "
            f"{poly_text(quadratic(b, v2, t2))})")
    argmax = v1 if t1 > t2 else v2
    return text, domain_of((v - left, w + right)), argmax, max(t1, t2)


@settings(max_examples=40, deadline=None)
@given(peaked(), st.sampled_from([F(1, 10 ** 3), F(1, 10 ** 5)]))
def test_evt_cover_holds_the_exact_argmax(case, eps):
    src, d, argmax, true_max = case
    e = parse_expr(src)
    assert eval_point(e, argmax) == true_max
    enc, cover = evt_maximize(e, d, eps)
    assert enc.lower <= true_max <= enc.upper
    assert enc.upper - enc.lower <= eps
    assert any(b.lo <= argmax <= b.hi for b in cover.intervals)
    for (lo1, hi1), (lo2, hi2) in zip(enc.trace, enc.trace[1:]):
        assert lo1 <= lo2 and hi2 <= hi1 and lo2 <= hi2


def test_evt_lower_bounds_are_witnessed():
    """Every recorded lower bound is attained by some input: it can never
    exceed the true maximum."""
    e = parse_expr("min(x, 1 - x)")
    enc, _ = evt_maximize(e, UNIT, F(1, 1000))
    for lo, hi in enc.trace:
        assert lo <= F(1, 2) <= hi


def test_evt_cover_contains_the_maximizer():
    e = parse_expr("x*(1 - x)")
    enc, cover = evt_maximize(e, UNIT, F(1, 10000))
    assert any(b.lo <= F(1, 2) <= b.hi for b in cover.intervals)
    for b in cover.intervals:
        assert b.hi - b.lo <= cover.delta
        assert eval_interval(e, b).hi >= enc.lower
    assert cover.delta ** 2 >= F(1, 10000)


def test_evt_cover_two_maximizers():
    # abs(x - 1/3) on [0,1] peaks at x=1: a single maximizer at the boundary
    e = parse_expr("abs(x - 1/3)")
    _, cover = evt_maximize(e, UNIT, F(1, 10000))
    assert all(b.hi <= F(1) for b in cover.intervals)
    assert any(b.hi == F(1) for b in cover.intervals)
    # a symmetric bump has maximizers near both +1 and -1
    e = parse_expr("abs(x) - x^2")
    _, cover = evt_maximize(e, domain_of((-1, 1)), F(1, 10000))
    assert any(b.hi <= 0 for b in cover.intervals)
    assert any(b.lo >= 0 for b in cover.intervals)


def test_evt_multi_component_domain():
    e = parse_expr("x*(1 - x)")
    enc, cover = evt_maximize(e, domain_of((0, F(1, 8)), (F(3, 8), 1)),
                              F(1, 10000))
    assert enc.lower <= F(1, 4) <= enc.upper
    assert all(F(3, 8) <= b.lo for b in cover.intervals)


def test_evt_is_deterministic():
    e = parse_expr("max(abs(x), 1 - x^2)")
    d = domain_of((-1, 2))
    assert evt_maximize(e, d, F(1, 1000)) == evt_maximize(e, d, F(1, 1000))


def test_evt_rejects_bad_eps():
    with pytest.raises(PointfreeError):
        evt_maximize(parse_expr("x"), UNIT, 0)


def test_evt_budget_exhaustion_reports_partial_enclosure():
    e = parse_expr("x*(1 - x)")
    done, _ = evt_maximize(e, UNIT, F(1, 10 ** 6))
    budget = search_nodes(done) // 2  # runs out inside the search
    with pytest.raises(BudgetExhausted) as err:
        evt_maximize(e, UNIT, F(1, 10 ** 6),
                     limits=Limits(bnb_node_budget=budget))
    enc, cover = err.value.partial
    assert enc.lower <= F(1, 4) <= enc.upper
    assert enc.upper - enc.lower > enc.eps
    assert enc.nodes_expanded == budget
    assert isinstance(cover, MaximizerCover)
    assert any(b.lo <= F(1, 2) <= b.hi for b in cover.intervals)


def test_evt_trace_is_monotone_and_nested():
    enc, _ = evt_maximize(parse_expr("x^3 - x"), domain_of((-2, 2)),
                          F(1, 1000))
    for (lo1, hi1), (lo2, hi2) in zip(enc.trace, enc.trace[1:]):
        assert lo1 <= lo2 and hi2 <= hi1 and lo2 <= hi2


def test_enclosure_rejects_crossed_bounds():
    with pytest.raises(PointfreeError):
        DedekindEnclosure(F(1), F(0), F(1, 10), 0, ())


# --- one-sided certificates ----------------------------------------------------------

def test_positive_witness_examples():
    e = parse_expr("x*(1 - x)")
    w = positive_witness(e, UNIT, F(1, 5), budget=1000)
    assert w is not None
    assert eval_interval(e, w).lo > F(1, 5)
    # nothing exceeds the true maximum
    assert positive_witness(e, UNIT, F(1, 4), budget=200) is None


def test_cover_certificate_examples():
    e = parse_expr("x*(1 - x)")
    pieces = cover_certificate(e, UNIT, F(1, 3), budget=1000)
    assert pieces is not None
    for piece in pieces:
        assert eval_interval(e, piece).hi < F(1, 3)
    # the pieces tile the domain exactly
    assert pieces[0].lo == F(0) and pieces[-1].hi == F(1)
    for a, b in zip(pieces, pieces[1:]):
        assert a.hi == b.lo
    # no cover below a bound the function actually reaches
    assert cover_certificate(e, UNIT, F(1, 4), budget=200) is None


def test_locate_left_branch():
    branch = locate(parse_expr("x*(1 - x)"), UNIT, F(1, 5), F(1, 3))
    assert isinstance(branch, LeftBranch)
    assert branch.bound > F(1, 5)


def test_locate_right_branch():
    branch = locate(parse_expr("x*(1 - x)"), UNIT, F(26, 100), F(40, 100))
    assert isinstance(branch, RightBranch)
    assert branch.threshold == F(33, 100)
    e = parse_expr("x*(1 - x)")
    for piece in branch.pieces:
        assert eval_interval(e, piece).hi < branch.threshold


def test_locate_tight_straddle():
    # the maximum 1/4 lies strictly between p and q: either branch is
    # acceptable, but one must be produced
    branch = locate(parse_expr("x*(1 - x)"), UNIT, F(24, 100), F(26, 100))
    assert isinstance(branch, (LeftBranch, RightBranch))


def test_locate_rejects_bad_interval():
    with pytest.raises(PointfreeError):
        locate(parse_expr("x"), UNIT, F(1), F(1))


def recording(steps, splits, active):
    """A step generator like steps that counts the splits it is granted
    into a new entry of splits and keeps its tag on active while it runs."""
    def run(*args):
        inner, k = steps(*args), len(splits)
        splits.append(0)
        while True:
            active.append(steps.__name__)
            try:
                next(inner)
            except StopIteration as stop:
                return stop.value
            finally:
                active.pop()
            yield
            splits[k] += 1
    return run


def record_searches(monkeypatch):
    """Splits granted to each search that evt starts, in order, and the
    name of the search running now (empty outside a search)."""
    splits, active = [], []
    for name in ("_witness_steps", "_cover_steps"):
        monkeypatch.setattr(evt, name,
                            recording(getattr(evt, name), splits, active))
    return splits, active


@pytest.mark.parametrize("limit", [1, 2, 5, 12])
def test_locate_rounds_keep_within_the_budget(monkeypatch, limit):
    """locate starts one witness search and one cover search and resumes
    them from round to round: neither splits more than bnb_node_budget
    times in all, and the last round brings both to it."""
    splits, _ = record_searches(monkeypatch)
    with pytest.raises(BudgetExhausted, match=f"locate budget {limit} "):
        locate(parse_expr("x*(1 - x)"), UNIT, F(1, 4) - F(1, 10 ** 9),
               F(1, 4) + F(1, 10 ** 9), limits=Limits(bnb_node_budget=limit))
    assert splits == [limit, limit]


def test_locate_budget_zero_refuses_before_searching(monkeypatch):
    def searched(*args):
        raise AssertionError("searched on a zero budget")

    monkeypatch.setattr(evt, "eval_interval", searched)
    monkeypatch.setattr(evt, "eval_point", searched)
    monkeypatch.setattr(evt, "eval_numerators", searched)
    with pytest.raises(BudgetExhausted, match="locate budget 0 exhausted"):
        locate(parse_expr("x*(1 - x)"), UNIT, F(1, 5), F(1, 3),
               limits=Limits(bnb_node_budget=0))


# --- the resumed searches against the restarting oracle ---------------------------

CONSTS = st.fractions(min_value=-2, max_value=2, max_denominator=6)
STEPS = st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8)


def expressions():
    """Trees over every node kind, x used several times as a rule."""
    leaves = st.one_of(st.just(Var()), st.just(Var()), CONSTS.map(Const))
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(Neg), sub.map(Abs), st.builds(Pow, sub, st.integers(0, 3)),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "min", "max"]),
                  sub, sub)), max_leaves=6)


@st.composite
def located_cases(draw):
    """(expression, domain, p, q, budget): one or two components, and p
    near a value the expression takes, so both branches and exhaustion
    occur."""
    e = draw(expressions())
    lo, w = draw(CONSTS), draw(STEPS)
    pairs = [(lo, lo + w)]
    if draw(st.booleans()):
        gap, w2 = draw(STEPS), draw(STEPS)
        pairs.append((lo + w + gap, lo + w + gap + w2))
    d = domain_of(*pairs)
    t = lo + w * draw(st.fractions(min_value=0, max_value=1,
                                   max_denominator=8))
    p = eval_point(e, t) + draw(st.sampled_from(
        [F(-1), F(-1, 100), F(0), F(1, 10 ** 4), F(1, 3)]))
    q = p + draw(st.sampled_from([F(1, 10 ** 6), F(1, 100), F(1)]))
    return e, d, p, q, draw(st.integers(0, 64))


def outcome(run):
    try:
        return run()
    except BudgetExhausted as exc:
        return ("exhausted", str(exc))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(located_cases())
@example((parse_expr("x*(1 - x)"), UNIT, F(1, 4) - F(1, 10 ** 9),
          F(1, 4) + F(1, 10 ** 9), 12))
@example((parse_expr("x*(1 - x)"), domain_of((0, 1), (2, 3)),
          F(2499, 10000), F(2501, 10000), 64))
@example((parse_expr("max(x*(1-x), 1/4 - (x-1/4)^2)"), UNIT, F(1, 4),
          F(3, 10), 64))
def test_resumed_searches_equal_the_restarting_oracle(case):
    """locate gives the same branch, witness, bound, threshold and pieces
    as the locate that restarted its searches each round, or the same
    exhaustion; each one-shot search gives the oracle's answer."""
    e, d, p, q, budget = case
    limits = Limits(bnb_node_budget=budget)
    assert (outcome(lambda: locate(e, d, p, q, limits=limits))
            == outcome(lambda: evt_oracles.locate(e, d, p, q, limits=limits)))
    if budget >= 1:
        assert (positive_witness(e, d, p, budget)
                == evt_oracles.positive_witness(e, d, p, budget))
        assert (cover_certificate(e, d, (p + q) / 2, budget)
                == evt_oracles.cover_certificate(e, d, (p + q) / 2, budget))


# --- the integer-box searches against the Fraction-box oracle ----------------------

@st.composite
def grid_cases(draw):
    """(expression, domain, eps, q, budget): one or two components, each
    of them a point one time in four, endpoints down to -2, and q near a
    value the expression takes, so that every search both answers and runs
    out."""
    e = draw(expressions())
    lo, pairs = draw(CONSTS), []
    for _ in range(draw(st.integers(1, 2))):
        w = draw(STEPS) if draw(st.integers(0, 3)) else F(0)
        pairs.append((lo, lo + w))
        lo += w + draw(STEPS)
    d = domain_of(*pairs)
    c = d.components[0]
    t = c.lo + (c.hi - c.lo) * draw(st.fractions(min_value=0, max_value=1,
                                                 max_denominator=8))
    q = eval_point(e, t) + draw(st.sampled_from(
        [F(-1), F(-1, 100), F(0), F(1, 10 ** 4), F(1, 3)]))
    eps = draw(st.sampled_from([F(1, 10), F(1, 10 ** 3), F(1, 10 ** 6)]))
    return e, d, eps, q, draw(st.integers(0, 64))


def answer(run):
    """What run returns, or the refusal it raises with its message and
    partial answer."""
    try:
        return run()
    except (BudgetExhausted, CapExceeded) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "partial", None)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(grid_cases())
@example((parse_expr("x*(1-x)"), domain_of((F(1, 3), F(1, 3)), (F(1, 2), 1)),
          F(1, 10 ** 8), F(1, 4), 13))
@example((parse_expr("x^3 - x"), domain_of((F(-3, 2), F(-1, 7))), F(1, 100),
          F(2, 5), 9))
@example((parse_expr("7/4 - 3*(x-2/3)^2"),
          domain_of((F(-3, 2), F(-1, 7)), (F(1, 2), F(1, 2)), (F(3, 5), 2)),
          F(1, 10 ** 5), F(7, 4), 8))
@example((parse_expr("x^0 + x^0"), domain_of((-1, 1)), F(1, 10), F(1), 3))
def test_integer_boxes_equal_the_fraction_box_oracle(case):
    """evt_maximize gives the oracle's lower, upper, nodes, trace and cover,
    or its exhaustion with the same message and partial answer; the
    witness and cover searches give its witness and bound, or pieces."""
    e, d, eps, q, budget = case
    limits = Limits(bnb_node_budget=budget)
    assert (answer(lambda: evt_maximize(e, d, eps, limits=limits))
            == answer(lambda: evt_oracles.evt_maximize(e, d, eps,
                                                       limits=limits)))
    if budget >= 1:
        for steps in ("_witness_steps", "_cover_steps"):
            # the oracle's searches take (e, d, q), evt's a grid and q
            oracle = getattr(evt_oracles, steps)(compile_expr(e), d, q)
            assert (evt._search(getattr(evt, steps), e, d, q, budget)
                    == evt._advance(oracle, budget + 1))


# --- work done once -----------------------------------------------------------------

def record_evaluations(monkeypatch, active):
    """The boxes evt hands the integer kernel, as rational intervals, each
    with the search running at the time; reals.eval_point must not be
    called (evt holds its own reference, for the components' midpoints)."""
    seen = []
    inner = evt.eval_numerators

    def recorder(c, a, b, pw):
        seen.append((tuple(active), (F(a, pw[1]), F(b, pw[1]))))
        return inner(c, a, b, pw)

    def point(*args):
        raise AssertionError("the kernel called eval_point")

    monkeypatch.setattr(evt, "eval_numerators", recorder)
    monkeypatch.setattr(reals, "eval_point", point)
    return seen


def assert_once(seen):
    counts = collections.Counter(seen)
    assert seen and max(counts.values()) == 1, counts.most_common(3)


@pytest.mark.parametrize("src, dom, eps", [
    ("x*(1-x)", domain_of((0, 1), (2, 3)), F(1, 10 ** 6)),
    ("max(x*(1-x), 1/4 - (x-1/4)^2)", UNIT, F(1, 10 ** 6))])
def test_evt_maximize_evaluates_each_box_once(monkeypatch, src, dom, eps):
    seen = record_evaluations(monkeypatch, [])
    enc, cover = evt_maximize(parse_expr(src), dom, eps)
    assert enc.upper - enc.lower <= eps and cover.intervals
    assert_once(seen)


@pytest.mark.parametrize("src, dom, p, q, limit", [
    ("x*(1-x)", domain_of((0, 1), (2, 3)), F(2499, 10000), F(2501, 10000),
     10 ** 6),
    ("max(x*(1-x), 1/4 - (x-1/4)^2)", UNIT, F(1, 4), F(3, 10), 10 ** 6),
    ("x*(1-x)", UNIT, F(1, 4) - F(1, 10 ** 9), F(1, 4) + F(1, 10 ** 9), 64)])
def test_locate_evaluates_each_box_once(monkeypatch, src, dom, p, q, limit):
    """Within one locate, a box is evaluated at most once over both of its
    searches and all rounds, and nothing is evaluated outside them."""
    splits, active = record_searches(monkeypatch)
    seen = record_evaluations(monkeypatch, active)
    outcome(lambda: locate(parse_expr(src), dom, p, q,
                           limits=Limits(bnb_node_budget=limit)))
    assert len(splits) == 2 and max(splits) > 4  # several rounds
    assert all(len(tag) == 1 for tag, _ in seen)
    assert_once([box for _, box in seen])


def validate_probes(enc, count, seed):
    """count probes (p, q) around the enclosure, of widths 1/10^3 down to
    1/10^6, so that the locates split the top of the tree many times."""
    rng = random.Random(seed)
    probes = []
    for _ in range(count):
        w = F(1, 10 ** rng.randrange(3, 7))
        p = enc.lower + w * rng.randrange(-20, 20)
        probes.append((p, p + w * rng.randrange(1, 4)))
    return probes


@pytest.mark.parametrize("src, dom", [
    ("x*(1-x)", domain_of((0, 1), (2, 3))),
    ("max(x*(1-x), 1/4 - (x-1/4)^2)", UNIT),
    ("x^3 - x", domain_of((-2, 2)))])
def test_cut_validate_evaluates_each_box_once(monkeypatch, src, dom):
    """The locates of one cut_validate evaluate a box at most once across
    all its probes; the re-checks of the certificates do not go through
    the grid."""
    e = parse_expr(src)
    enc, _ = evt_maximize(e, dom, F(1, 10 ** 6))
    seen = record_evaluations(monkeypatch, [])
    report = cut_validate(enc, validate_probes(enc, 20, 0), e, dom)
    assert report["ok"] and report["probes"] == 20
    assert_once(seen)


def test_cut_validate_rechecks_without_the_grid(monkeypatch):
    """A kernel that bounds every box of the grid far below its values
    gets right branches through the searches; the re-checks evaluate the
    pieces afresh and refuse them."""
    e = parse_expr("x*(1 - x)")
    enc, _ = evt_maximize(e, UNIT, F(1, 1000))
    monkeypatch.setattr(evt, "eval_numerators",
                        lambda c, a, b, pw: (-1, -1, None))
    report = cut_validate(enc, [(F(1, 10), F(1, 5))], e, UNIT)
    assert not report["ok"]
    assert {"probe": 0, "reason": "right certificate piece not below "
            "threshold"} in report["failures"]


def test_validate_memo_keeps_at_most_memo_entries(monkeypatch):
    """With room for 4 bounds, one grid serves a long validate, holds 4
    and gives the report and the branches of the restarting oracle, which
    bounds every box afresh."""
    e = parse_expr("max(x*(1-x), 1/4 - (x-1/4)^2)")
    enc, _ = evt_maximize(e, UNIT, F(1, 10 ** 6))
    probes = validate_probes(enc, 60, 1)
    full = cut_validate(enc, probes, e, UNIT)
    grids, branches, inner = [], [], evt.locate

    class RecordingGrid(evt._Grid):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            grids.append(self)

    def recording(*args, **kwargs):
        branches.append(inner(*args, **kwargs))
        return branches[-1]

    monkeypatch.setattr(evt, "MEMO_ENTRIES", 4)
    monkeypatch.setattr(evt, "_Grid", RecordingGrid)
    monkeypatch.setattr(evt, "locate", recording)
    seen = record_evaluations(monkeypatch, [])
    assert cut_validate(enc, probes, e, UNIT) == full
    assert full["ok"] and full["probes"] == 60
    assert len(grids) == 1 and len(grids[0].memo) == 4 < len(set(seen))
    assert branches == [evt_oracles.locate(e, UNIT, p, q) for p, q in probes]


def count_fractions(monkeypatch):
    """A list whose length is the number of Fractions built from here on."""
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(None)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    if hasattr(F, "_from_coprime_ints"):  # arithmetic bypasses __new__
        inner = F._from_coprime_ints.__func__

        def coprime(cls, *args):
            built.append(None)
            return inner(cls, *args)

        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(coprime))
    return built


@pytest.mark.parametrize("src, dom, eps", [
    ("x*(1-x)", domain_of((0, 1), (2, 3)), F(1, 10 ** 6)),
    ("max(x*(1-x), 1/4 - (x-1/4)^2)", UNIT, F(1, 10 ** 4)),
    ("max(x*(1-x), 1/4 - (x-1/4)^2)", UNIT, F(1, 10 ** 6)),
    ("x^3 - x", domain_of((-2, 2)), F(1, 10 ** 4)),
    ("7/4 - 3*(x-2/3)^2", domain_of((-1, 1)), F(1, 10 ** 6))])
def test_evt_maximize_builds_two_fractions_per_node(monkeypatch, src, dom,
                                                    eps):
    """Boxes, bounds, midpoint values and heap keys are integers: an
    expanded node builds a Fraction for upper and one more when lower
    rises, at most 2.  Besides these a run builds 2 per cover box and 4
    per domain component (its midpoint and the value there), and 4 more:
    eps, the cover's width bound (2) and the first upper.  The Fraction-box
    oracle builds over 10 per node."""
    e = parse_expr(src)
    built = count_fractions(monkeypatch)
    enc, cover = evt_maximize(e, dom, eps)
    fixed = 2 * len(cover.intervals) + 4 * len(dom.components) + 4
    assert len(built) - fixed <= 2 * enc.nodes_expanded
    built.clear()
    assert evt_oracles.evt_maximize(e, dom, eps) == (enc, cover)
    assert len(built) > 10 * enc.nodes_expanded


@pytest.mark.parametrize("run", [
    lambda e, lim: evt_maximize(e, UNIT, F(1, 1000), limits=lim),
    lambda e, lim: locate(e, UNIT, F(0), F(1), limits=lim),
    lambda e, lim: cut_validate(DedekindEnclosure(F(0), F(1), F(1), 0, ()),
                                [(F(0), F(1))], e, UNIT, limits=lim)],
    ids=["evt_maximize", "locate", "cut_validate"])
def test_degree_cap_refuses_before_evaluating(monkeypatch, run):
    def evaluated(*args):
        raise AssertionError("evaluated past the degree cap")

    monkeypatch.setattr(evt, "eval_point", evaluated)
    monkeypatch.setattr(evt, "eval_interval", evaluated)
    monkeypatch.setattr(evt, "eval_numerators", evaluated)
    with pytest.raises(CapExceeded, match=r"expression degree has size 12, "
                       r"exceeding cap 11 \(degree_cap\)"):
        run(parse_expr("(x^2 + 1)^3 * x^6"), Limits(degree_cap=11))


def test_degree_cap_refuses_before_building_the_kernel():
    """The kernel's constant factor for (x/3)^(10^7) is 3^(10^7), seconds
    to compute: the degree refusal comes first."""
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="degree_cap"):
        evt_maximize(parse_expr("(x*(1/3))^10000000"), UNIT, F(1, 1000))
    assert time.perf_counter() - start < 1


def test_degree_is_syntactic():
    for src, deg in [("2/3", 0), ("x", 1), ("-x + 1", 1), ("x*x*x", 3),
                     ("(x^2 + 1)^3 * x^6", 12), ("abs(x^3) - min(x, x^4)", 4),
                     ("max(x^2, 1)^5", 10), ("x^0", 0)]:
        assert compile_expr(parse_expr(src)).degree == deg


def test_locate_budget_exhaustion():
    # p equals the maximum: no witness ever clears p and no cover fits below
    # (p+q)/2 when q is close enough... here q generous so the right branch
    # fires; instead force exhaustion with a tiny budget on a straddle
    with pytest.raises(BudgetExhausted):
        locate(parse_expr("x*(1 - x)"), UNIT, F(1, 4) - F(1, 10 ** 9),
               F(1, 4) + F(1, 10 ** 9), limits=Limits(bnb_node_budget=4))


# --- validation -----------------------------------------------------------------------

@pytest.mark.parametrize("src,dom,true_max", CORPUS)
def test_cut_validate_random_probes(src, dom, true_max):
    e = parse_expr(src)
    enc, _ = evt_maximize(e, dom, F(1, 1000))
    rng = random.Random(0)
    probes = []
    for _ in range(30):
        p = enc.lower - 1 + F(rng.randrange(0, 2001), 1000)
        probes.append((p, p + F(rng.randrange(1, 1000), 1000)))
    report = cut_validate(enc, probes, e, dom)
    assert report["ok"] and report["failures"] == []
    assert report["probes"] == 30 and report["trace_monotone"]


def test_cut_validate_flags_bad_enclosure():
    e = parse_expr("x*(1 - x)")
    fake = DedekindEnclosure(F(0), F(1, 100), F(1, 100), 0, ())
    report = cut_validate(fake, [(F(1, 10), F(1, 5))], e, UNIT)
    assert not report["ok"]
    assert report["failures"][0]["reason"] == "left branch with p >= upper"


def test_cut_validate_flags_bad_trace():
    enc = DedekindEnclosure(F(0), F(1), F(1), 0,
                            ((F(0), F(1)), (F(0), F(2))))
    report = cut_validate(enc, [], parse_expr("x"), UNIT)
    assert not report["trace_monotone"] and not report["ok"]


def test_cut_validate_probes_keep_the_budget():
    """Each probe's locate runs on the bnb_node_budget it is given."""
    e = parse_expr("x*(1 - x)")
    enc, _ = evt_maximize(e, UNIT, F(1))
    # a probe straddling the maximum closely, so one split certifies neither
    # branch
    p, q = enc.lower - F(1, 10 ** 4), enc.lower + F(1, 10 ** 4)
    assert positive_witness(e, UNIT, p, 1) is None
    assert cover_certificate(e, UNIT, (p + q) / 2, 1) is None
    probes = [(p, q)]
    assert cut_validate(enc, probes, e, UNIT)["ok"]
    with pytest.raises(BudgetExhausted, match="locate budget 1 exhausted"):
        cut_validate(enc, probes, e, UNIT, limits=Limits(bnb_node_budget=1))
