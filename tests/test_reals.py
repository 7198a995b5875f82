"""Exact rational arithmetic and interval evaluation."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from interval_oracles import (centered_enclosure, naive_enclosure, point_value,
                              two_pass_numerators)
from pointfree.errors import ParseError, PointfreeError
from pointfree.reals import (MAX_EXPR_DEPTH, Abs, BinOp, Const, Domain, Neg,
                             Pow, RatInterval, Var, compile_expr, domain_of,
                             eval_interval, eval_numerators, eval_point,
                             interval, parse_domain,
                             parse_expr, parse_rat, rat_decimal, rat_str)


# --- rationals -------------------------------------------------------------------

def test_parse_rat_examples():
    assert parse_rat("3/7") == F(3, 7)
    assert parse_rat("-2") == F(-2)
    assert parse_rat("0.25") == F(1, 4)
    with pytest.raises(ParseError):
        parse_rat("zzz")


def test_rat_str_round_trip():
    for q in [F(0), F(1, 3), F(-7, 2), F(5)]:
        assert parse_rat(rat_str(q)) == q


def test_rat_decimal_rounding():
    assert rat_decimal(F(1, 3), 4) == "0.3333"
    assert rat_decimal(F(1, 4), 1) == "0.3"  # half rounds away from zero
    assert rat_decimal(F(-1, 4), 1) == "-0.3"
    assert rat_decimal(F(2), 2) == "2.00"


# --- expressions ---------------------------------------------------------------------

def test_parse_expr_errors_carry_columns():
    with pytest.raises(ParseError) as err:
        parse_expr("x + ")
    assert err.value.col is not None
    with pytest.raises(ParseError):
        parse_expr("min(x)")
    with pytest.raises(ParseError):
        parse_expr("x ^ y")  # exponent must be a natural number
    with pytest.raises(ParseError):
        parse_expr("sin(x)")


def test_parse_expr_bounds_nesting_and_tree_depth():
    """Deep input is refused with a column, not a RecursionError: nesting
    is bounded on the way down, operator chains as their trees are built."""
    deep = MAX_EXPR_DEPTH + 1
    for src, col in [("(" * 2000 + "x" + ")" * 2000, deep),
                     ("abs(" * 2000 + "x" + ")" * 2000, 4 * MAX_EXPR_DEPTH + 1),
                     ("-" * 5000 + "x", deep),
                     ("+".join(["x"] * 5000), 2 * MAX_EXPR_DEPTH),
                     ("*".join(["x"] * 5000), 2 * MAX_EXPR_DEPTH),
                     ("x" + "^1" * 5000, 2 * MAX_EXPR_DEPTH)]:
        with pytest.raises(ParseError) as err:
            parse_expr(src)
        assert err.value.col == col
        assert f"at col {col}" in str(err.value)
    # the bound itself is admitted, and the evaluators walk such trees
    for src in ["(" * MAX_EXPR_DEPTH + "x" + ")" * MAX_EXPR_DEPTH,
                "+".join(["x"] * MAX_EXPR_DEPTH),
                "max(x, " * (MAX_EXPR_DEPTH - 1) + "x" + ")" * (MAX_EXPR_DEPTH - 1)]:
        e = parse_expr(src)
        assert eval_interval(e, RatInterval(F(0), F(1))).hi >= eval_point(e, 1)


def test_eval_point_examples():
    e = parse_expr("x*(1 - x)")
    assert eval_point(e, F(1, 2)) == F(1, 4)
    assert eval_point(parse_expr("abs(x - 1/3)"), F(0)) == F(1, 3)
    assert eval_point(parse_expr("min(x, 1 - x)"), F(3, 4)) == F(1, 4)


def test_eval_interval_examples():
    e = parse_expr("x*(1 - x)")
    out = eval_interval(e, interval(0, 1))
    assert out.lo <= F(0) and out.hi >= F(1, 4)
    const = eval_interval(parse_expr("2/3"), interval(-5, 5))
    assert const == interval(F(2, 3), F(2, 3))


def test_eval_interval_point_box_is_exact():
    for src, x in [("abs(x - 1/3)", F(1, 3)), ("x*(1 - x)", F(1, 2)),
                   ("min(x, 1 - x)", F(1, 5)), ("x^3 - x", F(-2))]:
        e = parse_expr(src)
        out = eval_interval(e, interval(x, x))
        assert out.lo == out.hi == eval_point(e, x)


CORPUS = ["x*(1 - x)", "min(x, 1 - x)", "abs(x - 1/3)",
          "x^3 - x", "max(abs(x), 1 - x^2)"]


@pytest.mark.parametrize("src", CORPUS)
def test_enclosure_soundness_on_sampled_points(src):
    e = parse_expr(src)
    lo, hi = F(-1), F(2)
    box = interval(lo, hi)
    out = eval_interval(e, box)
    for k in range(1000):
        x = lo + (hi - lo) * F(k, 999)
        v = eval_point(e, x)
        assert out.lo <= v <= out.hi


@pytest.mark.parametrize("src", CORPUS)
def test_enclosure_monotone_under_box_inclusion(src):
    e = parse_expr(src)
    outer = eval_interval(e, interval(-1, 2))
    for lo, hi in [(F(-1), F(0)), (F(0), F(1)), (F(1, 4), F(3, 4))]:
        inner = eval_interval(e, interval(lo, hi))
        assert outer.lo <= inner.lo and inner.hi <= outer.hi


def test_centered_form_overestimates_by_the_width_squared():
    """x*(1-x) uses x twice: the naive form overshoots the maximum 1/4 on
    [1/2 - w, 1/2 + w] by w + w^2, the centered form by exactly 2w^2."""
    e = parse_expr("x*(1 - x)")
    for k in range(1, 12):
        w = F(1, 2 ** k)
        box = interval(F(1, 2) - w, F(1, 2) + w)
        assert eval_interval(e, box).hi == F(1, 4) + 2 * w * w
        assert naive_enclosure(e, box.lo, box.hi)[1] == F(1, 4) + w + w * w


@pytest.mark.parametrize("src, x", [("abs(x) - x", -1), ("max(x, -x) + x", 1),
                                    ("min(x, -x) - x", 1),
                                    ("abs(x*x - 1/4) - x*x", 1)])
def test_kinks_take_the_hull_of_the_branch_slopes(src, x):
    """Where the branches meet inside the box, a slope from one branch
    alone would cancel against the other term and miss the far end."""
    e = parse_expr(src)
    out = eval_interval(e, interval(-1, 1))
    assert out.lo <= eval_point(e, x) <= out.hi
    assert out.lo <= eval_point(e, 0) <= out.hi


def test_single_use_expressions_get_the_exact_range():
    for src, box, out in [("1 - (x - 1/2)^2", interval(0, 1), (F(3, 4), 1)),
                          ("abs(2*x - 1) + 3", interval(0, 1), (3, 4)),
                          ("max(x^3, 1/8)", interval(-1, 1), (F(1, 8), 1))]:
        e = parse_expr(src)
        assert compile_expr(e).x_uses == 1
        assert eval_interval(e, box) == interval(*out)


# --- random expressions against the naive oracle -------------------------------------

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
UNIT_STEP = st.fractions(min_value=0, max_value=1, max_denominator=16)


def exprs():
    """Expression trees over every node kind."""
    leaves = st.one_of(st.just(Var()), SMALL.map(Const))
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(Neg), sub.map(Abs),
        st.builds(Pow, sub, st.integers(0, 4)),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "min", "max"]),
                  sub, sub)), max_leaves=10)


def boxes():
    return st.builds(lambda lo, w: interval(lo, lo + w), SMALL,
                     st.fractions(min_value=0, max_value=3,
                                  max_denominator=8))


def inside(box, t):
    return box.lo + (box.hi - box.lo) * t


@settings(max_examples=200, deadline=None)
@given(exprs(), boxes(), st.lists(UNIT_STEP, min_size=1, max_size=6))
def test_enclosure_contains_the_values_and_refines_the_naive_form(e, box, ts):
    out = eval_interval(e, box)
    naive_lo, naive_hi = naive_enclosure(e, box.lo, box.hi)
    assert naive_lo <= out.lo and out.hi <= naive_hi
    for t in [F(0), F(1)] + ts:
        assert out.lo <= eval_point(e, inside(box, t)) <= out.hi


@settings(max_examples=100, deadline=None)
@given(exprs(), SMALL)
def test_enclosure_is_exact_on_point_boxes(e, x):
    v = eval_point(e, x)
    assert eval_interval(e, interval(x, x)) == interval(v, v)


@settings(max_examples=200, deadline=None)
@given(exprs(), boxes(), UNIT_STEP, UNIT_STEP)
def test_enclosure_is_inclusion_isotone(e, box, s, t):
    """A sub-box gets an enclosure inside its box's: the midpoint
    mean-value form is isotone when its derivative enclosure is."""
    sub = interval(*sorted((inside(box, s), inside(box, t))))
    outer, inner = eval_interval(e, box), eval_interval(e, sub)
    assert outer.lo <= inner.lo and inner.hi <= outer.hi


# --- the compiled kernel against the Fraction evaluator --------------------------

ODD_CONSTS = st.fractions(min_value=-3, max_value=3, max_denominator=21)
KINKS = st.fractions(min_value=-2, max_value=2, max_denominator=9)


def kernel_boxes():
    """Point boxes, and boxes whose ends have unrelated denominators, such
    as [1/3, 5/7]."""
    widths = st.fractions(min_value=F(1, 21), max_value=2, max_denominator=21)
    return st.one_of(KINKS.map(lambda x: interval(x, x)),
                     st.builds(lambda lo, w: interval(lo, lo + w), KINKS,
                               widths))


def kernel_exprs():
    """Trees over + - * ^ min max abs neg with non-dyadic constants of
    either sign and exponents 0-3.  Some leaves are c*(x - r), r drawn like
    the box ends, so the branches of abs, min and max over them cross
    inside the boxes."""
    kinked = st.builds(lambda c, r: BinOp("*", Const(c),
                                          BinOp("-", Var(), Const(r))),
                       ODD_CONSTS.filter(bool), KINKS)
    leaves = st.one_of(st.just(Var()), ODD_CONSTS.map(Const), kinked)
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(Neg), sub.map(Abs), st.builds(Pow, sub, st.integers(0, 3)),
        *(st.builds(BinOp, st.just(op), sub, sub)
          for op in ["+", "-", "*", "min", "max"])), max_leaves=6)


MIXED = interval(F(1, 3), F(5, 7))  # ends with unrelated denominators


@settings(max_examples=300, deadline=None)
@given(kernel_exprs(), kernel_boxes())
@example(parse_expr("x*(1 - x)"), MIXED)
@example(parse_expr("(2/3*x - 1/5)^3 - x^0*x"), MIXED)
@example(parse_expr("(x - x)^0 + x*x"), MIXED)
@example(parse_expr("x^0 + x^0"), MIXED)  # degree 0, x used twice
@example(parse_expr("(x^300 + x)^0*x - x"), MIXED)
@example(parse_expr("min(x - 1/2, 1/2 - x)*x"), MIXED)
@example(parse_expr("abs(x - 1/2)*x - 3/7"), MIXED)
@example(parse_expr("max(x^2, 3/10)*(-5/3) + x"), MIXED)
@example(parse_expr("min(x, 1 - x) - x"), MIXED)
@example(parse_expr("max(x, 1 - x) + x"), MIXED)
@example(parse_expr("abs(x - 1/2) - x"), MIXED)
def test_kernel_equals_the_fraction_evaluator(e, box):
    """Equal endpoints, as Fractions, on the box, its halves and its middle
    half, and equal values at its ends and midpoint."""
    c = compile_expr(e)
    lo, mid, hi = box.lo, box.midpoint(), box.hi
    for sub in [box, interval(lo, mid), interval(mid, hi),
                interval((lo + mid) / 2, (mid + hi) / 2)]:
        out = eval_interval(c, sub)
        assert type(out.lo) is F and type(out.hi) is F
        assert (out.lo, out.hi) == centered_enclosure(e, sub.lo, sub.hi)
    for x in (lo, mid, hi):
        v = eval_point(c, x)
        assert type(v) is F and v == point_value(e, x)
    assert eval_interval(e, box) == eval_interval(c, box)  # compiled on the fly


@settings(max_examples=300, deadline=None)
@given(kernel_exprs(), kernel_boxes())
@example(parse_expr("x*(1 - x)"), interval(F(-2), F(-1, 3)))
@example(parse_expr("abs(x - 1/2)*x - 3/7"), MIXED)
@example(parse_expr("min(x - 1/2, 1/2 - x)*x"), interval(F(-1, 9), F(1)))
@example(parse_expr("max(x, 1 - x) + x"), MIXED)
@example(parse_expr("(2/3*x - 1/5)^3 - x^0*x"), interval(F(-5, 3), F(-1, 7)))
@example(parse_expr("x^0 + x^0"), MIXED)
@example(parse_expr("(x - x)^0 + x*x"), interval(F(-1, 3), F(-1, 3)))
@example(parse_expr("max(x*x, 1/4)"), interval(F(-1), F(-1, 5)))
@example(parse_expr("(x + x)^1"), interval(F(0), F(1, 21)))
def test_one_pass_kernel_equals_the_two_pass_kernel(e, box):
    """eval_numerators gives the numerators (lo, hi, F(m)) of the kernel
    that bounded the midpoint in a second pass, on the box and its halves;
    F(m) over the scale is the value at the midpoint."""
    c = compile_expr(e)
    lo, mid, hi = box.lo, box.midpoint(), box.hi
    for sub in [box, interval(lo, mid), interval(mid, hi)]:
        den = math.lcm(sub.lo.denominator, sub.hi.denominator)
        a, b = sub.lo * den, sub.hi * den
        pw = [den ** i for i in range(c.degree + 1)]
        out = eval_numerators(c, a.numerator, b.numerator, pw)
        assert out == two_pass_numerators(c, a.numerator, b.numerator, pw)
        if out[2] is not None:
            assert (F(out[2], c.scale(pw[-1]))
                    == eval_point(c, sub.midpoint()))


def test_compile_reads_degree_and_uses():
    c = compile_expr(parse_expr("(x*(1/3))^10000000 + x"))
    assert (c.degree, c.x_uses) == (10 ** 7, 2)
    assert compile_expr(c) is c
    zero = compile_expr(parse_expr("(x^300000 + x)^0*x"))
    assert (zero.degree, zero.x_uses) == (1, 3)


def test_a_none_endpoint_is_refused_as_not_rational():
    with pytest.raises(PointfreeError, match="^interval endpoint None not "
                       "rational$"):
        RatInterval(F(0), None)


# --- domains ------------------------------------------------------------------------

def test_domain_examples():
    d = parse_domain("[0,1] u [2,3]")
    assert len(d.components) == 2
    assert domain_of((0, 1)).components == (interval(0, 1),)
    merged = domain_of((0, 1), (1, 2))  # closed pieces that touch merge
    assert len(merged.components) == 1


def test_domain_validation():
    with pytest.raises(PointfreeError):
        interval(2, 1)
    with pytest.raises(PointfreeError):
        domain_of()
    with pytest.raises(PointfreeError):
        Domain((interval(0, 2), interval(1, 3)))
    with pytest.raises(ParseError):
        parse_domain("[0,1) u [2,3]")
