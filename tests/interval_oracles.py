"""The naive interval form that `reals.eval_interval` refines, kept as an
independent oracle for it: each operation applied to the enclosures of its
arguments, with no derivative and no midpoint.  It is the exact range
when x occurs at most once (Moore's single-use theorem) and otherwise
overestimates by O(width)."""

from fractions import Fraction

from pointfree.reals import Abs, BinOp, Const, Neg, Pow, Var


def naive_enclosure(e, lo, hi):
    """(lo, hi) of the naive interval form of e over [lo, hi]."""
    if isinstance(e, Var):
        return lo, hi
    if isinstance(e, Const):
        return e.value, e.value
    if isinstance(e, Neg):
        a, b = naive_enclosure(e.a, lo, hi)
        return -b, -a
    if isinstance(e, Abs):
        a, b = naive_enclosure(e.a, lo, hi)
        ends = (abs(a), abs(b))
        return (Fraction(0) if a < 0 < b else min(ends)), max(ends)
    if isinstance(e, Pow):
        a, b = naive_enclosure(e.a, lo, hi)
        ends = (a ** e.k, b ** e.k)
        if e.k % 2 == 0 and a < 0 < b:
            return Fraction(0), max(ends)
        return min(ends), max(ends)
    a = naive_enclosure(e.a, lo, hi)
    b = naive_enclosure(e.b, lo, hi)
    if e.op == "+":
        return a[0] + b[0], a[1] + b[1]
    if e.op == "-":
        return a[0] - b[1], a[1] - b[0]
    if e.op == "*":
        prods = [u * v for u in a for v in b]
        return min(prods), max(prods)
    pick = min if e.op == "min" else max
    return pick(a[0], b[0]), pick(a[1], b[1])
