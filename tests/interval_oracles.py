"""Recursive `Fraction` evaluators of expression trees, kept as
independent oracles for the compiled integer kernel of `reals`.

`naive_enclosure` is the naive interval form that `reals.eval_interval`
refines: each operation applied to the enclosures of its arguments, with no
derivative and no midpoint.  It is the exact range when x occurs at most
once (Moore's single-use theorem) and otherwise overestimates by O(width).
`point_value` and `centered_enclosure` are the evaluators `reals` used
before the kernel, node by node in `Fraction`s: the kernel must give the
same rational endpoints.

`two_pass_numerators` is the integer kernel as it was before the centered
form carried the midpoint's value: the centered pass, then a second, naive
pass at the midpoint (a+b)/(2D) on the powers of 2D.  `eval_numerators`
must give the same numerators in one pass."""

from fractions import Fraction

from pointfree import reals
from pointfree.reals import (_ADD, _C, _MIN, _MUL, _NEG, _POW, _SUB, _X, Abs,
                             BinOp, Const, Neg, Pow, Var)


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
        if e.k == 0:  # x^0 = 1, also where the base's box holds 0
            return Fraction(1), Fraction(1)
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


def point_value(e, x):
    """Exact value of e at the rational x."""
    if isinstance(e, Var):
        return x
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg):
        return -point_value(e.a, x)
    if isinstance(e, Abs):
        return abs(point_value(e.a, x))
    if isinstance(e, Pow):
        return point_value(e.a, x) ** e.k
    a, b = point_value(e.a, x), point_value(e.b, x)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    return min(a, b) if e.op == "min" else max(a, b)


def x_uses(e):
    """Number of occurrences of x in e."""
    if isinstance(e, Var):
        return 1
    if isinstance(e, Const):
        return 0
    if isinstance(e, BinOp):
        return x_uses(e.a) + x_uses(e.b)
    return x_uses(e.a)


def centered_enclosure(e, lo, hi):
    """(lo, hi) of the naive form intersected with the centered form
    F(m) +- r|F'(X)| over [lo, hi]; the naive form alone on a point box or
    when x occurs at most once."""
    if lo == hi or x_uses(e) <= 1:
        return naive_enclosure(e, lo, hi)
    vl, vh, dl, dh = _value_and_slope(e, lo, hi)
    spread = (hi - lo) / 2 * max(-dl, dh)
    mid = point_value(e, (lo + hi) / 2)
    return max(vl, mid - spread), min(vh, mid + spread)


def _mul(al, ah, bl, bh):
    prods = (al * bl, al * bh, ah * bl, ah * bh)
    return min(prods), max(prods)


def _pow(a, b, k):
    return naive_enclosure(Pow(Var(), k), a, b)


def _value_and_slope(e, lo, hi):
    """(value lo, value hi, derivative lo, derivative hi) over [lo, hi]:
    the naive enclosure of e and an enclosure of its Clarke gradient."""
    zero, one = Fraction(0), Fraction(1)
    if isinstance(e, Var):
        return lo, hi, one, one
    if isinstance(e, Const):
        return e.value, e.value, zero, zero
    if isinstance(e, Neg):
        a, b, da, db = _value_and_slope(e.a, lo, hi)
        return -b, -a, -db, -da
    if isinstance(e, Abs):
        a, b, da, db = _value_and_slope(e.a, lo, hi)
        if a >= 0:
            return a, b, da, db
        if b <= 0:
            return -b, -a, -db, -da
        slope = max(-da, db)
        return zero, max(-a, b), -slope, slope
    if isinstance(e, Pow):
        if e.k == 0:
            return one, one, zero, zero
        a, b, da, db = _value_and_slope(e.a, lo, hi)
        pl, ph = _pow(a, b, e.k - 1)
        return (*_pow(a, b, e.k), *_mul(e.k * pl, e.k * ph, da, db))
    al, ah, dal, dah = _value_and_slope(e.a, lo, hi)
    bl, bh, dbl, dbh = _value_and_slope(e.b, lo, hi)
    if e.op == "+":
        return al + bl, ah + bh, dal + dbl, dah + dbh
    if e.op == "-":
        return al - bh, ah - bl, dal - dbh, dah - dbl
    if e.op == "*":
        l1, h1 = _mul(dal, dah, bl, bh)
        l2, h2 = _mul(al, ah, dbl, dbh)
        return (*_mul(al, ah, bl, bh), l1 + l2, h1 + h2)
    if e.op == "min":
        vl, vh = min(al, bl), min(ah, bh)
        if ah <= bl:
            return vl, vh, dal, dah
        if bh <= al:
            return vl, vh, dbl, dbh
    else:
        vl, vh = max(al, bl), max(ah, bh)
        if al >= bh:
            return vl, vh, dal, dah
        if bl >= ah:
            return vl, vh, dbl, dbh
    return vl, vh, min(dal, dbl), max(dah, dbh)


def two_pass_numerators(c, a, b, pw):
    """(lo, hi, F(m)) of `reals.eval_numerators` on the box [a/D, b/D], pw
    the powers of D, with F(m) from a naive pass at the midpoint."""
    code, _ = c.program
    if c.x_uses <= 1:
        return (*reals._naive(code, a, b, pw), None)
    d = c.degree
    if a == b:
        v = reals._naive(code, a, a, pw)[0] << (d + 1)
        return v, v, v
    vl, vh, dl, dh = _centered_numerators(code, a, b, pw)
    fm = 2 * reals._naive(code, a + b, a + b,
                          [p << i for i, p in enumerate(pw)])[0]
    spread = ((b - a) * max(-dl, dh)) << d
    return (max(vl << (d + 1), fm - spread), min(vh << (d + 1), fm + spread),
            fm)


def _centered_numerators(code, a, b, pw):
    """Numerators (value lo, value hi, derivative lo, derivative hi) at the
    root of the compiled program code on [a, b] over D."""
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg, ka, ea, kb, eb in code:
        if op == _X:
            push((a, b, 1, 1))
        elif op == _C:
            push((arg, arg, 0, 0))
        elif op >= _ADD:
            (bl, bh, dbl, dbh), (al, ah, dal, dah) = pop(), pop()
            fa, fb = ka * pw[ea], kb * pw[eb]
            al, ah, dal, dah = al * fa, ah * fa, dal * fa, dah * fa
            bl, bh, dbl, dbh = bl * fb, bh * fb, dbl * fb, dbh * fb
            if op == _ADD:
                push((al + bl, ah + bh, dal + dbl, dah + dbh))
            elif op == _SUB:
                push((al - bh, ah - bl, dal - dbh, dah - dbl))
            elif op == _MIN:
                vl, vh = min(al, bl), min(ah, bh)
                if ah <= bl:
                    push((vl, vh, dal, dah))
                elif bh <= al:
                    push((vl, vh, dbl, dbh))
                else:
                    push((vl, vh, min(dal, dbl), max(dah, dbh)))
            else:
                vl, vh = max(al, bl), max(ah, bh)
                if al >= bh:
                    push((vl, vh, dal, dah))
                elif bl >= ah:
                    push((vl, vh, dbl, dbh))
                else:
                    push((vl, vh, min(dal, dbl), max(dah, dbh)))
        elif op == _MUL:
            (bl, bh, dbl, dbh), (al, ah, dal, dah) = pop(), pop()
            l1, h1 = reals._mul(dal, dah, bl, bh)
            l2, h2 = reals._mul(al, ah, dbl, dbh)
            push((*reals._mul(al, ah, bl, bh), l1 + l2, h1 + h2))
        elif op == _POW:
            l, h, dl, dh = pop()
            pl, ph = reals._pow(l, h, arg - 1)
            push((*reals._pow(l, h, arg),
                  *reals._mul(arg * pl, arg * ph, dl, dh)))
        elif op == _NEG:
            l, h, dl, dh = pop()
            push((-h, -l, -dh, -dl))
        else:  # abs
            l, h, dl, dh = pop()
            if l >= 0:
                push((l, h, dl, dh))
            elif h <= 0:
                push((-h, -l, -dh, -dl))
            else:
                slope = max(-dl, dh)
                push((0, max(-l, h), -slope, slope))
    return stack[0]
