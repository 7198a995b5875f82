"""Exact rational intervals, open subsets of the line, and a total
piecewise-polynomial expression language with interval evaluation.

Interval evaluation is the naive interval form intersected with the
mean-value (centered) form, whose overestimate shrinks with the square of
the box width.  The result is a sound enclosure of the range, and it is
inclusion-isotone: a sub-box never gets a wider bound than its box.

Everything is computed in arbitrary-precision rationals; there is no
floating point anywhere in this module.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, PointfreeError


# --- rationals ----------------------------------------------------------------

def parse_rat(text):
    """Exact rational from `3/7`, `-2`, or decimal `0.25` notation."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}")


def rat_str(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_decimal(q, digits):
    """Decimal approximation to `digits` places (round half away from zero)."""
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = q * 10 ** digits
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        n += 1
    whole, frac = divmod(n, 10 ** digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


# --- intervals ----------------------------------------------------------------

@dataclass(frozen=True)
class RatInterval:
    """Rational interval; lo = None means -oo and hi = None means +oo.

    Used both for the open subbasic intervals of the line and, with finite
    endpoints, as the closed boxes of interval evaluation; point boxes
    (lo == hi) are legal only in evaluation contexts and answer True to
    is_point.
    """

    lo: object  # Fraction or None
    hi: object  # Fraction or None

    def __post_init__(self):
        for end in (self.lo, self.hi):
            if end is not None and not isinstance(end, Fraction):
                raise PointfreeError(f"interval endpoint {end!r} not rational")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise PointfreeError("interval with lo > hi")

    @property
    def is_point(self):
        return self.lo is not None and self.lo == self.hi

    @property
    def finite(self):
        return self.lo is not None and self.hi is not None

    @property
    def width(self):
        if not self.finite:
            raise PointfreeError("width of an unbounded interval")
        return self.hi - self.lo

    def midpoint(self):
        if not self.finite:
            raise PointfreeError("midpoint of an unbounded interval")
        return (self.lo + self.hi) / 2

    def __str__(self):
        lo = "-oo" if self.lo is None else rat_str(self.lo)
        hi = "+oo" if self.hi is None else rat_str(self.hi)
        return f"({lo},{hi})"


def interval(lo, hi):
    conv = lambda v: None if v is None else Fraction(v)
    return RatInterval(conv(lo), conv(hi))


def _lo_key(i):
    return (0,) if i.lo is None else (1, i.lo)


@dataclass(frozen=True)
class ROpen:
    """Canonical finite union of disjoint open rational intervals."""

    components: tuple

    def __post_init__(self):
        for c in self.components:
            if not isinstance(c, RatInterval):
                raise PointfreeError("components must be RatIntervals")
            if c.lo is not None and c.hi is not None and c.lo >= c.hi:
                raise PointfreeError("open component needs lo < hi")
        for a, b in zip(self.components, self.components[1:]):
            if a.hi is None or b.lo is None or b.lo < a.hi:
                raise PointfreeError("components not disjoint and sorted")

    @classmethod
    def of(cls, *pairs):
        return ropen_canon(interval(lo, hi) for lo, hi in pairs)

    def __str__(self):
        if not self.components:
            return "0"
        return " u ".join(str(c) for c in self.components)


ROPEN_BOTTOM = ROpen(())
ROPEN_TOP = ROpen((RatInterval(None, None),))


def ropen_canon(intervals):
    """Canonical form: drop empties, sort, merge overlapping components.

    Components touching only at a point (like (0,1) and (1,2)) stay separate:
    these are open sets and the touching point is absent from both.
    """
    items = [c for c in intervals
             if c.lo is None or c.hi is None or c.lo < c.hi]
    items.sort(key=_lo_key)
    out = []
    for c in items:
        if out:
            last = out[-1]
            # overlap (not mere touching): c.lo < last.hi, with None = -inf
            if last.hi is None or c.lo is None or c.lo < last.hi:
                hi = (None if last.hi is None or c.hi is None
                      else max(last.hi, c.hi))
                out[-1] = RatInterval(last.lo, hi)
                continue
        out.append(c)
    return ROpen(tuple(out))


def ropen_join(a, b):
    return ropen_canon(a.components + b.components)


def ropen_meet(a, b):
    pieces = []
    for x in a.components:
        for y in b.components:
            lo = y.lo if x.lo is None else (
                x.lo if y.lo is None else max(x.lo, y.lo))
            hi = y.hi if x.hi is None else (
                x.hi if y.hi is None else min(x.hi, y.hi))
            if lo is None or hi is None or lo < hi:
                pieces.append(RatInterval(lo, hi))
    return ropen_canon(pieces)


# --- expressions --------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    def __str__(self):
        return "x"


@dataclass(frozen=True)
class Const:
    value: Fraction

    def __str__(self):
        return rat_str(self.value)


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * min max
    a: object
    b: object

    def __str__(self):
        if self.op in ("min", "max"):
            return f"{self.op}({self.a}, {self.b})"
        return f"({self.a} {self.op} {self.b})"


@dataclass(frozen=True)
class Abs:
    a: object

    def __str__(self):
        return f"abs({self.a})"


@dataclass(frozen=True)
class Pow:
    a: object
    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 0:
            raise PointfreeError("power exponent must be a natural number")

    def __str__(self):
        return f"{self.a}^{self.k}"


@dataclass(frozen=True)
class Neg:
    a: object

    def __str__(self):
        return f"(-{self.a})"


def eval_point(e, x):
    """Exact value of the expression at a rational point."""
    return _peval(e, Fraction(x))


def _peval(e, x):
    if isinstance(e, Var):
        return x
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg):
        return -_peval(e.a, x)
    if isinstance(e, Abs):
        return abs(_peval(e.a, x))
    if isinstance(e, Pow):
        return _peval(e.a, x) ** e.k
    a, b = _peval(e.a, x), _peval(e.b, x)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    return min(a, b) if e.op == "min" else max(a, b)


def x_uses(e):
    """Number of occurrences of x in the expression."""
    if isinstance(e, Var):
        return 1
    if isinstance(e, Const):
        return 0
    if isinstance(e, BinOp):
        return x_uses(e.a) + x_uses(e.b)
    return x_uses(e.a)


def degree(e):
    """Syntactic degree: deg(a^k) = k deg a, deg(a*b) = deg a + deg b, and
    + - min max abs take the larger degree of their arguments."""
    if isinstance(e, Var):
        return 1
    if isinstance(e, Const):
        return 0
    if isinstance(e, Pow):
        return e.k * degree(e.a)
    if isinstance(e, BinOp):
        a, b = degree(e.a), degree(e.b)
        return a + b if e.op == "*" else max(a, b)
    return degree(e.a)


def eval_interval(e, box):
    """Sound enclosure of the expression's range over a finite closed box;
    exact (width 0) on point boxes.

    The naive interval form intersected with the centered form
    [F(m) - r|F'(X)|, F(m) + r|F'(X)|], m the midpoint and r the
    half-width, with F'(X) a forward-mode interval derivative.  At abs, min
    and max, where the branches meet inside the box, F'(X) is the hull of
    the branch derivatives, which encloses the Clarke gradient, so the
    form is sound by Lebourg's mean-value theorem.  When x occurs at most
    once the naive form is already the exact range (Moore's single-use
    theorem) and is returned alone.

    Inclusion-isotone, so a sub-box's bounds lie inside its box's: for
    Y inside X, F(m_Y) lies in F(m_X) + F'(X)(m_Y - m_X), and
    |m_Y - m_X| + r_Y <= r_X (Caprani & Madsen, 1980).  The naive form and
    F'(X) are isotone, and a sub-box keeps a branch its box keeps."""
    if not box.finite:
        raise PointfreeError("interval evaluation needs a finite box")
    lo, hi = box.lo, box.hi
    if lo == hi or x_uses(e) <= 1:
        return RatInterval(*_ieval(e, lo, hi))
    vl, vh, dl, dh = _cform(e, lo, hi)
    spread = (hi - lo) / 2 * max(-dl, dh)
    mid = eval_point(e, (lo + hi) / 2)
    return RatInterval(max(vl, mid - spread), min(vh, mid + spread))


_ZERO, _ONE = Fraction(0), Fraction(1)


def _mul(al, ah, bl, bh):
    if al == ah:
        return _scale(al, bl, bh)
    if bl == bh:
        return _scale(bl, al, ah)
    prods = (al * bl, al * bh, ah * bl, ah * bh)
    return min(prods), max(prods)


def _scale(c, lo, hi):
    """The product of the point c and the interval [lo, hi]."""
    return (c * lo, c * hi) if c >= 0 else (c * hi, c * lo)


def _pow(a, b, k):
    if k == 0:
        return _ONE, _ONE
    if k % 2 == 1 or a >= 0:
        return a ** k, b ** k
    if b <= 0:
        return b ** k, a ** k
    return _ZERO, max(-a, b) ** k


def _ieval(e, lo, hi):
    if isinstance(e, Var):
        return lo, hi
    if isinstance(e, Const):
        return e.value, e.value
    if isinstance(e, Neg):
        a, b = _ieval(e.a, lo, hi)
        return -b, -a
    if isinstance(e, Abs):
        a, b = _ieval(e.a, lo, hi)
        if a >= 0:
            return a, b
        if b <= 0:
            return -b, -a
        return _ZERO, max(-a, b)
    if isinstance(e, Pow):
        a, b = _ieval(e.a, lo, hi)
        return _pow(a, b, e.k)
    al, ah = _ieval(e.a, lo, hi)
    bl, bh = _ieval(e.b, lo, hi)
    if e.op == "+":
        return al + bl, ah + bh
    if e.op == "-":
        return al - bh, ah - bl
    if e.op == "*":
        return _mul(al, ah, bl, bh)
    if e.op == "min":
        return min(al, bl), min(ah, bh)
    if e.op == "max":
        return max(al, bl), max(ah, bh)
    raise PointfreeError(f"unknown operator {e.op!r}")  # pragma: no cover


def _cform(e, lo, hi):
    """(value lo, value hi, derivative lo, derivative hi) over [lo, hi]:
    the naive enclosure of e and an enclosure of its Clarke gradient."""
    if isinstance(e, Var):
        return lo, hi, _ONE, _ONE
    if isinstance(e, Const):
        return e.value, e.value, _ZERO, _ZERO
    if isinstance(e, Neg):
        a, b, da, db = _cform(e.a, lo, hi)
        return -b, -a, -db, -da
    if isinstance(e, Abs):
        a, b, da, db = _cform(e.a, lo, hi)
        if a >= 0:
            return a, b, da, db
        if b <= 0:
            return -b, -a, -db, -da
        slope = max(-da, db)
        return _ZERO, max(-a, b), -slope, slope
    if isinstance(e, Pow):
        if e.k == 0:
            return _ONE, _ONE, _ZERO, _ZERO
        a, b, da, db = _cform(e.a, lo, hi)
        pl, ph = _pow(a, b, e.k - 1)
        return (*_pow(a, b, e.k), *_mul(e.k * pl, e.k * ph, da, db))
    al, ah, dal, dah = _cform(e.a, lo, hi)
    bl, bh, dbl, dbh = _cform(e.b, lo, hi)
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
    elif e.op == "max":
        vl, vh = max(al, bl), max(ah, bh)
        if al >= bh:
            return vl, vh, dal, dah
        if bl >= ah:
            return vl, vh, dbl, dbh
    else:  # pragma: no cover
        raise PointfreeError(f"unknown operator {e.op!r}")
    return vl, vh, min(dal, dbl), max(dah, dbh)


# --- expression parser --------------------------------------------------------

_EXPR_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[()+\-*^,/])
  | (?P<bad>.)
""", re.VERBOSE)


MAX_EXPR_DEPTH = 100  # deepest nesting and expression tree parse_expr admits


class _ExprParser:
    """Recursive descent; each method returns (node, depth of its tree).

    Parentheses, function arguments and unary minus recurse, so their
    nesting is bounded on the way down; operator chains such as x+x+...+x
    are built in loops but make deep trees, which the evaluators walk
    recursively, so tree depth is bounded as each node is built."""

    def __init__(self, text):
        self.toks = []
        for m in _EXPR_TOKEN.finditer(text):
            if m.lastgroup == "bad":
                raise ParseError(f"unexpected character {m.group()!r} "
                                 f"in expression", col=m.start() + 1)
            if m.lastgroup != "ws":
                self.toks.append((m.lastgroup, m.group(), m.start() + 1))
        self.toks.append(("eof", "", len(text) + 1))
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text):
        kind, s, col = self.next()
        if s != text:
            raise ParseError(f"expected {text!r}, found {s or 'end'!r}",
                             col=col)

    @staticmethod
    def deeper(depth, col):
        if depth >= MAX_EXPR_DEPTH:
            raise ParseError(f"expression deeper than {MAX_EXPR_DEPTH} "
                             f"levels", col=col)
        return depth + 1

    def nested(self, parse, col):
        self.nesting = self.deeper(self.nesting, col)
        out = parse()
        self.nesting -= 1
        return out

    def expr(self):
        node, depth = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op, col = self.next()
            rhs, d = self.term()
            node, depth = BinOp(op, node, rhs), self.deeper(max(depth, d), col)
        return node, depth

    def term(self):
        node, depth = self.factor()
        while self.peek()[1] == "*":
            col = self.next()[2]
            rhs, d = self.factor()
            node, depth = BinOp("*", node, rhs), self.deeper(max(depth, d), col)
        return node, depth

    def factor(self):
        if self.peek()[1] == "-":
            col = self.next()[2]
            node, depth = self.nested(self.factor, col)
            return Neg(node), self.deeper(depth, col)
        node, depth = self.primary()
        while self.peek()[1] == "^":
            col = self.next()[2]
            kind, s, k_col = self.next()
            if kind != "num" or "." in s:
                raise ParseError("power exponent must be a natural number",
                                 col=k_col)
            node, depth = Pow(node, int(s)), self.deeper(depth, col)
        return node, depth

    def primary(self):
        kind, s, col = self.next()
        if kind == "num":
            if self.peek()[1] == "/":
                if "." in s:
                    raise ParseError("rational literal must be integer/integer",
                                     col=col)
                self.next()
                k2, s2, c2 = self.next()
                if k2 != "num" or "." in s2:
                    raise ParseError("rational literal must be integer/integer",
                                     col=c2)
                if int(s2) == 0:
                    raise ParseError("zero denominator", col=c2)
                return Const(Fraction(int(s), int(s2))), 1
            return Const(parse_rat(s)), 1
        if s == "(":
            out = self.nested(self.expr, col)
            self.expect(")")
            return out
        if kind == "name":
            if s == "x":
                return Var(), 1
            if s in ("min", "max"):
                self.expect("(")
                a, da = self.nested(self.expr, col)
                self.expect(",")
                b, db = self.nested(self.expr, col)
                self.expect(")")
                return BinOp(s, a, b), self.deeper(max(da, db), col)
            if s == "abs":
                self.expect("(")
                a, depth = self.nested(self.expr, col)
                self.expect(")")
                return Abs(a), self.deeper(depth, col)
            raise ParseError(f"unknown name {s!r} in expression", col=col)
        raise ParseError(f"unexpected token {s or 'end'!r} in expression",
                         col=col)


def parse_expr(text):
    """The expression tree of text; a ParseError with the column where the
    nesting or the tree depth passes MAX_EXPR_DEPTH."""
    p = _ExprParser(text)
    node, _ = p.expr()
    kind, s, col = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {s!r} in expression", col=col)
    return node


# --- domains ------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Nonempty finite union of disjoint closed rational intervals, sorted."""

    components: tuple  # RatIntervals with finite endpoints, lo <= hi

    def __post_init__(self):
        if not self.components:
            raise PointfreeError("domain must be nonempty")
        for c in self.components:
            if not c.finite:
                raise PointfreeError("domain components must be bounded")
        for a, b in zip(self.components, self.components[1:]):
            if b.lo <= a.hi:
                raise PointfreeError("domain components must be disjoint "
                                     "and sorted")

    def __str__(self):
        return " u ".join(f"[{rat_str(c.lo)},{rat_str(c.hi)}]"
                          for c in self.components)


def domain_of(*pairs):
    """Domain from (lo, hi) pairs, merging touching or overlapping pieces."""
    items = sorted((interval(lo, hi) for lo, hi in pairs),
                   key=lambda c: c.lo)
    if not items:
        raise PointfreeError("domain must be nonempty")
    out = [items[0]]
    for c in items[1:]:
        if c.lo <= out[-1].hi:
            out[-1] = RatInterval(out[-1].lo, max(out[-1].hi, c.hi))
        else:
            out.append(c)
    return Domain(tuple(out))


_DOMAIN_RE = re.compile(
    r"\s*\[\s*(-?[0-9./]+)\s*,\s*(-?[0-9./]+)\s*\]\s*")


def parse_domain(text):
    """Parse `[0,1]` or `[0,1] u [2,3]` with exact rational endpoints."""
    parts = re.split(r"\bu\b", text)
    pairs = []
    for part in parts:
        m = _DOMAIN_RE.fullmatch(part)
        if not m:
            raise ParseError(f"bad domain component {part.strip()!r}")
        lo, hi = parse_rat(m.group(1)), parse_rat(m.group(2))
        if lo > hi:
            raise ParseError(f"domain component with lo > hi: {part.strip()!r}")
        pairs.append((lo, hi))
    return domain_of(*pairs)
