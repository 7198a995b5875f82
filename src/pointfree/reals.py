"""Exact rational intervals and a total piecewise-polynomial expression
language with interval evaluation.

Interval evaluation is the naive interval form intersected with the
mean-value (centered) form, whose overestimate shrinks with the square of
the box width.  The result is a sound enclosure of the range, and it is
inclusion-isotone: a sub-box never gets a wider bound than its box.

An expression is compiled once into a flat program that evaluates on
arbitrary-precision integer numerators over a tracked denominator; there is
no floating point anywhere in this module.  `eval_numerators` is the
kernel's integer entry: a box [a/D, b/D] with the powers of D in, integer
numerators of its bounds (and of the midpoint's value, when the centered
form computes it) over one scale out.  `eval_interval` wraps it for
`RatInterval`s, and only its results become Fractions.
"""

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import MAX_INT_DIGITS, ParseError, PointfreeError


# --- rationals ----------------------------------------------------------------

def parse_rat(text):
    """Exact rational from `3/7`, `-2`, or decimal `0.25` notation, in ASCII
    digits (Fraction alone also takes other Unicode digits and `_`)."""
    s = str(text).strip()
    if not s.isascii() or "_" in s:
        raise ParseError(f"bad rational literal {text!r}: digits must be "
                         f"ASCII 0-9, with no '_'")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}")


def rat_bits(q):
    """The bits of a rational: its numerator's and its denominator's."""
    return q.numerator.bit_length() + q.denominator.bit_length()


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
    """Closed rational interval [lo, hi], lo <= hi: a box of interval
    evaluation (a point box when lo == hi) or a domain component."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        for end in (self.lo, self.hi):
            if not isinstance(end, Fraction):
                raise PointfreeError(f"interval endpoint {end!r} not rational")
        if self.lo > self.hi:
            raise PointfreeError("interval with lo > hi")

    def midpoint(self):
        return (self.lo + self.hi) / 2


def interval(lo, hi):
    return RatInterval(Fraction(lo), Fraction(hi))


# --- expressions --------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    """The variable x."""


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * min max
    a: object
    b: object


@dataclass(frozen=True)
class Abs:
    a: object


@dataclass(frozen=True)
class Pow:
    a: object
    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 0:
            raise PointfreeError("power exponent must be a natural number")


@dataclass(frozen=True)
class Neg:
    a: object


# --- compiled evaluation ------------------------------------------------------
#
# An expression is flattened once into a post-order program.  On a box
# [a/D, b/D], D the least common denominator of its ends, a node of
# syntactic degree d has values N/(K*D^d) with integer numerators N, and
# derivative bounds over K*D^max(d-1, 0); K is a positive integer fixed at
# compile time by the denominators of the constants.  + - min max bring
# their arguments to that common denominator by multiplying with
# (K/K_a)*D^(d-d_a), and * and ^ multiply numerators, so every comparison
# is between integers.  The same factor rescales an argument's derivative
# bounds, which is exact when d_a >= 1; an argument of degree 0 is constant
# and its derivative is [0, 0].  Only the root is normalised to a Fraction.

_X, _C, _NEG, _ABS, _POW, _MUL, _ADD, _SUB, _MIN, _MAX = range(10)
_BINOPS = {"*": _MUL, "+": _ADD, "-": _SUB, "min": _MIN, "max": _MAX}


def _flatten(e, out):
    """Append e's nodes to out in post-order as (opcode, argument,
    degree); return (degree, occurrences of x, constant bits)."""
    if isinstance(e, Var):
        out.append((_X, None, 1))
        return 1, 1, 0
    if isinstance(e, Const):
        q = e.value
        out.append((_C, q, 0))
        return 0, 0, rat_bits(q)
    if isinstance(e, BinOp):
        op = _BINOPS.get(e.op)
        if op is None:
            raise PointfreeError(f"unknown operator {e.op!r}")
        da, ua, ba = _flatten(e.a, out)
        db, ub, bb = _flatten(e.b, out)
        d = da + db if op == _MUL else max(da, db)
        out.append((op, None, d))
        bits = (ba + bb if op == _MUL else ba + bb + 1 if op in (_ADD, _SUB)
                else max(ba, bb))
        return d, ua + ub, bits
    if isinstance(e, Pow) and e.k == 0:
        # a^0 is the constant 1 whatever a is; a's nodes are counted but
        # not kept, so no node's degree passes the root's
        _, uses, _ = _flatten(e.a, [])
        out.append((_C, Fraction(1), 0))
        return 0, uses, 2
    d, uses, bits = _flatten(e.a, out)
    if isinstance(e, Pow):
        out.append((_POW, e.k, e.k * d))
        return e.k * d, uses, e.k * bits
    out.append((_NEG if isinstance(e, Neg) else _ABS, None, d))
    return d, uses, bits


class CompiledExpr:
    """An expression flattened once for repeated exact evaluation.

    `degree` (deg(a^k) = k deg a, deg(a*b) = deg a + deg b, and + - min
    max abs take the larger degree of their arguments), `x_uses` (the
    occurrences of x) and `constant_bits` (the same rules with the bits of
    a constant, x none, a*b and one more for a±b summing) are read off when
    it is compiled.  The integer program is built at the first evaluation:
    its factor K grows as K^k under ^k, so a caller can refuse on the
    degree and the constant bits before paying for it."""

    def __init__(self, e):
        self._nodes = []
        self.degree, self.x_uses, self.constant_bits = _flatten(
            e, self._nodes)

    def scale(self, dpow):
        """The denominator of eval_numerators' numerators on a box over D,
        dpow = D^degree: K D^degree, times 2^(degree+1) when x occurs more
        than once (the centered form's scale)."""
        k = self.program[1] * dpow
        return k << (self.degree + 1) if self.x_uses > 1 else k

    @functools.cached_property
    def program(self):
        """(instructions, K of the root).  An instruction is (opcode,
        argument, K/K_a, d - d_a, K/K_b, d - d_b); the scales are set for
        + - min max only.  With ^0 compiled to a constant, no operator
        lowers the degree, so every d - d_a is at most the root's degree."""
        code, ks = [], []  # ks: (degree, K) of each value on the stack
        for op, arg, d in self._nodes:
            ins = (op, arg, 1, 0, 1, 0)
            if op == _X:
                k = 1
            elif op == _C:
                k = arg.denominator
                ins = (op, arg.numerator, 1, 0, 1, 0)
            elif op == _POW:
                k = ks.pop()[1] ** arg
            elif op == _NEG or op == _ABS:
                k = ks.pop()[1]
            else:
                (db, kb), (da, ka) = ks.pop(), ks.pop()
                if op == _MUL:
                    k = ka * kb
                else:
                    k = math.lcm(ka, kb)
                    ins = (op, None, k // ka, d - da, k // kb, d - db)
            ks.append((d, k))
            code.append(ins)
        return tuple(code), ks[0][1]


def compile_expr(e):
    """The compiled form of an expression tree; a compiled form as is."""
    return e if isinstance(e, CompiledExpr) else CompiledExpr(e)


def _powers(base, top):
    out = [1]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def eval_point(e, x):
    """Exact value of the expression (a tree or its compiled form) at a
    rational point."""
    c = compile_expr(e)
    x = Fraction(x)
    code, k = c.program
    pw = _powers(x.denominator, c.degree)
    return Fraction(_naive(code, x.numerator, x.numerator, pw)[0],
                    k * pw[c.degree])


def eval_interval(e, box):
    """Sound enclosure of the range of the expression (a tree or its
    compiled form) over a closed box; exact (width 0) on point
    boxes: `eval_numerators` on the box over the lcm of its denominators.
    """
    c = compile_expr(e)
    lo, hi = box.lo, box.hi
    dlo, dhi = lo.denominator, hi.denominator
    den = math.lcm(dlo, dhi)
    pw = _powers(den, c.degree)
    vl, vh, _ = eval_numerators(c, lo.numerator * (den // dlo),
                                hi.numerator * (den // dhi), pw)
    scale = c.scale(pw[c.degree])
    return RatInterval(Fraction(vl, scale), Fraction(vh, scale))


def eval_numerators(c, a, b, pw):
    """The integer kernel on the box [a/D, b/D] (a <= b), pw the powers of D
    up to c.degree: numerators (lo, hi, F(m)) over c.scale(D^degree) of an
    enclosure of the range and of the value at the midpoint m = (a+b)/(2D),
    F(m) None when x occurs at most once.

    The naive interval form intersected with the centered form
    [F(m) - r|F'(X)|, F(m) + r|F'(X)|], r the half-width, with F'(X) a
    forward-mode interval derivative.  At abs, min and max, where the
    branches meet inside the box, F'(X) is the hull of the branch
    derivatives, which encloses the Clarke gradient, so the form is sound
    by Lebourg's mean-value theorem.  When x occurs at most once the naive
    form is already the exact range (Moore's single-use theorem) and is
    returned alone; on a point box it is the exact value.

    Inclusion-isotone, so a sub-box's bounds lie inside its box's: for
    Y inside X, F(m_Y) lies in F(m_X) + F'(X)(m_Y - m_X), and
    |m_Y - m_X| + r_Y <= r_X (Caprani & Madsen, 1980).  The naive form and
    F'(X) are isotone, and a sub-box keeps a branch its box keeps."""
    code, _ = c.program
    if c.x_uses <= 1:
        return (*_naive(code, a, b, pw), None)
    d = c.degree
    if a == b:
        v = _naive(code, a, a, pw)[0] << (d + 1)
        return v, v, v
    vl, vh, dl, dh, fm = _centered(code, a, b, pw)
    # Over K D^d 2^(d+1): the naive form is v * 2^(d+1); F(m) is 2 fm with
    # fm over K (2D)^d; and r|F'(X)| = (b - a)/(2D) * max(-dl, dh)/(K
    # D^(d-1)) is (b - a) max(-dl, dh) * 2^d, which is 0 when d = 0 (F' = 0)
    fm *= 2
    spread = ((b - a) * max(-dl, dh)) << d
    return (max(vl << (d + 1), fm - spread), min(vh << (d + 1), fm + spread),
            fm)


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
        return 1, 1
    if k % 2 == 1 or a >= 0:
        return a ** k, b ** k
    if b <= 0:
        return b ** k, a ** k
    return 0, max(-a, b) ** k


def _naive(code, a, b, pw):
    """Numerators (lo, hi) of the naive interval form at the root, on the
    box [a, b] over D, pw the powers of D."""
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg, ka, ea, kb, eb in code:
        if op == _X:
            push((a, b))
        elif op == _C:
            push((arg, arg))
        elif op >= _ADD:
            (bl, bh), (al, ah) = pop(), pop()
            fa, fb = ka * pw[ea], kb * pw[eb]
            al, ah, bl, bh = al * fa, ah * fa, bl * fb, bh * fb
            if op == _ADD:
                push((al + bl, ah + bh))
            elif op == _SUB:
                push((al - bh, ah - bl))
            elif op == _MIN:
                push((min(al, bl), min(ah, bh)))
            else:
                push((max(al, bl), max(ah, bh)))
        elif op == _MUL:
            (bl, bh), (al, ah) = pop(), pop()
            push(_mul(al, ah, bl, bh))
        elif op == _POW:
            push(_pow(*pop(), arg))
        elif op == _NEG:
            l, h = pop()
            push((-h, -l))
        else:  # abs
            l, h = pop()
            if l >= 0:
                push((l, h))
            elif h <= 0:
                push((-h, -l))
            else:
                push((0, max(-l, h)))
    return stack[0]


def _centered(code, a, b, pw):
    """Numerators (value lo, value hi, derivative lo, derivative hi,
    midpoint value) at the root: the naive enclosure, an enclosure of its
    Clarke gradient, and the value at m = (a+b)/(2D) over K (2D)^d, so the
    rescaling of + - min max is (K/K_a)(2D)^(d-d_a), fa << ea."""
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg, ka, ea, kb, eb in code:
        if op == _X:
            push((a, b, 1, 1, a + b))
        elif op == _C:
            push((arg, arg, 0, 0, arg))
        elif op >= _ADD:
            (bl, bh, dbl, dbh, bm), (al, ah, dal, dah, am) = pop(), pop()
            fa, fb = ka * pw[ea], kb * pw[eb]
            al, ah, dal, dah = al * fa, ah * fa, dal * fa, dah * fa
            bl, bh, dbl, dbh = bl * fb, bh * fb, dbl * fb, dbh * fb
            am, bm = am * fa << ea, bm * fb << eb
            if op == _ADD:
                push((al + bl, ah + bh, dal + dbl, dah + dbh, am + bm))
            elif op == _SUB:
                push((al - bh, ah - bl, dal - dbh, dah - dbl, am - bm))
            elif op == _MIN:
                vl, vh, m = min(al, bl), min(ah, bh), min(am, bm)
                if ah <= bl:
                    push((vl, vh, dal, dah, m))
                elif bh <= al:
                    push((vl, vh, dbl, dbh, m))
                else:
                    push((vl, vh, min(dal, dbl), max(dah, dbh), m))
            else:
                vl, vh, m = max(al, bl), max(ah, bh), max(am, bm)
                if al >= bh:
                    push((vl, vh, dal, dah, m))
                elif bl >= ah:
                    push((vl, vh, dbl, dbh, m))
                else:
                    push((vl, vh, min(dal, dbl), max(dah, dbh), m))
        elif op == _MUL:
            (bl, bh, dbl, dbh, bm), (al, ah, dal, dah, am) = pop(), pop()
            l1, h1 = _mul(dal, dah, bl, bh)
            l2, h2 = _mul(al, ah, dbl, dbh)
            push((*_mul(al, ah, bl, bh), l1 + l2, h1 + h2, am * bm))
        elif op == _POW:
            l, h, dl, dh, m = pop()  # arg >= 1: a^0 compiles to a constant
            pl, ph = _pow(l, h, arg - 1)
            push((*_pow(l, h, arg), *_mul(arg * pl, arg * ph, dl, dh),
                  m ** arg))
        elif op == _NEG:
            l, h, dl, dh, m = pop()
            push((-h, -l, -dh, -dl, -m))
        else:  # abs
            l, h, dl, dh, m = pop()
            if l >= 0:
                push((l, h, dl, dh, m))
            elif h <= 0:
                push((-h, -l, -dh, -dl, -m))
            else:
                slope = max(-dl, dh)
                push((0, max(-l, h), -slope, slope, abs(m)))
    return stack[0]


# --- expression parser --------------------------------------------------------

_EXPR_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>[0-9]+(?:\.[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[()+\-*^,/])
  | (?P<bad>.)
""", re.VERBOSE)


MAX_EXPR_DEPTH = 100  # deepest nesting and expression tree parse_expr admits


class _ExprParser:
    """Recursive descent; each method returns (node, depth of its tree).

    Parentheses, function arguments and unary minus recurse, so their
    nesting is bounded on the way down; operator chains such as x+x+...+x
    are built in loops but make deep trees, which the compile pass walks
    recursively, so tree depth is bounded as each node is built."""

    def __init__(self, text):
        self.toks = []
        for m in _EXPR_TOKEN.finditer(text):
            if m.lastgroup == "bad":
                raise ParseError(f"unexpected character {m.group()!r} "
                                 f"in expression", col=m.start() + 1)
            if m.lastgroup == "num":
                # int() refuses a run past MAX_INT_DIGITS with a ValueError
                digits = max(map(len, m.group().split(".")))
                if digits > MAX_INT_DIGITS:
                    raise ParseError(f"expected an integer of at most "
                                     f"{MAX_INT_DIGITS} digits, got {digits} "
                                     f"digits",
                                     col=m.start() + 1)
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

    components: tuple  # RatIntervals

    def __post_init__(self):
        if not self.components:
            raise PointfreeError("domain must be nonempty")
        for a, b in zip(self.components, self.components[1:]):
            if b.lo <= a.hi:
                raise PointfreeError("domain components must be disjoint "
                                     "and sorted")


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
