"""Seeded query streams for the three workloads.

A stream is a sequence of rounds.  Every round of a workload has the same
structure (the same kinds of sessions, sizes taken from the same bands, the
same eps exponents), and the seed and the round number only choose the
inputs inside that structure.  A run executes whole rounds, so its
throughput does not depend on where the deadline falls, and runs with
different seeds do the same kind of work.

Each query carries its own check, built from `oracles` when the input is
generated, and the key of the input it reads (for the repeat share).
"""

import hashlib
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles

NAMES = "abcdefghjkmnpqrstvwy"


@dataclass
class Query:
    argv: list   # CLI arguments; the runner appends --json
    check: object  # check(payload) -> None, or a string naming the error
    key: str     # the input this query reads


class InputDir:
    """Writes generated input files, one file per distinct content."""

    def __init__(self, path):
        self.path = path
        os.makedirs(path, exist_ok=True)

    def write(self, text, ext):
        name = hashlib.sha256(text.encode()).hexdigest()[:16] + ext
        path = os.path.join(self.path, name)
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write(text)
        return path


def _expect(cond, what):
    return None if cond else what


def _frac(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


# --- frames ------------------------------------------------------------------

def _meet_text(m):
    return " & ".join(sorted(m)) if m else "top"


def _expr_text(expr):
    return " | ".join(_meet_text(m) for m in expr) if expr else "bot"


def _presentation_text(gens, rules):
    lines = ["gen " + " ".join(gens)]
    for lhs, rhs in rules:
        rhs_s = " | ".join(_meet_text(t) for t in sorted(rhs, key=sorted)) \
            if rhs else "bot"
        lines.append(f"rel {_meet_text(lhs)} <= {rhs_s}")
    return "\n".join(lines) + "\n"


def _random_rule(rng, gens):
    a, b, c = rng.sample(gens, 3)
    kind = rng.randrange(4)
    if kind == 0:   # exclusion
        return frozenset([a, b]), frozenset()
    if kind == 1:   # covering
        return frozenset(), frozenset([frozenset([a]), frozenset([b])])
    if kind == 2:   # implication
        return frozenset([a]), frozenset([frozenset([b])])
    return frozenset([a]), frozenset([frozenset([b]), frozenset([c])])


def sample_presentation(rng, n, lo, hi):
    """A random presentation (gens, rules) on n generators whose frame has
    lo..hi elements by the oracle."""
    gens = sorted(rng.sample(NAMES, n))
    while True:
        rules = [_random_rule(rng, gens)
                 for _ in range(rng.randint(n - 1, n + 3))]
        if lo <= oracles.count_upsets(oracles.models(gens, rules), hi) <= hi:
            return gens, rules


def cantor(n):
    gens = [f"{s}{i}" for i in range(n) for s in "zu"]
    rules = []
    for i in range(n):
        rules.append((frozenset([f"z{i}", f"u{i}"]), frozenset()))
        rules.append((frozenset(),
                      frozenset([frozenset([f"z{i}"]), frozenset([f"u{i}"])])))
    text = ("prop z[i], u[i] for i<N;\n"
            "axiom z[i] & u[i] |- false;\n"
            "axiom true |- z[i] | u[i];\n")
    return sorted(gens), rules, text, f"N={n}"


def surjections(n, x):
    gens = [f"p{i}_{v}" for i in range(n) for v in range(x)]
    rules = []
    for i in range(n):
        for v in range(x):
            for w in range(x):
                if v != w:
                    rules.append((frozenset([f"p{i}_{v}", f"p{i}_{w}"]),
                                  frozenset()))
        rules.append((frozenset(),
                      frozenset(frozenset([f"p{i}_{v}"]) for v in range(x))))
    for v in range(x):
        rules.append((frozenset(),
                      frozenset(frozenset([f"p{i}_{v}"]) for i in range(n))))
    text = ("prop p[i][v] for i<n, v<X;\n"
            "axiom p[i][v] & p[i][w] |- false for i<n, v<X, w<X if v != w;\n"
            "axiom true |- some v<X. p[i][v] for i<n;\n"
            "axiom true |- some i<n. p[i][v] for v<X;\n")
    return sorted(gens), rules, text, f"n={n},X={x}"


def _random_expr(rng, gens):
    r = rng.random()
    if r < 0.05:
        return []
    if r < 0.1:
        return [frozenset()]
    return [frozenset(rng.sample(gens, rng.randint(1, 2)))
            for _ in range(rng.randint(1, 2))]


def _leq_pair(rng, gens):
    lhs = _random_expr(rng, gens)
    if rng.random() < 0.5:
        return lhs, _random_expr(rng, gens)
    # a weakening of lhs, so that about half the pairs hold
    rhs = [frozenset(sorted(m)[:-1]) if len(m) > 1 and rng.random() < 0.5
           else m for m in lhs]
    return lhs, rhs + ([frozenset([rng.choice(gens)])]
                       if rng.random() < 0.5 else [])


class FrameInput:
    """One frame input (a presentation or a truncated theory) and the
    queries that can be asked about it."""

    def __init__(self, files, gens, rules, text, truncate=None):
        self.gens, self.truncate = gens, truncate
        self.ms = oracles.models(gens, rules)
        self.path = files.write(text, ".thy" if truncate else ".pres")
        self.key = self.path + (truncate or "")
        self.size, self.edges = oracles.upset_lattice_edges(self.ms)

    def _q(self, argv, check):
        trunc = ["--truncate", self.truncate] if self.truncate else []
        return Query(argv + trunc, check, self.key)

    def elements(self):
        def check(out):
            return _expect(out["count"] == self.size
                           and len(out["hasse_edges"]) == self.edges,
                           f"elements {out['count']} != {self.size}")
        return self._q(["frame", "elements", self.path], check)

    def points(self):
        want = {tuple(sorted(m)) for m in self.ms}

        def check(out):
            got = [tuple(p) for p in out["points"]]
            return _expect(out["count"] == len(want) and set(got) == want
                           and len(got) == len(want), "points differ")
        return self._q(["frame", "points", self.path], check)

    def compact(self):
        return self._q(["frame", "compact", self.path],
                       lambda out: _expect(out["compact"] is True,
                                           "not compact"))

    def models(self):
        want = {tuple(sorted(m)) for m in self.ms}

        def check(out):
            got = [tuple(m) for m in out["models"]]
            return _expect(out["count"] == len(want) and set(got) == want
                           and len(got) == len(want)
                           and out["frame_nontrivial"] == bool(want),
                           "models differ")
        return self._q(["theory", "models", self.path], check)

    def leq(self, rng):
        lhs, rhs = _leq_pair(rng, self.gens)
        want = oracles.leq(lhs, rhs, self.ms)
        return self._q(["frame", "leq", self.path, _expr_text(lhs),
                        _expr_text(rhs)],
                       lambda out: _expect(out["leq"] is want,
                                           f"leq should be {want}"))


def _session(rng, inp, leqs, theory=False):
    qs = [inp.elements(), inp.leq(rng), inp.points(), inp.compact()]
    if theory:
        qs.append(inp.models())
    qs += [inp.leq(rng) for _ in range(leqs - 1)]
    return qs


FRAME_BANDS = (  # (sessions per round, generators, frame size band)
    (4, 4, (16, 24)),
    (4, 5, (52, 64)),
)
BIG_BAND = (150, 160)  # 5 generators


def frames_round(rng, r, files):
    """Few rules, many elements: every query but `leq` enumerates a frame.

    A round: eight sessions on fresh random presentations (4 and 5
    generators), one big presentation (5 generators, BIG_BAND elements)
    without the compactness query, one session each on cantor N=1 or 2
    and surj n=3,X=2, `leq` on cantor N=3 (256 elements, whose enumerating
    queries are left out as too slow for one run), and return visits to
    inputs seen earlier in the round."""
    sessions = []
    seen = []
    for count, n, (lo, hi) in FRAME_BANDS:
        for _ in range(count):
            gens, rules = sample_presentation(rng, n, lo, hi)
            inp = FrameInput(files, gens, rules,
                             _presentation_text(gens, rules))
            seen.append(inp)
            sessions.append(_session(rng, inp, leqs=7))
    gens, rules = sample_presentation(rng, 5, *BIG_BAND)
    big = FrameInput(files, gens, rules, _presentation_text(gens, rules))
    sessions.append([big.elements(), big.leq(rng), big.points(),
                     big.leq(rng)])
    for gens, rules, text, trunc in (cantor(1 + r % 2), surjections(3, 2)):
        inp = FrameInput(files, gens, rules, text, truncate=trunc)
        sessions.append(_session(rng, inp, leqs=3, theory=True))
    gens, rules, text, trunc = cantor(3)
    c3 = FrameInput(files, gens, rules, text, truncate=trunc)
    sessions.append([c3.leq(rng) for _ in range(3)])
    for _ in range(3):
        inp = rng.choice(seen)
        sessions.append([inp.leq(rng), inp.leq(rng), inp.elements(),
                         inp.leq(rng)])
    return [q for s in sessions for q in s]


# --- duality -----------------------------------------------------------------

LATTICE_SIZES = (3, 4, 4, 5, 5, 6, 6, 6, 6, 6, 7, 8, 9, 10, 12, 16)
MODELS_MAX = 8  # Stone theories are queried for lattices up to this size


def random_poset(rng, size):
    """A random poset P with 2-4 elements and |D(P)| == size, as
    (elements, {x: elements <= x})."""
    n_choices = [n for n, sizes in ((2, (3, 4)), (3, (4, 5, 6, 8)),
                                    (4, (5, 6, 7, 8, 9, 10, 12, 16)))
                 if size in sizes]
    while True:
        n = rng.choice(n_choices)
        elems = sorted(rng.sample("abcdeghk", n))
        order = elems[:]
        rng.shuffle(order)
        below = {x: {x} for x in elems}
        # order is a linear extension: below[x] is final when x's turn
        # comes, so copying it upward keeps the relation transitive
        for i, x in enumerate(order):
            for y in order[i + 1:]:
                if rng.random() < 0.45:
                    below[y] |= below[x]
        if len(oracles.downsets(elems, below)) == size:
            return elems, below


def _dname(d):
    return "d" + "".join(sorted(d)) if d else "o"


def lattice_text(lat):
    pairs = [f"{_dname(a)}<{_dname(b)}" for a in lat for b in lat
             if a < b and not any(a < c < b for c in lat)]
    return ("elements: " + " ".join(_dname(d) for d in lat) + "\n"
            "leq: " + " ".join(pairs) + "\n")


def stone_theory_text(lat):
    """The prime-filter theory of a lattice of sets, written out axiom by
    axiom: top holds, bottom fails, and membership respects meets and
    joins in both directions."""
    def f(d):
        return "f_" + _dname(d)
    top, bot = max(lat, key=len), min(lat, key=len)
    axioms = set()
    for a in lat:
        for b in lat:
            m, j = a & b, a | b
            axioms.add(f"axiom {f(a)} & {f(b)} |- {f(m)};")
            axioms.add(f"axiom {f(m)} |- {f(a)} & {f(b)};")
            axioms.add(f"axiom {f(j)} |- {f(a)} | {f(b)};")
            axioms.add(f"axiom {f(a)} |- {f(j)};")
    return "\n".join(["prop " + ", ".join(f(d) for d in lat) + ";",
                      f"axiom true |- {f(top)};", f"axiom {f(bot)} |- false;"]
                     + sorted(axioms)) + "\n"


def _duality_queries(rng, files, size):
    elems, below = random_poset(rng, size)
    lat = oracles.downsets(elems, below)
    path = files.write(lattice_text(lat), ".lat")
    filters = {frozenset(_dname(d) for d in lat if p in d) for p in elems}

    def spectrum(out):
        got = [frozenset(f) for f in out["prime_filters"]]
        return _expect(out["count"] == len(elems) and set(got) == filters
                       and len(got) == len(filters), "spectrum is not P")

    irr = {p: _dname(below[p]) for p in elems}
    hasse = {(irr[a], irr[b]) for a, b in oracles.covers(elems, below)}

    def birkhoff(out):
        return _expect(sorted(out["irreducibles"]) == sorted(irr.values())
                       and {tuple(e) for e in out["irreducible_hasse"]}
                       == hasse and len(out["irreducible_hasse"]) == len(hasse)
                       and out["downsets"] == len(lat)
                       and out["isomorphism_verified"] is True,
                       "irreducibles are not P")

    qs = [Query(["stone", "spectrum", path], spectrum, path),
          Query(["stone", "birkhoff", path], birkhoff, path)]
    if size <= MODELS_MAX:
        thy = files.write(stone_theory_text(lat), ".thy")
        want = {tuple(sorted("f_" + n for n in f)) for f in filters}

        def stone_models(out):
            got = [tuple(m) for m in out["models"]]
            return _expect(out["count"] == len(elems) and set(got) == want
                           and len(got) == len(want), "Stone models are not P")
        qs.append(Query(["theory", "models", thy], stone_models, thy))
    return qs


def _hausdorff_query(rng, files):
    n = rng.randint(1, 3)
    gens = sorted(rng.sample(NAMES, n))
    rules = []
    for _ in range(rng.randint(0, n + 1)):
        a, b = rng.choice(gens), rng.choice(gens)
        rules.append(rng.choice((
            (frozenset([a, b]), frozenset()),
            (frozenset(), frozenset([frozenset([a]), frozenset([b])])),
            (frozenset([a]), frozenset([frozenset([b])])))))
    ms = oracles.models(gens, rules)
    want = oracles.is_antichain(ms)
    path = files.write(_presentation_text(gens, rules), ".pres")

    def check(out):
        return _expect(out["hausdorff"] is want
                       and ("witness" in out) == want,
                       f"hausdorff should be {want}")
    return Query(["frame", "hausdorff", path], check, path)


def duality_round(rng, r, files):
    """Many rules, few elements, and the order and coproduct code.

    A round: one lattice D(P) for each size in LATTICE_SIZES (spectrum,
    Birkhoff, and Stone-theory models up to MODELS_MAX elements), and six
    Hausdorff queries on 1-3-generator presentations, interleaved."""
    qs = []
    sizes = list(LATTICE_SIZES)
    rng.shuffle(sizes)
    for k, size in enumerate(sizes):
        qs += _duality_queries(rng, files, size)
        if k % 2 == 0:
            qs.append(_hausdorff_query(rng, files))
    return qs


# --- evt ---------------------------------------------------------------------

def _poly_text(coeffs):
    """c0 + c1*x + c2*x*x + ... with the powers written as repeated x, so
    the naive interval form meets the dependency problem."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "*".join(["x"] * k)
        mag = _frac(abs(c))
        body = mag if k == 0 else (mono if mag == "1" else f"{mag}*{mono}")
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def _poly(coeffs):
    return lambda x: sum(c * x ** k for k, c in enumerate(coeffs))


def _rat(rng, lo, hi, den):
    """A random rational in [lo, hi] with the given denominator."""
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


def _domain(rng):
    """One or two rational components inside [0, 5/2]."""
    if rng.random() < 0.5:
        lo = _rat(rng, 0, Fraction(1, 2), 8)
        return [(lo, lo + _rat(rng, Fraction(1, 2), Fraction(3, 2), 8))]
    a = _rat(rng, 0, Fraction(1, 2), 8)
    b = a + _rat(rng, Fraction(1, 4), Fraction(3, 4), 8)
    c = b + _rat(rng, Fraction(1, 8), Fraction(1, 2), 8)
    return [(a, b), (c, c + _rat(rng, Fraction(1, 4), Fraction(3, 4), 8))]


def _around(rng, lo, hi):
    """A domain whose first component contains [lo, hi], sometimes with a
    second component to its right.  The cost of a dependency-problem form
    grows with |x| near its maximizer, so the maximizers of those families
    are kept in a narrow band to keep the per-round work steady."""
    a = lo - _rat(rng, Fraction(1, 4), Fraction(3, 4), 16)
    b = hi + _rat(rng, Fraction(1, 4), Fraction(3, 4), 16)
    if rng.random() < 0.5:
        return [(a, b)]
    c = b + _rat(rng, Fraction(1, 8), Fraction(1, 4), 16)
    return [(a, b), (c, c + _rat(rng, Fraction(1, 8), Fraction(1, 2), 16))]


def _domain_text(comps):
    return " u ".join(f"[{_frac(lo)},{_frac(hi)}]" for lo, hi in comps)


def _inside(rng, comps):
    lo, hi = rng.choice(comps)
    return lo + (hi - lo) * Fraction(rng.randint(1, 15), 16)


def _quadratic(rng, v, top):
    """Coefficients of c + b*x - a*x*x with vertex v and value top there."""
    a = _rat(rng, Fraction(1, 2), Fraction(3, 2), 8)
    return [top - a * v * v, 2 * a * v, -a]


def family(rng, name):
    """(text, f, domain, candidates): an expression, its exact evaluator,
    its domain, and a finite set holding every interior local maximizer."""
    if name == "quad":
        v = _rat(rng, Fraction(7, 8), Fraction(9, 8), 64)
        coeffs = _quadratic(rng, v, _rat(rng, 1, 3, 8))
        return _poly_text(coeffs), _poly(coeffs), _around(rng, v, v), [v]
    if name == "logistic":
        # x*(1-x) and its neighbours: the cover grows as eps shrinks
        p = 1 + Fraction(rng.randint(-4, 4), 64)
        f = lambda x: x * (p - x)  # noqa: E731
        comps = [(Fraction(0), Fraction(rng.randint(7, 9), 8))]
        return f"x*({_frac(p)}-x)", f, comps, [p / 2]
    if name == "twopeak":
        v1 = _rat(rng, Fraction(1, 2), Fraction(5, 8), 64)
        v2 = _rat(rng, Fraction(9, 8), Fraction(5, 4), 64)
        t1 = _rat(rng, 1, 2, 8)
        t2 = t1 + Fraction(rng.choice((-1, 1)), 10 ** rng.randint(2, 4))
        c1, c2 = _quadratic(rng, v1, t1), _quadratic(rng, v2, t2)
        f1, f2 = _poly(c1), _poly(c2)
        return (f"max({_poly_text(c1)}, {_poly_text(c2)})",
                lambda x: max(f1(x), f2(x)), _around(rng, v1, v2), [v1, v2])
    if name == "cubic":
        # f' = k (x - s)(x - t) with k < 0: local max at t, local min at s
        t = _rat(rng, Fraction(7, 8), Fraction(9, 8), 64)
        s = t - _rat(rng, Fraction(1, 2), 1, 8)
        k = -_rat(rng, Fraction(1, 2), 2, 4)
        c = _rat(rng, 0, 2, 4)
        coeffs = [c, k * s * t, -k * (s + t) / 2, k / 3]
        return _poly_text(coeffs), _poly(coeffs), _around(rng, t, t), [t]
    comps = _domain(rng)
    if name == "absmin":
        if rng.random() < 0.5:
            r = _inside(rng, comps)
            c = _rat(rng, 1, 3, 4)
            f = lambda x: c - abs(x * x - r * r)  # noqa: E731
            return (f"{_frac(c)} - abs(x*x - {_frac(r * r)})", f, comps, [r])
        v = _inside(rng, comps)
        coeffs = _quadratic(rng, v, _rat(rng, 1, 3, 8))
        cap = _poly(coeffs)(v) - _rat(rng, Fraction(1, 16), Fraction(1, 4), 16)
        q = _poly(coeffs)
        # the plateau of the min is the maximizer set and contains v
        return (f"min({_poly_text(coeffs)}, {_frac(cap)})",
                lambda x: min(q(x), cap), comps, [v])
    if name == "bump":
        a = _inside(rng, comps)
        b, c = _rat(rng, 1, 3, 4), _rat(rng, 1, 3, 4)
        f = lambda x: b - c * (x - a) ** 2  # noqa: E731
        return (f"{_frac(b)} - {_frac(c)}*(x-{_frac(a)})^2", f, comps, [a])
    raise ValueError(name)


def _max_query(rng, name, eps):
    text, f, comps, cands = family(rng, name)
    m, xstar = oracles.closed_form_max(f, comps, cands)
    grid = oracles.grid_max(f, comps)
    eps = Fraction(1, eps)
    dom = _domain_text(comps)

    def check(out):
        lo, hi = Fraction(out["lower"]), Fraction(out["upper"])
        cover = [(Fraction(a), Fraction(b)) for a, b in out["cover"]]
        return _expect(lo <= m <= hi and hi - lo <= eps and grid <= hi
                       and any(a <= xstar <= b for a, b in cover),
                       f"enclosure [{lo}, {hi}] misses {m}")
    return Query(["evt", "max", f"--expr={text}", f"--domain={dom}",
                  f"--eps={_frac(eps)}"], check, text + dom)


def _locate_query(rng, name):
    text, f, comps, cands = family(rng, name)
    m, _ = oracles.closed_form_max(f, comps, cands)
    gap = Fraction(1, rng.choice((10, 50, 200)))
    where = rng.randrange(3)
    p = {0: m - 2 * gap, 1: m + gap, 2: m - gap / 2}[where]
    q = p + gap
    dom = _domain_text(comps)

    def check(out):
        if out["branch"] == "left":
            return _expect(p < m and all(
                f(Fraction(x)) > p for x in out["witness"]),
                "left branch with p >= max")
        return _expect(m < q, "right branch with max >= q")
    return Query(["evt", "locate", f"--expr={text}", f"--domain={dom}",
                  f"--p={_frac(p)}", f"--q={_frac(q)}"], check, text + dom)


def _validate_query(rng, name):
    text, f, comps, cands = family(rng, name)
    m, _ = oracles.closed_form_max(f, comps, cands)
    dom = _domain_text(comps)

    def check(out):
        return _expect(out["ok"] is True and out["probes"] == 20
                       and Fraction(out["lower"]) <= m
                       <= Fraction(out["upper"]), "validate failed")
    return Query(["evt", "validate", f"--expr={text}", f"--domain={dom}",
                  "--eps=1/1000", "--probes=20",
                  "--seed", str(rng.randrange(1000))], check, text + dom)


EVT_MAX_SLOTS = (  # (family, 1/eps, count)
    ("quad", 10 ** 3, 2), ("quad", 10 ** 4, 1),
    ("logistic", 10 ** 4, 1), ("logistic", 10 ** 5, 9),
    ("logistic", 10 ** 6, 1),
    ("twopeak", 10 ** 3, 1), ("cubic", 10 ** 3, 1),
    ("absmin", 10 ** 4, 1), ("absmin", 10 ** 5, 1),
    ("bump", 10 ** 3, 9), ("bump", 10 ** 4, 9), ("bump", 10 ** 5, 9),
    ("bump", 10 ** 6, 9),
)
EVT_LOCATE_SLOTS = (("quad", 1), ("twopeak", 1), ("cubic", 1),
                    ("logistic", 1), ("absmin", 2), ("bump", 19))
EVT_VALIDATE_SLOTS = (("quad", 1), ("logistic", 1), ("bump", 2))


def evt_round(rng, r, files):
    """Only the reals and evt layers: every expression is queried once.

    The counts shape the latency distribution so that each percentile
    falls inside one class of queries, away from the jumps in cost between
    classes, where which side it lands on would depend on the seed: about
    three quarters of a round are cheap bump and absmin queries (a few ms,
    per-call overhead), so the median falls in their middle, and the nine
    logistic queries at eps 1e-5 (about 0.2 s) straddle the 90th
    percentile, with the three costlier queries above them."""
    qs = [_max_query(rng, name, eps)
          for name, eps, count in EVT_MAX_SLOTS for _ in range(count)]
    qs += [_locate_query(rng, name)
           for name, count in EVT_LOCATE_SLOTS for _ in range(count)]
    qs += [_validate_query(rng, name)
           for name, count in EVT_VALIDATE_SLOTS for _ in range(count)]
    rng.shuffle(qs)
    return qs


ROUNDS = {"frames": frames_round, "duality": duality_round, "evt": evt_round}


def round_queries(workload, seed, r, files):
    """The queries of round r; the same (workload, seed, r) gives the same
    queries and the same input files."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    return ROUNDS[workload](rng, r, files)
