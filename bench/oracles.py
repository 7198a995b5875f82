"""Reference answers computed without importing `pointfree`.

Frames: a finite frame is spatial, so a presentation's frame is the lattice
of up-sets of its models (truth assignments satisfying every rule) ordered
by inclusion, and an element built from generators is the set of models
where it holds.  Duality: the prime filters of D(P) are the filters
{D : p in D}.  Maximizer: exact `Fraction` arithmetic on the generator's own
closed forms.
"""

from fractions import Fraction
from itertools import combinations


# --- propositional models ---------------------------------------------------

def models(gens, rules):
    """All sets of generators satisfying every rule.

    A rule is (lhs, rhs): a frozenset of generators (the meet) and a set of
    such meets (the join); it holds when lhs true implies some rhs true."""
    out = []
    for k in range(len(gens) + 1):
        for true in combinations(gens, k):
            true = frozenset(true)
            if all(not lhs <= true or any(t <= true for t in rhs)
                   for lhs, rhs in rules):
                out.append(true)
    return out


def _order_masks(ms):
    up = [0] * len(ms)
    down = [0] * len(ms)
    for i, a in enumerate(ms):
        for j, b in enumerate(ms):
            if a <= b:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return up, down


def count_upsets(ms, cap):
    """Number of up-sets of the models under inclusion, or cap + 1 when it
    exceeds cap.  Splits on one element x: up-sets containing x are those
    of the rest minus the up-set of x, the others avoid the down-set of x."""
    up, down = _order_masks(ms)
    memo = {}

    def count(s):
        if s == 0:
            return 1
        if s in memo:
            return memo[s]
        x = (s & -s).bit_length() - 1
        total = count(s & ~up[x])
        if total <= cap:
            total += count(s & ~down[x])
        memo[s] = min(total, cap + 1)
        return memo[s]

    return count((1 << len(ms)) - 1)


def upset_lattice_edges(ms):
    """(number of up-sets, number of covering pairs) of the up-set lattice:
    U is covered by U + {m} when m is outside U and every strict superset
    of m is in U."""
    up, _ = _order_masks(ms)
    n = len(ms)
    strict_up = [up[i] & ~(1 << i) for i in range(n)]
    edges = 0
    stack = [0]
    seen = {0}
    while stack:
        u = stack.pop()
        for m in range(n):
            if not (u >> m) & 1 and strict_up[m] & ~u == 0:
                edges += 1
                v = u | (1 << m)
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return len(seen), edges


def holds(expr, model):
    """Truth of a join of meets (a list of frozensets; [] is bot and the
    empty meet is top) at a model."""
    return any(m <= model for m in expr)


def leq(lhs, rhs, ms):
    """Order of the spatial frame: every model of lhs is a model of rhs."""
    return all(holds(rhs, m) for m in ms if holds(lhs, m))


def is_antichain(ms):
    return not any(a < b for a in ms for b in ms)


# --- finite distributive lattices D(P) ---------------------------------------

def downsets(elems, below):
    """Downsets of a poset given as {element: set of elements <= it}."""
    out = []
    for k in range(len(elems) + 1):
        for d in combinations(elems, k):
            d = frozenset(d)
            if all(below[x] <= d for x in d):
                out.append(d)
    return out


def covers(elems, below):
    """Covering pairs (a, b), a < b, of a poset."""
    out = []
    for a in elems:
        for b in elems:
            if a != b and a in below[b] and not any(
                    c not in (a, b) and a in below[c] and c in below[b]
                    for c in elems):
                out.append((a, b))
    return out


# --- exact maxima ------------------------------------------------------------

def grid_max(f, components, points=48):
    """Largest exact value of f on an evenly spaced rational grid."""
    best = None
    for lo, hi in components:
        for k in range(points + 1):
            v = f(lo + (hi - lo) * Fraction(k, points))
            best = v if best is None else max(best, v)
    return best


def in_domain(x, components):
    return any(lo <= x <= hi for lo, hi in components)


def closed_form_max(f, components, candidates):
    """Max of f over the domain when every local maximizer inside it is
    among the candidates: compare the endpoints and the candidates that lie
    in the domain.  Returns (M, a maximizer)."""
    xs = [x for lo, hi in components for x in (lo, hi)]
    xs += [x for x in candidates if in_domain(x, components)]
    best = max(xs, key=lambda x: (f(x), -x))
    return f(best), best
