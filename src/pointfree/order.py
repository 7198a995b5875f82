"""Exact finite order theory.

Posets, downsets, finite distributive lattices and the finite Birkhoff /
Stone duality.  Everything is immutable and enumerated exhaustively under
the desk-scale caps in :mod:`pointfree.config`.
"""

import functools
from dataclasses import dataclass

from .config import DEFAULT
from .errors import NotDistributive, ParseError, PointfreeError


def sort_key(x):
    """Fixed total order on the opaque identifiers used for elements.

    Handles the identifier shapes that actually occur in this package:
    strings, ints, and (nested) tuples / frozensets of those.
    """
    if isinstance(x, frozenset):
        inner = sorted((sort_key(y) for y in x))
        return (2, len(x), inner)
    if isinstance(x, tuple):
        return (1, len(x), [sort_key(y) for y in x])
    return (0, 0, [(str(type(x).__name__), str(x))])


def canon(items):
    """Sorted duplicate-free tuple under the fixed total order."""
    return tuple(sorted(set(items), key=sort_key))


def set_bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _down_masks(elements, pairs):
    """({e: position}, {e: mask of ↓e}) from the pairs (a, b), a <= b, in
    the order given; the first naming an unknown element is refused."""
    index = {e: i for i, e in enumerate(elements)}
    down = dict.fromkeys(elements, 0)
    for a, b in pairs:
        if a not in index or b not in index:
            raise PointfreeError(
                f"leq pair ({a}, {b}) mentions unknown element")
        down[b] |= 1 << index[a]
    return index, down


class _Order:
    """The down-set masks (`_down_masks`) of `Poset` and `DistLattice`."""

    def le(self, a, b):
        return self._down[b] >> self._index[a] & 1 == 1

    def _lower_cover_mask(self, e):
        """The mask of the maximal elements strictly below e."""
        strict = self._down[e] & ~(1 << self._index[e])
        under = 0
        for i in set_bits(strict):
            under |= self._down[self.elements[i]] & ~(1 << i)
        return strict & ~under

    def hasse_edges(self):
        """Covering pairs (a, b): a < b with nothing strictly between."""
        edges = [(self.elements[i], b) for b in self.elements
                 for i in set_bits(self._lower_cover_mask(b))]
        return sorted(edges, key=lambda e: (sort_key(e[0]), sort_key(e[1])))

    def subposet(self, subset):
        subset = canon(subset)
        return Poset(subset, frozenset((a, b) for a in subset for b in subset
                                       if self.le(a, b)))


@dataclass(frozen=True)
class Poset(_Order):
    """A finite poset: elements plus a reflexive-antisymmetric-transitive
    leq.  Each check names its first failure in element order."""

    elements: tuple
    leq: frozenset  # pairs (a, b) with a <= b

    def __post_init__(self):
        index, down = _down_masks(self.elements, self.leq)
        self.__dict__.update(_index=index, _down=down)  # frozen dataclass
        elems = self.elements
        for a, m in down.items():
            if not m >> index[a] & 1:
                raise PointfreeError(f"leq not reflexive at {a}")
        _check_antisymmetric(elems, index, down)
        for c, m in down.items():
            for j in set_bits(m):
                if missing := down[elems[j]] & ~m:
                    a = elems[next(set_bits(missing))]
                    raise PointfreeError(
                        f"leq not transitive via {a} <= {elems[j]} <= {c}")

    @classmethod
    def from_relation(cls, elements, pairs):
        """Build from an arbitrary relation, ordered by its closure."""
        elements, _, down = _closure(elements, pairs)
        return cls(elements, frozenset((elements[i], b)
                                       for b, m in down.items()
                                       for i in set_bits(m)))


def _closure(elements, pairs):
    """(the elements in canonical order, {e: position}, {e: mask of ↓e}) of
    the reflexive-transitive closure of a relation, by Warshall on masks:
    step k adds ↓k to every ↓x holding k."""
    elements = canon(elements)
    index, down = _down_masks(elements, pairs)
    for k, e in enumerate(elements):
        down[e] |= 1 << k  # reflexive: adds no other pair below
        for x, m in down.items():
            if m >> k & 1:
                down[x] = m | down[e]
    return elements, index, down


def _check_antisymmetric(elems, index, down):
    """Refuse a <= b <= a for a != b, at the first a in element order."""
    for a, m in down.items():
        for j in set_bits(m & ~(1 << index[a])):
            if down[elems[j]] >> index[a] & 1:
                raise PointfreeError(
                    f"leq not antisymmetric on {a}, {elems[j]}")


class _ElementMap(dict):
    def __missing__(self, u):
        raise PointfreeError(f"unknown element {u!r}")


class DistLattice(_Order):
    """Finite bounded distributive lattice, given by its elements and order.

    Meets and joins are read off the down-set masks: ↓(a ∧ b) = ↓a ∩ ↓b, so
    the meet is the element whose mask is the intersection, and there is
    none when the common lower bounds have no greatest one.  Joins use
    up-set masks the same way.  parse_lattice_text checks distributivity,
    and hands over the down-set masks {e: mask of ↓e} of its closure in
    place of a pair set."""

    def __init__(self, elements, leq_pairs=(), down=None):
        self.elements = elems = tuple(elements)
        index, listed = _down_masks(elems, leq_pairs)
        self._index, self._down = index, down = (
            index, listed if down is None else down)
        if len(index) != len(elems):
            raise PointfreeError("duplicate lattice elements")
        up = dict.fromkeys(elems, 0)
        for b, m in down.items():
            for i in set_bits(m):
                up[elems[i]] |= 1 << index[b]
        below = {m: e for e, m in down.items()}
        if len(below) < len(elems):  # two elements with one down-set
            raise PointfreeError("leq is not antisymmetric")
        above = {m: e for e, m in up.items()}
        self.meet_table, self.join_table = meets, joins = {}, {}
        for a in elems:
            da, ua = down[a], up[a]
            for b in elems:
                m = below.get(da & down[b])
                j = above.get(ua & up[b])
                if m is None or j is None:
                    kind = "meet" if m is None else "join"
                    raise PointfreeError(
                        f"{kind} of {a} and {b} does not exist uniquely")
                meets[a, b] = m
                joins[a, b] = j
        full = (1 << len(elems)) - 1
        if full not in above or full not in below:
            raise PointfreeError("lattice lacks a unique bottom or top")
        self.bottom, self.top = above[full], below[full]

    @functools.cached_property
    def lower_covers(self):
        """J in element order, each j mapped to j⁻: the j with exactly one
        lower cover.  ⋁{x < j} joins j's lower covers, so it is j when there
        are none (j = ⊥) or two (each lies strictly below their join)."""
        covers = {j: self._lower_cover_mask(j) for j in self.elements}
        return {j: self.elements[m.bit_length() - 1]
                for j, m in covers.items() if m.bit_count() == 1}

    @functools.cached_property
    def j_below(self):
        """u ↦ J ∩ ↓u; an unknown u raises PointfreeError."""
        return _ElementMap(
            {u: frozenset(j for j in self.lower_covers if self.le(j, u))
             for u in self.elements})

    def meet(self, a, b):
        return self.meet_table[a, b]

    def join(self, a, b):
        return self.join_table[a, b]

    def join_all(self, items):
        out = self.bottom
        for x in items:
            out = self.join(out, x)
        return out

    def distributivity_witness(self):
        """A triple violating a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c), or None.  The
        lattice is distributive iff every j in J is join-prime (then u ↦ J ∩ ↓u
        embeds it in 2^J).  r joins up the x with j ≰ x; if j ≤ r ∨ x, then
        j ∧ r and j ∧ x lie below j's lower cover, so (j, r, x) fails."""
        for j in self.lower_covers:
            r = self.bottom
            for x in (x for x in self.elements if not self.le(j, x)):
                if self.le(j, self.join(r, x)):
                    return (j, r, x)
                r = self.join(r, x)
        return None


def enumerate_downsets(poset):
    """All downsets of a poset, canonically ordered."""
    downs = {frozenset()}
    for e in poset.elements:
        principal = frozenset(b for b in poset.elements if poset.le(b, e))
        downs |= {d | principal for d in downs}
    # the loop above yields all unions of principal downsets plus the empty
    # set, which is exactly the downset lattice
    return sorted(downs, key=sort_key)


def count_downsets(below, s, memo, limits=DEFAULT, field="element_cap"):
    """|D(S)| for the poset elements indexed by the bits of s along a linear
    extension, below[k] masking those strictly below k, memo from {0: 1}: a
    downset omits the top k of s, or holds it and all of S below it.  The
    sub-counts are found on a stack.  A sub-mask with top element h is the
    part of S up to h less a downset of it, so more than the cap `field`
    of them show |D(S)| past it, and the count stops there."""
    cap = getattr(limits, field)
    added = [0] * s.bit_length()  # sub-counts this count adds, by top
    stack = [s]
    while stack:
        t = stack.pop()
        if t in memo:
            continue
        k = t.bit_length() - 1
        a = t & ~(1 << k)
        b = a & ~below[k]
        if a in memo and b in memo:
            memo[t] = memo[a] + memo[b]
            added[k] += 1
            if added[k] > cap:
                limits.check("down-set sub-counts with one top", added[k],
                             field)
        else:
            stack += (t, a, b)
    return memo[s]


def downset_lattice(p, limits=DEFAULT):
    """The lattice of downsets of p ordered by inclusion."""
    limits.check("poset", len(p.elements), "poset_cap")
    downs = enumerate_downsets(p)
    leq = [(a, b) for a in downs for b in downs if a <= b]
    return DistLattice(downs, leq)


def join_irreducibles(l):
    """Induced subposet of the nonbottom j that are not the join of the
    elements strictly below them, which is j = a∨b ⟹ j ∈ {a, b}."""
    return l.subposet(l.lower_covers)


def birkhoff_iso(l):
    """Mutually inverse maps between l and the downsets of its irreducibles:
    (irr_poset, to_downset, from_downset), or NotDistributive with a witness
    triple.  Every j is then join-prime, so a = ⋁(J ∩ ↓a) and J ∩ ↓⋁D = D
    for each downset D of J (Birkhoff)."""
    w = l.distributivity_witness()
    if w is not None:
        raise NotDistributive(w)
    return join_irreducibles(l), l.j_below.__getitem__, l.join_all


def prime_filters(l):
    """All prime filters.  A prime filter of a finite lattice is the upset
    of its least element, which is join-prime; in a distributive lattice
    the join-prime elements are exactly the join-irreducible ones."""
    return sorted((frozenset(b for b, js in l.j_below.items() if j in js)
                   for j in l.lower_covers), key=sort_key)


def read_poset_text(text):
    """(element names, listed pairs) of `elements: a b c` / `leq: a<b b<c`."""
    elements = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            if elements is not None:
                raise ParseError("duplicate elements line", line=lineno)
            elements = line[len("elements:"):].split()
        elif line.startswith("leq:"):
            for chunk in line[len("leq:"):].split():
                if "<" not in chunk:
                    raise ParseError(f"bad leq pair {chunk!r}", line=lineno)
                a, b = chunk.split("<", 1)
                if not a or not b:
                    raise ParseError(f"bad leq pair {chunk!r}", line=lineno)
                pairs.append((a, b))
        else:
            raise ParseError(f"unknown directive {line.split(':')[0]!r}",
                             line=lineno)
    if elements is None:
        raise ParseError("missing elements line")
    return elements, pairs


def parse_lattice_text(text, limits=DEFAULT):
    """A DistLattice from the poset text format, ordered by the reflexive
    transitive closure of the listed pairs, which must be distributive;
    meets and joins are read off the order and must exist uniquely.  The
    names on the elements line are counted against poset_cap first."""
    elements, pairs = read_poset_text(text)
    limits.check("lattice", len(set(elements)), "poset_cap")
    try:  # the closure is reflexive and transitive; only this can fail
        elements, index, down = _closure(elements, pairs)
        _check_antisymmetric(elements, index, down)
    except PointfreeError as exc:
        raise ParseError(str(exc))
    lattice = DistLattice(elements, down=down)
    if w := lattice.distributivity_witness():
        raise NotDistributive(w)
    return lattice
