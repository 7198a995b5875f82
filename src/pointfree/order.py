"""Exact finite order theory.

Posets, downsets, Kuratowski-finite subsets, finite distributive lattices,
ideal completion and the finite Birkhoff / Stone duality.  Everything is
immutable and enumerated exhaustively under the desk-scale caps in
:mod:`pointfree.config`.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .config import DEFAULT
from .errors import (CapExceeded, NotDistributive, ParseError,
                     PointfreeError)


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


@dataclass(frozen=True)
class Poset:
    """A finite poset: elements plus a reflexive-antisymmetric-transitive leq."""

    elements: tuple
    leq: frozenset  # pairs (a, b) with a <= b

    def __post_init__(self):
        elems = set(self.elements)
        for a, b in self.leq:
            if a not in elems or b not in elems:
                raise PointfreeError(f"leq pair ({a}, {b}) mentions unknown element")
        for a in elems:
            if (a, a) not in self.leq:
                raise PointfreeError(f"leq not reflexive at {a}")
        for a, b in self.leq:
            if a != b and (b, a) in self.leq:
                raise PointfreeError(f"leq not antisymmetric on {a}, {b}")
        for a, b in self.leq:
            for c in elems:
                if (b, c) in self.leq and (a, c) not in self.leq:
                    raise PointfreeError(f"leq not transitive via {a} <= {b} <= {c}")

    @classmethod
    def from_relation(cls, elements, pairs):
        """Build from an arbitrary relation, taking reflexive-transitive closure."""
        elements = canon(elements)
        rel = {(a, a) for a in elements} | set(pairs)
        changed = True
        while changed:
            changed = False
            for a, b in list(rel):
                for b2, c in list(rel):
                    if b == b2 and (a, c) not in rel:
                        rel.add((a, c))
                        changed = True
        return cls(elements, frozenset(rel))

    def le(self, a, b):
        return (a, b) in self.leq

    def hasse_edges(self):
        """Covering pairs (a, b): a < b with nothing strictly between."""
        edges = []
        for a in self.elements:
            for b in self.elements:
                if a == b or not self.le(a, b):
                    continue
                if any(c not in (a, b) and self.le(a, c) and self.le(c, b)
                       for c in self.elements):
                    continue
                edges.append((a, b))
        return sorted(edges, key=lambda e: (sort_key(e[0]), sort_key(e[1])))

    def to_json_dict(self):
        return {
            "elements": [str(e) for e in self.elements],
            "hasse_edges": [[str(a), str(b)] for a, b in self.hasse_edges()],
        }


@dataclass(frozen=True)
class KFinSet:
    """Finitely listable subset: raw item sequence plus canonical form.

    The raw sequence may repeat items; all semantics factor through the
    canonical sorted duplicate-free form.
    """

    items: tuple
    canonical: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "canonical", canon(self.items))

    def __eq__(self, other):
        return isinstance(other, KFinSet) and self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)


class DistLattice:
    """Finite bounded distributive lattice with explicit meet/join tables."""

    def __init__(self, elements, leq_pairs, meet=None, join=None,
                 check_distributive=True):
        self.elements = tuple(elements)
        self._leq = frozenset(leq_pairs)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise PointfreeError("duplicate lattice elements")
        self.meet_table = {}
        self.join_table = {}
        for a in self.elements:
            for b in self.elements:
                m = meet(a, b) if meet else self._bound(a, b, lower=True)
                j = join(a, b) if join else self._bound(a, b, lower=False)
                if m not in self._index or j not in self._index:
                    raise PointfreeError("meet/join landed outside the lattice")
                self.meet_table[a, b] = m
                self.join_table[a, b] = j
        bottoms = [e for e in self.elements
                   if all(self.le(e, x) for x in self.elements)]
        tops = [e for e in self.elements
                if all(self.le(x, e) for x in self.elements)]
        if len(bottoms) != 1 or len(tops) != 1:
            raise PointfreeError("lattice lacks a unique bottom or top")
        self.bottom = bottoms[0]
        self.top = tops[0]
        if check_distributive:
            w = self.distributivity_witness()
            if w is not None:
                raise NotDistributive(w)

    def _bound(self, a, b, lower):
        if lower:
            cands = [c for c in self.elements if self.le(c, a) and self.le(c, b)]
            best = [c for c in cands if all(self.le(d, c) for d in cands)]
            kind = "meet"
        else:
            cands = [c for c in self.elements if self.le(a, c) and self.le(b, c)]
            best = [c for c in cands if all(self.le(c, d) for d in cands)]
            kind = "join"
        if len(best) != 1:
            raise PointfreeError(f"{kind} of {a} and {b} does not exist uniquely")
        return best[0]

    def le(self, a, b):
        return (a, b) in self._leq

    def meet(self, a, b):
        return self.meet_table[a, b]

    def join(self, a, b):
        return self.join_table[a, b]

    def join_all(self, items):
        out = self.bottom
        for x in items:
            out = self.join(out, x)
        return out

    def meet_all(self, items):
        out = self.top
        for x in items:
            out = self.meet(out, x)
        return out

    def distributivity_witness(self):
        """A triple violating a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c), or None."""
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    lhs = self.meet(a, self.join(b, c))
                    rhs = self.join(self.meet(a, b), self.meet(a, c))
                    if lhs != rhs:
                        return (a, b, c)
        return None

    def as_poset(self):
        return Poset(self.elements, self._leq)

    def subposet(self, subset):
        subset = canon(subset)
        return Poset(subset, frozenset((a, b) for a, b in self._leq
                                       if a in subset and b in subset))

    def to_json_dict(self):
        return self.as_poset().to_json_dict()


@dataclass(frozen=True)
class Ideal:
    """Lattice ideal: a downset containing bottom and closed under joins."""

    carrier: DistLattice
    members: frozenset

    def __post_init__(self):
        lat = self.carrier
        if lat.bottom not in self.members:
            raise PointfreeError("ideal must contain bottom")
        for a in self.members:
            for b in lat.elements:
                if lat.le(b, a) and b not in self.members:
                    raise PointfreeError("ideal not downward closed")
            for b in self.members:
                if lat.join(a, b) not in self.members:
                    raise PointfreeError("ideal not closed under joins")


def enumerate_downsets(poset):
    """All downsets of a poset, canonically ordered."""
    downs = {frozenset()}
    for e in poset.elements:
        principal = frozenset(b for b in poset.elements if poset.le(b, e))
        downs |= {d | principal for d in downs}
    # the loop above yields all unions of principal downsets plus the empty
    # set, which is exactly the downset lattice
    return sorted(downs, key=sort_key)


def downset_lattice(p, cap=None):
    """The lattice of downsets of p ordered by inclusion."""
    cap = cap if cap is not None else DEFAULT.poset_cap
    if len(p.elements) > cap:
        raise CapExceeded("poset", len(p.elements), cap)
    downs = enumerate_downsets(p)
    leq = [(a, b) for a in downs for b in downs if a <= b]
    return DistLattice(downs, leq,
                       meet=lambda a, b: a & b,
                       join=lambda a, b: a | b,
                       check_distributive=False)


def kfin_join(lattice, s):
    """Least upper bound of a KFinSet of lattice elements."""
    for x in s.canonical:
        if x not in lattice._index:
            raise PointfreeError(f"unknown element {x!r}")
    return lattice.join_all(s.canonical)


class FreeJoinSemilattice:
    """P_fin(G) under union: the free join-semilattice on a finite set."""

    def __init__(self, generators, cap=None):
        cap = cap if cap is not None else DEFAULT.poset_cap
        gens = canon(generators)
        if len(gens) > cap:
            raise CapExceeded("generator set", len(gens), cap)
        self.generators = gens
        elems = [frozenset(c) for n in range(len(gens) + 1)
                 for c in combinations(gens, n)]
        elems = sorted(set(elems), key=sort_key)
        leq = [(a, b) for a in elems for b in elems if a <= b]
        self.lattice = DistLattice(elems, leq,
                                   meet=lambda a, b: a & b,
                                   join=lambda a, b: a | b,
                                   check_distributive=False)

    def embed(self, g):
        return frozenset([g])

    def extend(self, f, target_join, target_bottom):
        """Universal extension of f: G -> T along joins.

        target_join is a binary join on T, target_bottom its unit; the
        returned function is the unique join-preserving extension.
        """
        def ext(subset):
            out = target_bottom
            for g in sorted(subset, key=sort_key):
                out = target_join(out, f(g))
            return out
        return ext


def join_irreducibles(l):
    """Induced subposet of the nonbottom j that are not the join of the
    elements strictly below them, which is j = a∨b ⟹ j ∈ {a, b}."""
    return l.subposet(j for j in l.elements if j != l.bottom
                      and l.join_all(x for x in l.elements
                                     if x != j and l.le(x, j)) != j)


def birkhoff_iso(l):
    """Mutually inverse maps between l and the downsets of its irreducibles.

    Returns (irr_poset, to_downset, from_downset); raises NotDistributive
    with a witness triple when the composites fail to be identities.
    """
    w = l.distributivity_witness()
    if w is not None:
        raise NotDistributive(w)
    irr = join_irreducibles(l)

    def to_downset(a):
        return frozenset(j for j in irr.elements if l.le(j, a))

    def from_downset(d):
        return l.join_all(sorted(d, key=sort_key))

    for a in l.elements:
        if from_downset(to_downset(a)) != a:
            raise PointfreeError(f"round trip failed at {a}")
    for d in enumerate_downsets(irr):
        if to_downset(from_downset(d)) != d:
            raise PointfreeError(f"round trip failed at downset {set(d)}")
    return irr, to_downset, from_downset


def prime_filters(l):
    """All prime filters: upward closed, 1 ∈ F, meet closed, 0 ∉ F, join-prime.

    A prime filter of a finite lattice is the upset of its least element,
    which is join-prime; in a distributive lattice the join-prime elements
    are exactly the join-irreducible ones.
    """
    return sorted((frozenset(b for b in l.elements if l.le(j, b))
                   for j in join_irreducibles(l).elements), key=sort_key)


def ideal_completion(l, cap=None):
    """Lattice of all ideals of l, plus the principal-ideal isomorphism."""
    cap = cap if cap is not None else DEFAULT.poset_cap
    if len(l.elements) > cap:
        raise CapExceeded("lattice", len(l.elements), cap)
    ideals = []
    for d in enumerate_downsets(l.as_poset()):
        if l.bottom not in d:
            continue
        if all(l.join(a, b) in d for a in d for b in d):
            ideals.append(d)
    ideals = sorted(ideals, key=sort_key)
    leq = [(a, b) for a in ideals for b in ideals if a <= b]
    comp = DistLattice(ideals, leq, check_distributive=False)

    def principal(a):
        return frozenset(b for b in l.elements if l.le(b, a))

    image = {principal(a) for a in l.elements}
    if image != set(ideals):
        raise PointfreeError("principal-ideal map is not onto the ideal lattice")
    return comp, principal


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


def parse_poset_text(text):
    """A Poset from the line format, with the reflexive transitive closure
    of the listed pairs."""
    try:
        return Poset.from_relation(*read_poset_text(text))
    except PointfreeError as exc:
        raise ParseError(str(exc))


def parse_lattice_text(text, check_distributive=True):
    """A DistLattice from the poset text format; meets and joins are computed
    from the order and must exist uniquely."""
    p = parse_poset_text(text)
    return DistLattice(p.elements, p.leq,
                       check_distributive=check_distributive)


def is_directed(l, s):
    """Inhabited and every pair in s has an upper bound in s."""
    s = list(s)
    if not s:
        return False
    for a in s:
        for b in s:
            if not any(l.le(a, c) and l.le(b, c) for c in s):
                return False
    return True
