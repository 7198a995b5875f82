"""Finite frames: enumeration of presented frames, points, congruences as
subsets of the join-irreducibles (open/closed sublocales, quotients),
coproducts (tensor products) and the Hausdorff and compactness checks."""

from dataclasses import dataclass
from itertools import product

from .config import DEFAULT
from .errors import PointfreeError
from .order import (DistLattice, Poset, canon, count_downsets,
                    enumerate_downsets, prime_filters, sort_key)
from .presentations import (  # PresentedFrame is importable from here too
    PresentedFrame, check_generator_cap, presented_frame)


class FiniteFrame(DistLattice):
    """A finite distributive lattice viewed as a frame (all joins exist)."""


def frame_from_order(elements, le):
    """The frame of the elements, in sort_key order, under lattice order le."""
    elems = sorted(elements, key=sort_key)
    leq = [(a, b) for a in elems for b in elems if le(a, b)]
    return FiniteFrame(elems, leq)


def enumerate_frame(p, limits=DEFAULT):
    """The finite frame of all C-ideals of a presentation.

    Returns (frame, gen_map): the elements are frozensets of formal meets
    under inclusion, and gen_map sends each generator to its element.
    """
    pf = presented_frame(p, limits)
    masks, _ = pf.elements(limits)
    elem_of = {u: pf.members(u) for u in masks}
    frame = frame_from_order(elem_of.values(), frozenset.issubset)
    gen_map = {g: elem_of[pf.holds[pf.bit[g]]] for g in pf.generators}
    return frame, gen_map


# --- points ------------------------------------------------------------------

def points(f):
    """All completely prime filters, each returned as a frozenset of elements.

    In a finite frame these are the prime filters ↑j of the
    join-irreducible elements j (see order.prime_filters).
    """
    return prime_filters(f)


# --- congruences -------------------------------------------------------------

@dataclass(frozen=True)
class Congruence:
    """θ_S for a set S ⊆ J of join-irreducibles: u θ_S v ⇔ ↓u ∩ S = ↓v ∩ S,
    whose sublocale is D(S).  S ↦ θ_S is an isomorphism from 2^J onto the
    Boolean algebra of congruences of a finite frame (Grätzer, *Lattice
    Theory: Foundation*; Picado & Pultr, *Frames and Locales*), so S is the
    whole congruence: intersection is S₁ ∪ S₂ and join is S₁ ∩ S₂."""

    frame: FiniteFrame
    kept: frozenset  # S ⊆ J

    def __post_init__(self):
        if not self.kept <= self.frame.lower_covers.keys():
            raise PointfreeError("kept elements must be join-irreducible")

    def trace(self, u):
        """↓u ∩ S, which names u's class."""
        return self.kept & self.frame.j_below[u]

    @property
    def classes(self):
        """Sorted by size, then by element positions (sort_key order)."""
        elems, buckets = self.frame.elements, {}
        for i, u in enumerate(elems):
            buckets.setdefault(self.trace(u), []).append(i)
        return tuple(frozenset(elems[i] for i in c) for c in
                     sorted(buckets.values(), key=lambda c: (len(c), c)))

    def largest(self, u):
        """Largest element of u's class: ⋁ of the j with ↓j ∩ S ⊆ ↓u ∩ S."""
        t = self.trace(u)
        return self.frame.join_all(j for j in self.frame.lower_covers
                                   if self.trace(j) <= t)

    def is_identity(self):
        return self.kept == self.frame.lower_covers.keys()

    def is_all_pairs(self):
        return not self.kept


def congruence_generate(f, pairs):
    """Least congruence with u θ v for each pair: S = {j : j ≤ u ⇔ j ≤ v},
    J minus the symmetric difference of J ∩ ↓u and J ∩ ↓v for every pair."""
    return Congruence(f, frozenset(f.lower_covers).difference(
        *(f.j_below[u] ^ f.j_below[v] for u, v in pairs)))


def open_congruence(f, a):
    """Kernel of u ↦ u ∧ a (the open sublocale at a): S = J ∩ ↓a."""
    return Congruence(f, f.j_below[a])


def closed_congruence(f, a):
    """Kernel of u ↦ u ∨ a (the closed sublocale at a): S = J minus ↓a."""
    return Congruence(f, frozenset(f.lower_covers) - f.j_below[a])


def congruence_intersection(c1, c2):
    if c1.frame is not c2.frame:
        raise PointfreeError("congruences live on different frames")
    return Congruence(c1.frame, c1.kept | c2.kept)


def congruence_join(c1, c2):
    if c1.frame is not c2.frame:
        raise PointfreeError("congruences live on different frames")
    return Congruence(c1.frame, c1.kept & c2.kept)


def is_complementary(c1, c2):
    return (congruence_intersection(c1, c2).is_identity()
            and congruence_join(c1, c2).is_all_pairs())


def quotient(f, c):
    """Quotient frame on the largest class representatives, plus the hom.
    They are a nucleus's fixed points, ordered as in f."""
    rep_of = {u: c.largest(u) for u in f.elements}
    q = frame_from_order(set(rep_of.values()), f.le)
    return q, FrameHom(f, q, rep_of)


@dataclass(frozen=True)
class FrameHom:
    """A function between finite frames preserving top, meets and all joins:
    h(⊤) = ⊤, h(⊥) = ⊥, h(u) = ⋁ h(J ∩ ↓u) and h(j ∧ k) = h(j) ∧ h(k) on J,
    as each j is join-prime and the target distributive."""

    source: FiniteFrame
    target: FiniteFrame
    mapping: dict

    def __post_init__(self):
        h, f, t = self.mapping, self.source, self.target
        if set(h) != set(f.elements):
            raise PointfreeError("hom not defined on the whole source")
        if h[f.top] != t.top:
            raise PointfreeError("hom does not preserve top")
        if h[f.bottom] != t.bottom:
            raise PointfreeError("hom does not preserve bottom (empty join)")
        if any(h[u] != t.join_all(h[j] for j in js)
               for u, js in f.j_below.items()):
            raise PointfreeError("hom does not preserve binary joins")
        if any(h[f.meet(j, k)] != t.meet(h[j], h[k])
               for j in f.lower_covers for k in f.lower_covers):
            raise PointfreeError("hom does not preserve binary meets")


# --- coproducts / tensor ------------------------------------------------------

def carrier_cap(size, limits=DEFAULT):
    """Refuse a coproduct, or the closed-diagonal check, whose carrier f × g
    has `size` pairs, more than the coproduct cap."""
    limits.check("coproduct carrier", size, "coproduct_cap")


def coproduct(f, g, limits=DEFAULT):
    """Frame coproduct f ⊕ g ≅ D(J(f) × J(g)), the downsets of the product of
    the join-irreducible posets (finite frames are spatial; Johnstone,
    *Stone Spaces*).

    A downset D is stored as the suplattice-tensor element it stands for:
    the downset of f × g of the pairs (u, v) with J↓u × J↓v ⊆ D, which holds
    the ⊥ row and column, ordered by inclusion.  Returns (tensor, inj1,
    inj2, rect) with the two coproduct injections and the basic-rectangle
    map rect(u, v) = u ⊕ v.
    """
    carrier_cap(len(f.elements) * len(g.elements), limits)
    # J sorted by |J ∩ ↓j|: the pairs then run along a linear extension
    jf, jg = (sorted(h.lower_covers, key=lambda j: len(h.j_below[j]))
              for h in (f, g))
    pairs = list(product(jf, jg))
    leq = frozenset((a, b) for a in pairs for b in pairs
                    if f.le(a[0], b[0]) and g.le(a[1], b[1]))
    count = count_downsets([sum(1 << i for i, a in enumerate(pairs)
                                if a != b and (a, b) in leq) for b in pairs],
                           (1 << len(pairs)) - 1, {0: 1}, limits,
                           "coproduct_cap")
    limits.check("coproduct", count, "coproduct_cap")
    of_downset = {d: frozenset((u, v) for u in f.elements for v in g.elements
                               if d.issuperset(product(f.j_below[u],
                                                       g.j_below[v])))
                  for d in enumerate_downsets(Poset(canon(pairs), leq))}
    tensor = frame_from_order(of_downset.values(), frozenset.issubset)

    def rect(u, v):
        return of_downset[frozenset(product(f.j_below[u], g.j_below[v]))]

    inj1 = FrameHom(f, tensor, {u: rect(u, g.top) for u in f.elements})
    inj2 = FrameHom(g, tensor, {v: rect(f.top, v) for v in g.elements})
    return tensor, inj1, inj2, rect


# --- Hausdorff ----------------------------------------------------------------

def closed_diagonal(elements, join_primes, le, meet, bottom):
    """Whether the diagonal of f ⊕ f is closed, from the join-primes J of f.
    Returns (verdict, witness or None).

    A finite frame is the frame of opens of its T0 space of points J, which
    is Hausdorff (and equally has an open diagonal) exactly when it is
    discrete, that is when J is an antichain (Picado & Pultr, *Frames and
    Locales*).  The one candidate witness is δ_*(⊥), the largest element
    of f ⊕ f that the codiagonal sends to ⊥: the pairs (u, v) with
    u ∧ v = ⊥.  It is a subset of f × f, so the caller holds |f|² to the
    coproduct cap (carrier_cap) first.
    """
    if any(a != b and le(a, b) for a in join_primes for b in join_primes):
        return False, None
    return True, frozenset((u, v) for u in elements for v in elements
                           if meet(u, v) == bottom)


def is_hausdorff(f, limits=DEFAULT):
    """Closed diagonal: (verdict, witness or None), see closed_diagonal,
    once |f|² is within the coproduct cap."""
    carrier_cap(len(f.elements) ** 2, limits)
    return closed_diagonal(f.elements, f.lower_covers, f.le, f.meet,
                           f.bottom)


# --- positivity / compactness --------------------------------------------------

def is_compact_presentation(p, limits=DEFAULT):
    """Compactness certificate for a presentation: top is inaccessible by
    directed joins.  Its frame is finite, and a finite directed set holds
    an upper bound of all its members (taking bounds pairwise), which is
    its join; so a directed cover of top contains top.  Only generator_cap
    is checked; nothing is stabilized and no element is listed."""
    check_generator_cap(len(p.generators), limits)
    return {"certificate": "finite frame: every directed cover of top "
                           "contains top",
            "compact": True, "verified": True}
