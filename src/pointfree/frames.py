"""Finite frames: enumeration of presented frames, points, congruences,
open/closed sublocales, quotients, coproducts (tensor products) and the
Hausdorff / overtness / compactness checks."""

import functools
import random
from dataclasses import dataclass
from itertools import combinations, product

from .config import DEFAULT
from .errors import CapExceeded, NotACover, PointfreeError
from .order import (DistLattice, KFinSet, Poset, canon, enumerate_downsets,
                    is_directed, join_irreducibles, prime_filters, sort_key)
from .presentations import meet_key, set_bits, stabilize


class FiniteFrame(DistLattice):
    """A finite distributive lattice viewed as a frame (all joins exist)."""

    def check_frame_distributivity(self):
        """a ∧ ⋁B = ⋁(a ∧ B) for all B: in a finite lattice every join is a
        finite one, so this is binary distributivity."""
        return self.distributivity_witness() is None


def frame_from_order(elements, le, meet, join):
    elems = sorted(elements, key=sort_key)
    leq = [(a, b) for a in elems for b in elems if le(a, b)]
    return FiniteFrame(elems, leq, meet=meet, join=join,
                       check_distributive=False)


# --- the bitmask engine for presented frames ----------------------------------

class PresentedFrame:
    """The frame of C-ideals of a presentation, as masks of its HornClosure.

    Ordering masks by `key` is the sort_key order of the C-ideals they
    encode.  A finite frame is D(J), the downsets of its join-primes J
    (Birkhoff), and every C-ideal is a join of principal ones, so J lies
    among the principal C-ideals: points, elements and Hasse edges are all
    read off J without building the lattice or its tables.
    """

    def __init__(self, p, cap=None):
        self.presentation = p = stabilize(p, cap=cap)
        self.closure = h = p.closure
        self.bottom, self.top = h.bottom, h.top
        self.saturate, self.cideal = h.saturate, h.cideal
        self._joins = {}  # union of two C-ideals -> their join
        self._downsets = {0: 1}  # J-index mask s -> |D(s)|

    def join(self, a, b):
        u = a | b
        if u not in self._joins:
            self._joins[u] = self.saturate(u)
        return self._joins[u]

    @staticmethod
    def key(mask):
        return (mask.bit_count(), tuple(set_bits(mask)))

    @staticmethod
    def le(a, b):
        return a & ~b == 0

    @functools.cached_property
    def principals(self):
        """The principal C-ideal of each formal meet, in meet order."""
        return [self.saturate(d) for d in self.closure.down]

    def generator(self, g):
        """The principal C-ideal of one generator."""
        return self.principals[self.closure.index[frozenset([g])]]

    @functools.cached_property
    def join_primes(self):
        """J in key order: the principal C-ideals j whose principal
        C-ideals strictly below do not join up to j (a meet lies in j
        exactly when its principal C-ideal does)."""
        principal = self.principals
        primes = set()
        for j in set(principal):
            below = 0
            for i in set_bits(j):
                if principal[i] != j:
                    below |= principal[i]
            if self.saturate(below) != j:
                primes.add(j)
        return sorted(primes, key=self.key)

    @functools.cached_property
    def _below(self):
        """For each k, the J-indices of the join-primes strictly below J[k]."""
        js = self.join_primes
        return [sum(1 << i for i, a in enumerate(js) if a != b and a & ~b == 0)
                for b in js]

    def count_downsets(self, s=None):
        """|D(S)| for the join-primes S with J-indices in the mask s, by
        default all of J, whose downsets are the elements.  With k maximal
        in s (J is in key order), a downset of S omits k, or holds k and so
        all of S below k."""
        s = (1 << len(self.join_primes)) - 1 if s is None else s
        if s not in self._downsets:
            k = s.bit_length() - 1
            rest = s & ~(1 << k)
            self._downsets[s] = (self.count_downsets(rest) +
                                 self.count_downsets(rest & ~self._below[k]))
        return self._downsets[s]

    def elements(self):
        """All elements in key order, one join per downset D of J, and the
        Hasse edges ⋁D ⋖ ⋁(D ∪ {k}) for each k minimal in J minus D, sorted
        by the keys of their ends."""
        js, below = self.join_primes, self._below
        join_of = {0: self.bottom}
        edges = []
        stack = [0]
        while stack:
            d = stack.pop()
            e = join_of[d]
            for k, j in enumerate(js):
                if not d >> k & 1 and below[k] & ~d == 0:
                    d2 = d | 1 << k
                    if d2 not in join_of:
                        join_of[d2] = self.saturate(e | j)
                        stack.append(d2)
                    edges.append((e, join_of[d2]))
        keys = {e: self.key(e) for e in join_of.values()}
        edges.sort(key=lambda ab: (keys[ab[0]], keys[ab[1]]))
        return sorted(keys, key=keys.get), edges

    def points(self):
        """Each point as the sorted list of generators it makes true.

        The point of a join-prime j is its filter ↑j, and the points come
        in the sort_key order of those filters: by |↑j| = |D(J minus ↓j)|,
        then by j, the least member of its filter.  Each truth assignment
        is checked against every stabilized rule (it must be a frame hom
        to 2) before it is returned.
        """
        js, below, h = self.join_primes, self._below, self.closure
        everything = (1 << len(js)) - 1
        out = []
        for k in sorted(range(len(js)), key=lambda k: (
                self.count_downsets(everything & ~(below[k] | 1 << k)),
                self.key(js[k]))):
            true = {g for g in self.presentation.generators
                    if self.le(js[k], self.generator(g))}
            holds = sum(1 << i for i, m in enumerate(h.meets) if m <= true)
            if any(holds >> lhs & 1 and not holds & rhs
                   for lhs, rhs in zip(h.lhs, h.rhs)):
                raise PointfreeError("point violates a stabilized rule")
            out.append(sorted(true))
        return out


def enumerate_frame(p, cap=None):
    """The finite frame of all C-ideals of a presentation.

    Returns (frame, gen_map) where frame elements are frozensets of formal
    meets and gen_map sends each generator to its frame element.
    """
    pf = PresentedFrame(p, cap=cap)
    masks, _ = pf.elements()
    elems = [pf.cideal(m) for m in masks]
    mask_of = dict(zip(elems, masks))
    elem_of = dict(zip(masks, elems))
    frame = frame_from_order(
        elems, lambda a, b: pf.le(mask_of[a], mask_of[b]),
        lambda a, b: elem_of[mask_of[a] & mask_of[b]],
        lambda a, b: elem_of[pf.join(mask_of[a], mask_of[b])])
    gen_map = {g: elem_of[pf.generator(g)] for g in pf.presentation.generators}
    return frame, gen_map


def frame_to_json_dict(frame, points_list=None):
    def meets_list(e):
        return [sorted(m) for m in sorted(e, key=meet_key)]

    elems = [meets_list(e) for e in frame.elements]
    leq_pairs = [[elems[frame._index[a]], elems[frame._index[b]]]
                 for (a, b) in sorted(frame._leq, key=sort_key)]
    out = {"elements": elems, "leq_pairs": leq_pairs}
    if points_list is not None:
        out["points"] = [[meets_list(e) for e in sorted(pt, key=sort_key)]
                         for pt in points_list]
    return out


# --- points ------------------------------------------------------------------

def points(f):
    """All completely prime filters, each returned as a frozenset of elements.

    In a finite frame these are the prime filters ↑j of the
    join-irreducible elements j (see order.prime_filters).
    """
    return prime_filters(f)


def point_hom(f, filt, two):
    """The frame hom to the two-element frame induced by a point."""
    return FrameHom(f, two, {u: (two.top if u in filt else two.bottom)
                             for u in f.elements})


def two_element_frame():
    return frame_from_order(["0", "1"],
                            lambda a, b: a == b or (a, b) == ("0", "1"),
                            lambda a, b: "0" if "0" in (a, b) else "1",
                            lambda a, b: "1" if "1" in (a, b) else "0")


# --- congruences -------------------------------------------------------------

@dataclass(frozen=True)
class Congruence:
    frame: FiniteFrame
    classes: tuple  # sorted tuple of frozensets partitioning the elements

    def __post_init__(self):
        seen = set()
        for cls in self.classes:
            seen |= cls
        if seen != set(self.frame.elements):
            raise PointfreeError("classes do not partition the frame")

    @classmethod
    def from_partition(cls, frame, classes):
        return cls(frame, tuple(sorted((frozenset(c) for c in classes),
                                       key=sort_key)))

    @classmethod
    def from_map(cls, frame, fn):
        buckets = {}
        for u in frame.elements:
            buckets.setdefault(fn(u), set()).add(u)
        return cls.from_partition(frame, buckets.values())

    def class_of(self, u):
        for c in self.classes:
            if u in c:
                return c
        raise PointfreeError(f"unknown element {u!r}")

    def related(self, u, v):
        return v in self.class_of(u)

    def largest(self, u):
        """Largest element of u's class (exists for frame congruences)."""
        c = self.class_of(u)
        top = self.frame.join_all(sorted(c, key=sort_key))
        if top not in c:
            raise PointfreeError("class has no largest element")
        return top

    def is_identity(self):
        return all(len(c) == 1 for c in self.classes)

    def is_all_pairs(self):
        return len(self.classes) == 1

    def witness_pairs(self):
        """Enough related pairs to regenerate the congruence."""
        pairs = []
        for c in self.classes:
            members = sorted(c, key=sort_key)
            pairs.extend(zip(members, members[1:]))
        return pairs


def identity_congruence(f):
    return Congruence.from_partition(f, [{u} for u in f.elements])


def all_pairs_congruence(f):
    return Congruence.from_partition(f, [set(f.elements)])


def congruence_generate(f, pairs):
    """Least congruence containing the pairs: equivalence closure that is
    also closed under meeting and joining both sides with any element."""
    parent = {u: u for u in f.elements}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    work = list(pairs)
    while work:
        u, v = work.pop()
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        if sort_key(rv) < sort_key(ru):
            ru, rv = rv, ru
        parent[rv] = ru
        for w in f.elements:
            work.append((f.meet(u, w), f.meet(v, w)))
            work.append((f.join(u, w), f.join(v, w)))
    buckets = {}
    for u in f.elements:
        buckets.setdefault(find(u), set()).add(u)
    return Congruence.from_partition(f, buckets.values())


def open_congruence(f, a):
    """Kernel of u ↦ u ∧ a (the open sublocale at a)."""
    return Congruence.from_map(f, lambda u: f.meet(u, a))


def closed_congruence(f, a):
    """Kernel of u ↦ u ∨ a (the closed sublocale at a)."""
    return Congruence.from_map(f, lambda u: f.join(u, a))


def congruence_intersection(c1, c2):
    if c1.frame is not c2.frame:
        raise PointfreeError("congruences live on different frames")
    f = c1.frame
    return Congruence.from_map(
        f, lambda u: (frozenset(c1.class_of(u)), frozenset(c2.class_of(u))))


def congruence_join(c1, c2):
    if c1.frame is not c2.frame:
        raise PointfreeError("congruences live on different frames")
    return congruence_generate(c1.frame,
                               c1.witness_pairs() + c2.witness_pairs())


def is_complementary(c1, c2):
    return (congruence_intersection(c1, c2).is_identity()
            and congruence_join(c1, c2).is_all_pairs())


def quotient(f, c):
    """Quotient frame on the largest class representatives, plus the hom."""
    reps = sorted({c.largest(u) for u in f.elements}, key=sort_key)
    rep_of = {u: c.largest(u) for u in f.elements}

    def le(a, b):
        return rep_of[f.join(a, b)] == b

    q = frame_from_order(reps, le,
                         lambda a, b: rep_of[f.meet(a, b)],
                         lambda a, b: rep_of[f.join(a, b)])
    hom = FrameHom(f, q, rep_of)
    return q, hom


@dataclass(frozen=True)
class FrameHom:
    """A function between finite frames preserving top, meets and all joins."""

    source: FiniteFrame
    target: FiniteFrame
    mapping: dict

    def __post_init__(self):
        h = self.mapping
        if set(h) != set(self.source.elements):
            raise PointfreeError("hom not defined on the whole source")
        if h[self.source.top] != self.target.top:
            raise PointfreeError("hom does not preserve top")
        if h[self.source.bottom] != self.target.bottom:
            raise PointfreeError("hom does not preserve bottom (empty join)")
        for a in self.source.elements:
            for b in self.source.elements:
                if h[self.source.meet(a, b)] != self.target.meet(h[a], h[b]):
                    raise PointfreeError("hom does not preserve binary meets")
                if h[self.source.join(a, b)] != self.target.join(h[a], h[b]):
                    raise PointfreeError("hom does not preserve binary joins")

    def __call__(self, u):
        return self.mapping[u]

    def __hash__(self):
        return hash((id(self.source), id(self.target),
                     tuple(sorted(self.mapping.items(),
                                  key=lambda kv: sort_key(kv[0])))))

    def right_adjoint(self, b):
        return self.source.join_all(a for a in self.source.elements
                                    if self.target.le(self(a), b))

    def left_adjoint(self, b):
        """Left adjoint value at b, or raises if the adjoint does not exist."""
        cands = [a for a in self.source.elements if self.target.le(b, self(a))]
        val = self.source.meet_all(cands)
        if not self.target.le(b, self(val)):
            raise PointfreeError("hom has no left adjoint "
                                 "(fails to preserve all meets)")
        return val


def identity_hom(f):
    return FrameHom(f, f, {u: u for u in f.elements})


def image_congruence(h, c):
    """Congruence on h's source from one on h's target (sublocale image
    direction: h plays f*, so the image of a sublocale travels this way)."""
    if c.frame is not h.target:
        raise PointfreeError("congruence must live on the hom's target")
    return Congruence.from_map(h.source, lambda u: frozenset(c.class_of(h(u))))


def preimage_congruence(h, c):
    """Congruence on h's target generated by the image of one on h's source."""
    if c.frame is not h.source:
        raise PointfreeError("congruence must live on the hom's source")
    pairs = [(h(u), h(v)) for (u, v) in c.witness_pairs()]
    return congruence_generate(h.target, pairs)


# --- coproducts / tensor ------------------------------------------------------

def coproduct(f, g, cap=None):
    """Frame coproduct f ⊕ g ≅ D(J(f) × J(g)), the downsets of the product of
    the join-irreducible posets (finite frames are spatial; Johnstone,
    *Stone Spaces*).

    A downset D is stored as the suplattice-tensor element it stands for:
    the downset of f × g of the pairs (u, v) with J↓u × J↓v ⊆ D, which holds
    the ⊥ row and column.  Meets are intersections and joins the union of
    the J-parts.  Returns (tensor, inj1, inj2, rect) with the two coproduct
    injections and the basic-rectangle map rect(u, v) = u ⊕ v.
    """
    cap = cap if cap is not None else DEFAULT.coproduct_cap
    if len(f.elements) * len(g.elements) > cap:
        raise CapExceeded("coproduct carrier",
                          len(f.elements) * len(g.elements), cap)
    jf, jg = join_irreducibles(f), join_irreducibles(g)
    below_f = {u: [j for j in jf.elements if f.le(j, u)] for u in f.elements}
    below_g = {v: [k for k in jg.elements if g.le(k, v)] for v in g.elements}
    pairs = list(product(jf.elements, jg.elements))
    jj = Poset(canon(pairs), frozenset(
        (a, b) for a in pairs for b in pairs
        if jf.le(a[0], b[0]) and jg.le(a[1], b[1])))
    of_downset = {d: frozenset((u, v) for u in f.elements for v in g.elements
                               if d.issuperset(product(below_f[u], below_g[v])))
                  for d in enumerate_downsets(jj)}
    jpairs = frozenset(pairs)
    tensor = frame_from_order(of_downset.values(), lambda a, b: a <= b,
                              lambda a, b: a & b,
                              lambda a, b: of_downset[(a | b) & jpairs])

    def rect(u, v):
        return of_downset[frozenset(product(below_f[u], below_g[v]))]

    inj1 = FrameHom(f, tensor, {u: rect(u, g.top) for u in f.elements})
    inj2 = FrameHom(g, tensor, {v: rect(f.top, v) for v in g.elements})
    return tensor, inj1, inj2, rect


# --- Hausdorff ----------------------------------------------------------------

def diagonal_hom(f, cap=None):
    """The codiagonal u ⊕ v ↦ u ∧ v from f ⊕ f to f."""
    tensor, inj1, inj2, rect = coproduct(f, f, cap=cap)
    mapping = {d: f.join_all(f.meet(u, v) for (u, v) in sorted(d, key=sort_key))
               for d in tensor.elements}
    return tensor, FrameHom(tensor, f, mapping)


def diagonal_cap(size, cap):
    """Refuse the closed-diagonal check on a frame of `size` elements when
    the carrier f × f of its witness exceeds the coproduct cap."""
    if size ** 2 > cap:
        raise CapExceeded("coproduct carrier", size ** 2, cap)


def closed_diagonal(elements, join_primes, le, meet, bottom, cap=None):
    """Whether the diagonal of f ⊕ f is closed, from the join-primes J of f.
    Returns (verdict, witness or None).

    A finite frame is the frame of opens of its T0 space of points J, which
    is Hausdorff (and equally has an open diagonal) exactly when it is
    discrete, that is when J is an antichain (Picado & Pultr, *Frames and
    Locales*).  The one candidate witness is δ_*(⊥), the largest element
    of f ⊕ f that the codiagonal sends to ⊥: the pairs (u, v) with
    u ∧ v = ⊥.  It is a subset of f × f, so |f|² is held to the coproduct
    cap (diagonal_cap).
    """
    diagonal_cap(len(elements),
                 cap if cap is not None else DEFAULT.coproduct_cap)
    if any(a != b and le(a, b) for a in join_primes for b in join_primes):
        return False, None
    return True, frozenset((u, v) for u in elements for v in elements
                           if meet(u, v) == bottom)


def is_hausdorff(f, cap=None):
    """Closed diagonal: (verdict, witness or None), see closed_diagonal."""
    return closed_diagonal(f.elements, join_irreducibles(f).elements, f.le,
                           f.meet, f.bottom, cap=cap)


def has_open_diagonal(f, cap=None):
    """A finite frame has an open diagonal exactly when it is Hausdorff."""
    return is_hausdorff(f, cap=cap)[0]


# --- positivity / compactness --------------------------------------------------

def is_positive(f, u):
    """u is positive when every cover of it is inhabited.  Only the empty
    cover can fail, and it covers exactly ⊥, so this is u ≠ ⊥."""
    if u not in f._index:
        raise PointfreeError(f"unknown element {u!r}")
    return u != f.bottom


def positivity_base(f):
    """All positive elements.  Every element is the join of those below it:
    itself if it is not ⊥, and the empty join if it is."""
    return [u for u in f.elements if is_positive(f, u)]


def finite_subcover(f, s):
    """Minimal-cardinality subcover of a cover of top: the first subset,
    by size, that covers top; s itself does, so the search stops by |s|."""
    s = sorted(set(s), key=sort_key)
    if f.join_all(s) != f.top:
        raise NotACover("subset does not cover top")
    return next(KFinSet(combo) for k in range(len(s) + 1)
                for combo in combinations(s, k) if f.join_all(combo) == f.top)


EXHAUSTIVE_COVER_SCAN = 12  # frames up to this size scan every subset
COVER_SAMPLES = 200         # seeded join-closed covers for larger frames


def is_compact_presentation(p, cap=None):
    """Compactness certificate for a (finitary) presentation.

    Every cover rule here has a finite right side, which is the hypothesis
    guaranteeing compactness; the certificate records that.  A verification
    pass additionally checks directed-cover inaccessibility of top on the
    enumerated frame: exhaustively over all subsets for frames of at most
    EXHAUSTIVE_COVER_SCAN elements, and on COVER_SAMPLES deterministic
    pseudo-random join-closed covers otherwise.
    """
    report = {"compact": True, "certificate": "all covers finitary"}
    frame = PresentedFrame(p, cap=cap)
    elems, _ = frame.elements()

    def join_all(s):
        return functools.reduce(frame.join, s, frame.bottom)

    if len(elems) <= EXHAUSTIVE_COVER_SCAN:
        report["verification"] = "exhaustive"
        covers = (s for n in range(1, len(elems) + 1)
                  for s in combinations(elems, n) if is_directed(frame, s))
    else:
        report["verification"] = "sampled"
        rng = random.Random(0)
        covers = (_directify({e for e in elems if rng.random() < 0.5},
                             frame.join)
                  or {frame.bottom} for _ in range(COVER_SAMPLES))
    report["verified"] = report["compact"] = not any(
        join_all(s) == frame.top and frame.top not in s for s in covers)
    return report


def _directify(s, join):
    """Close a subset under binary joins (yielding a directed set with the
    same join) without changing whether it covers top.  Grown one member
    at a time: the joins with a new member x are x joined with the
    closure so far, and a member already in the closure adds nothing."""
    out = set()
    for x in s:
        if x not in out:
            out |= {join(c, x) for c in out}
            out.add(x)
    return out


# --- open / closed maps --------------------------------------------------------

def check_open_map(h):
    """Frobenius check for the left adjoint: h_!(h(b) ∧ a) = b ∧ h_!(a)."""
    return _frobenius(h, h.left_adjoint, h.target.meet, h.source.meet)


def check_closed_map(h):
    """Frobenius check for the right adjoint: h_*(h(b) ∨ a) = b ∨ h_*(a)."""
    return _frobenius(h, h.right_adjoint, h.target.join, h.source.join)


def _frobenius(h, adjoint, op_target, op_source):
    adj = {a: adjoint(a) for a in h.target.elements}
    return all(adj[op_target(h(b), a)] == op_source(b, adj[a])
               for a in h.target.elements for b in h.source.elements)
