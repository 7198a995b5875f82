"""The frame algorithms that theorems replaced, kept as independent
oracles for them.

- For the cover masks of a presentation (`presentations.stabilize` and
  `presentation_text`): meet-stabilization on frozensets of generator
  names, and the printer that sorts the covers by `meet_key`.  The
  oracles below stabilize with the former, not with the masks.
- For the join-primes J of the bitmask engine, which come from a search
  for models (`presentations.find_models`): the scan of all 2^g principal
  C-ideals of the stabilized presentation for those that the principals
  strictly below do not join up to, with the points read off it.
- For the positivity certificate on the covers as given
  (`presentations.check_positivity_certificate`): the same conditions on
  the meet-stabilized covers.
- For the model-set C-ideals (`presentations.saturate`, joins, bottom,
  top, order and the positivity certificate): the
  Horn closure of the stabilized presentation (`HornClosure`), which
  `presentations` used before it read C-ideals off the models, and below
  it the fixpoint that down-closes the seed and rescans every stabilized
  rule until nothing changes, on frozensets of formal meets.
- For the bitmask engine: pairwise join closure of the principal
  C-ideals, the literal join-irreducible-and-prime points scan with its
  filter checks, and the Hasse edge scan below.  They run on the
  frozenset C-ideals of the fixpoint above, not on bitmasks.
- For the congruences as subsets S of J (`frames.Congruence`): the
  partition of all elements into classes, checked to cover the frame;
  generation by union-find closed under meeting and joining both sides
  with every element; open and closed congruences, intersection and
  quotient as kernels of maps; join by generation.
  None of it reads the frame's join-irreducibles.
- For the join-prime coproduct and Hausdorff check: the suplattice-tensor
  fixpoint with pairwise join closure, and the search of f ⊕ f for a
  closed (open) diagonal witness by comparing the partition congruences
  above.
- The literal subset scans behind positivity (u ≠ ⊥) and the frame law
  (binary distributivity).
- For compactness, which holds because a finite directed set holds its
  own join: the directed-cover scan for top.
- For the order of elements (`PresentedFrame.key`, an integer key on
  C-ideal masks in key layout): the string key on masks in subset order
  that the engine read before.
- For the meet and join tables that `DistLattice` reads off the down-set
  and up-set masks of its order: the scan of the common lower (upper)
  bounds for one above (below) all the others, O(n) order lookups per
  candidate.
- For the down-set masks that `Poset` and `DistLattice` keep of their
  order: the poset checks as scans of the pair set, the O(n³) scan for
  covering pairs, and J with j⁻ = ⋁{x < j} joined up through the tables.
- For the join-prime certificate of distributivity, Birkhoff's theorem and
  the homomorphism check on J (`DistLattice.distributivity_witness`,
  `order.birkhoff_iso`, `frames.FrameHom`): the triple scan of the
  distributive law, both Birkhoff round trips, and the check of meets and
  joins on all n² pairs.
"""

import functools
import random
from dataclasses import dataclass
from itertools import combinations

from pointfree.config import DEFAULT
from pointfree.errors import CapExceeded, ParseError, PointfreeError
from pointfree.frames import FiniteFrame, FrameHom, frame_from_order
from pointfree.order import enumerate_downsets, sort_key
from pointfree.presentations import (FramePresentation, find_models,
                                     meet_str, set_bits)


# --- covers as name sets ---------------------------------------------------------

def meet_key(m):
    """The meet_key order of formal meets: by size, then sorted names."""
    return (len(m), tuple(sorted(m)))


def cideal_key(members):
    return (len(members), tuple(sorted(map(meet_key, members))))


def subset_mask(generators, meets):
    """Distinct formal meets as a mask in subset order, the meet of
    generator set s at bit s, bit i of s standing for generators[i]."""
    bit = {g: 1 << i for i, g in enumerate(generators)}
    return sum(1 << sum(map(bit.get, m)) for m in meets)


_SWAP = str.maketrans("01", "10")


def element_key(mask):
    """The order of elements by their C-ideal masks in subset order: by
    size, then the mask holding the lowest bit where two differ first
    (their bit strings read from the lowest bit, 0 and 1 swapped; of one
    size, neither is a prefix of the other)."""
    return mask.bit_count(), bin(mask)[:1:-1].translate(_SWAP)


def stabilize(p):
    """Meet both sides of every cover with every formal meet, on the
    covers as name sets."""
    rules = set(p.covers)
    for u in p.all_meets():
        for lhs, rhs in p.covers:
            rules.add((u | lhs, frozenset(u | t for t in rhs)))
    return FramePresentation.make(p.generators, rules)


def presentation_text(p):
    """The line format, sorted on the covers as name sets; no `gen` line
    without generators."""
    lines = ["gen " + " ".join(p.generators)] if p.generators else []
    for lhs, rhs in sorted(p.covers, key=lambda c: (meet_key(c[0]),
                                                    cideal_key(c[1]))):
        rhs_s = "bot" if not rhs else " | ".join(
            meet_str(t) for t in sorted(rhs, key=meet_key))
        lines.append(f"rel {meet_str(lhs)} <= {rhs_s}")
    return "\n".join(lines) + "\n"


def closure(p):
    """The HornClosure of a stabilized presentation.  The covers are
    stabilized when meeting both sides of each with any one generator
    gives a cover: every formal meet is a meet of generators."""
    if any((lhs | {g}, frozenset(t | {g} for t in rhs)) not in p.covers
           for lhs, rhs in p.covers for g in p.generators):
        raise ParseError("presentation must be stabilized before saturation")
    return HornClosure(p)


class HornClosure:
    """The C-ideal closure of a stabilized presentation, on bitmasks: bit i
    stands for the i-th formal meet in meet_key order.  A C-ideal is a
    downset closed under the Horn clauses "all of rhs inside => lhs inside"
    of the rules, so the least one above a downset is found by counter-based
    forward chaining (Dowling & Gallier, 1984), linear in the rules."""

    def __init__(self, p):
        self.meets = p.all_meets()
        self.index = index = {m: i for i, m in enumerate(self.meets)}
        holding = {g: sum(1 << i for i, m in enumerate(self.meets) if g in m)
                   for g in p.generators}
        # down[i]: the formal meets below meet i, which are its supersets
        self.down = down = [functools.reduce(int.__and__, map(holding.get, m),
                                             (1 << len(self.meets)) - 1)
                            for m in self.meets]
        # lhs[r], rhs[r]: the left meet and the right-side mask of rule r
        self.lhs, self.rhs, counts = [], [], []
        # occurs[i]: the rules with meet i on the right
        self._occurs = [[] for _ in self.meets]
        start = 0
        for r, (lhs, rhs) in enumerate(p.covers):
            right = 0
            for t in rhs:
                right |= 1 << index[t]
                self._occurs[index[t]].append(r)
            self.lhs.append(index[lhs])
            self.rhs.append(right)
            counts.append(len(rhs))
            if not rhs:
                start |= down[index[lhs]]
        # counts[r]: right-side meets of rule r still outside the bottom
        self.bottom = self._close(start, start, counts)
        self._counts = counts
        self.top = down[0]  # every formal meet lies below the top meet

    def _close(self, members, new, counts):
        """Each meet entering the ideal counts down the rules that have it
        on the right, and a rule reaching zero adds its left side and all
        below."""
        occurs, lhs, down = self._occurs, self.lhs, self.down
        while new:
            low = new & -new
            new ^= low
            for r in occurs[low.bit_length() - 1]:
                counts[r] -= 1
                if not counts[r]:
                    add = down[lhs[r]] & ~members
                    members |= add
                    new |= add
        return members

    def saturate(self, mask):
        """Least C-ideal containing a downward closed mask."""
        new = mask & ~self.bottom
        return self._close(self.bottom | new, new, self._counts[:])

    def mask(self, meets):
        """The downward closed mask of some formal meets."""
        out = 0
        for m in meets:
            if m not in self.index:
                raise ParseError(f"unknown formal meet {meet_str(m)!r}")
            out |= self.down[self.index[m]]
        return out

    def cideal(self, mask):
        """The formal meets of a mask, as a frozenset."""
        return frozenset(self.meets[i] for i in set_bits(mask))


def check_positivity_certificate(p, positives):
    """The positivity certificate on the Horn closure: (i) and (ii) as in
    `presentations`, and (iii) every formal meet outside the candidates
    has its whole down-set in bottom."""
    h = closure(p)
    positives = {frozenset(m) for m in positives}
    if any(m - {g} not in positives for m in positives for g in m):
        return False
    if any(lhs in positives and not rhs & positives for lhs, rhs in p.covers):
        return False
    return all(not h.down[i] & ~h.bottom
               for m, i in h.index.items() if m not in positives)


def certificate_failure(p, positives):
    """The first condition of the positivity certificate that the
    candidates fail, "i", "ii" or "iii", or None when they pass, checked
    as `presentations` did before it read the covers as given: stabilize,
    then (ii) on every stabilized cover (a positive left side has a
    positive right member) and (iii) on the models of find_models."""
    p = stabilize(p)
    positives = {frozenset(m) for m in positives}
    if any(m - {g} not in positives for m in positives for g in m):
        return "i"
    if any(lhs in positives and not rhs & positives for lhs, rhs in p.covers):
        return "ii"
    gens = sorted(p.generators)
    if any(frozenset(gens[i] for i in set_bits(q)) not in positives
           for q in find_models(p)):
        return "iii"
    return None


def principal_scan(p):
    """(J, points, nontrivial) of a presentation from its principal
    C-ideals: J in key order, the point of each j in that order as its
    sorted true generators, and whether bottom ≠ top.

    Every C-ideal is a join of principal ones, so J lies among them: a
    principal j is join-prime when the principals strictly below it do not
    join up to j.  The point of j makes g true when j lies below the
    principal C-ideal of g, and is checked against every stabilized rule.
    """
    p = stabilize(p)
    h = closure(p)
    principal = [h.saturate(d) for d in h.down]
    primes = set()
    for j in set(principal):
        below = 0
        for i in set_bits(j):
            if principal[i] != j:
                below |= principal[i]
        if h.saturate(below) != j:
            primes.add(j)
    js = sorted(primes, key=lambda mask: (mask.bit_count(),
                                          tuple(set_bits(mask))))
    pts = []
    for j in js:
        true = {g for g in p.generators
                if j & ~principal[h.index[frozenset([g])]] == 0}
        holds = sum(1 << i for i, m in enumerate(h.meets) if m <= true)
        if any(holds >> lhs & 1 and not holds & rhs
               for lhs, rhs in zip(h.lhs, h.rhs)):
            raise PointfreeError("point violates a stabilized rule")
        pts.append(sorted(true))
    return js, pts, h.bottom != h.top


def down_close(p, meets):
    """All formal meets below some of the given ones: their supersets."""
    gens = p.generators
    out = set()
    frontier = list(meets)
    while frontier:
        m = frontier.pop()
        if m in out:
            continue
        out.add(m)
        for g in gens:
            if g not in m:
                frontier.append(m | {g})
    return out


def saturate(p, seed):
    """Least C-ideal containing the given formal meets, as a frozenset:
    down-close, then add the down-closed left side of every rule whose
    right side lies inside, until no rule adds anything."""
    members = down_close(p, seed)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in p.covers:
            if lhs not in members and rhs <= members:
                members |= down_close(p, [lhs])
                changed = True
    return frozenset(members)


def enumerate_frame(p):
    """Every C-ideal is a join of principal ones: close the bottom and the
    principal C-ideals under binary joins, O(n²) saturations."""
    p = stabilize(p)
    joins = {}

    def join(a, b):
        u = a | b
        if u in elems:
            return u
        if u not in joins:
            joins[u] = saturate(p, u)
        return joins[u]

    elems = {saturate(p, [])} | {saturate(p, [m]) for m in p.all_meets()}
    frontier = list(elems)
    while frontier:
        new = {join(a, b) for a in frontier for b in elems} - elems
        elems |= new
        frontier = list(new)
    return frame_from_order(elems, lambda a, b: a <= b)


def hasse_edges(f):
    return hasse_scan(f.elements, f.le)


def points(f):
    """Upsets of the join-irreducible elements that are also join-prime,
    each re-checked as a filter: O(n³)."""
    pts = []
    for j in f.elements:
        if j == f.bottom:
            continue
        strictly_below = [x for x in f.elements if f.le(x, j) and x != j]
        if f.join_all(strictly_below) == j:
            continue
        if any(f.le(j, f.join(a, b)) and not f.le(j, a) and not f.le(j, b)
               for a in f.elements for b in f.elements):
            continue
        pts.append(frozenset(x for x in f.elements if f.le(j, x)))
    for filt in pts:
        _check_point(f, filt)
    return sorted(pts, key=sort_key)


def _check_point(f, filt):
    if f.top not in filt or f.bottom in filt:
        raise PointfreeError("point fails top/bottom conditions")
    for a in filt:
        for b in f.elements:
            if f.le(a, b) and b not in filt:
                raise PointfreeError("point not upward closed")
        for b in filt:
            if f.meet(a, b) not in filt:
                raise PointfreeError("point not meet closed")


# --- congruences as partitions ----------------------------------------------------

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
    """Kernel of u ↦ u ∧ a."""
    return Congruence.from_map(f, lambda u: f.meet(u, a))


def closed_congruence(f, a):
    """Kernel of u ↦ u ∨ a."""
    return Congruence.from_map(f, lambda u: f.join(u, a))


def congruence_intersection(c1, c2):
    return Congruence.from_map(
        c1.frame, lambda u: (c1.class_of(u), c2.class_of(u)))


def congruence_join(c1, c2):
    return congruence_generate(c1.frame,
                               c1.witness_pairs() + c2.witness_pairs())


def is_complementary(c1, c2):
    return (congruence_intersection(c1, c2).is_identity()
            and congruence_join(c1, c2).is_all_pairs())


def quotient(f, c):
    """Quotient frame on the largest class representatives, plus the hom."""
    rep_of = {u: c.largest(u) for u in f.elements}

    def le(a, b):
        return rep_of[f.join(a, b)] == b

    q = frame_from_order(set(rep_of.values()), le)
    return q, FrameHom(f, q, rep_of)


# --- coproduct and Hausdorff by search -------------------------------------------

def _tensor_saturate(f, g, downset):
    """Close a downset of f × g under the two join-stability conditions."""
    d = set(downset)
    # empty joins: bottom rows and columns are always present
    d |= {(f.bottom, v) for v in g.elements}
    d |= {(u, g.bottom) for u in f.elements}
    changed = True
    while changed:
        changed = False
        for (u, v) in list(d):
            for (u2, v2) in list(d):
                if v2 == v:
                    cand = (f.join(u, u2), v)
                    if cand not in d:
                        d.add(cand)
                        changed = True
                if u2 == u:
                    cand = (u, g.join(v, v2))
                    if cand not in d:
                        d.add(cand)
                        changed = True
        # downward closure
        for (u, v) in list(d):
            for u2 in f.elements:
                for v2 in g.elements:
                    if f.le(u2, u) and g.le(v2, v) and (u2, v2) not in d:
                        d.add((u2, v2))
                        changed = True
    return frozenset(d)


def coproduct(f, g, cap=None):
    """Frame coproduct computed as the suplattice tensor product.

    Elements are the downsets of f × g closed under coordinatewise joins.
    Returns (tensor, inj1, inj2, rect) with the two coproduct injections and
    the basic-rectangle map rect(u, v) = u ⊕ v.
    """
    cap = cap if cap is not None else DEFAULT.coproduct_cap
    if len(f.elements) * len(g.elements) > cap:
        raise CapExceeded("coproduct carrier",
                          len(f.elements) * len(g.elements), cap,
                          field="coproduct_cap")

    def rect_downset(u, v):
        return _tensor_saturate(f, g, {(u, v)})

    rects = {}
    for u in f.elements:
        for v in g.elements:
            rects[u, v] = rect_downset(u, v)
    bottom = _tensor_saturate(f, g, set())
    elems = {bottom} | set(rects.values())
    frontier = sorted(elems, key=sort_key)
    join_memo = {}

    def join(a, b):
        u = a | b
        if u in elems:
            return u
        if u not in join_memo:
            join_memo[u] = _tensor_saturate(f, g, u)
        return join_memo[u]

    while frontier:
        new = set()
        for a in frontier:
            for b in elems:
                j = join(a, b)
                if j not in elems and j not in new:
                    new.add(j)
        elems |= new
        frontier = sorted(new, key=sort_key)

    tensor = frame_from_order(elems, lambda a, b: a <= b)
    inj1 = FrameHom(f, tensor, {u: rects[u, g.top] for u in f.elements})
    inj2 = FrameHom(g, tensor, {v: rects[f.top, v] for v in g.elements})

    def rect(u, v):
        return rects[u, v]

    return tensor, inj1, inj2, rect


def diagonal_hom(f, cap=None):
    """The codiagonal u ⊕ v ↦ u ∧ v from f ⊕ f to f."""
    tensor, inj1, inj2, rect = coproduct(f, f, cap=cap)
    mapping = {d: f.join_all(f.meet(u, v) for (u, v) in sorted(d, key=sort_key))
               for d in tensor.elements}
    return tensor, FrameHom(tensor, f, mapping)


def is_hausdorff(f, cap=None):
    """Search f ⊕ f for a closed-diagonal witness. Returns (bool, witness)."""
    tensor, delta = diagonal_hom(f, cap=cap)
    kernel = Congruence.from_map(tensor, delta.mapping.__getitem__)
    for d in tensor.elements:
        if closed_congruence(tensor, d).classes == kernel.classes:
            return True, d
    return False, None


def has_open_diagonal(f, cap=None):
    tensor, delta = diagonal_hom(f, cap=cap)
    kernel = Congruence.from_map(tensor, delta.mapping.__getitem__)
    return any(open_congruence(tensor, d).classes == kernel.classes
               for d in tensor.elements)


# --- subset scans ------------------------------------------------------------------

def check_frame_distributivity(f):
    """Exhaustive a ∧ ⋁B = ⋁(a ∧ B) over all subsets B."""
    elems = f.elements
    for a in elems:
        for n in range(len(elems) + 1):
            for bs in combinations(elems, n):
                lhs = f.meet(a, f.join_all(bs))
                rhs = f.join_all(f.meet(a, b) for b in bs)
                if lhs != rhs:
                    return False
    return True


def is_positive(f, u):
    """Every cover of u is inhabited, scanning all subsets as covers."""
    if u not in f._index:
        raise PointfreeError(f"unknown element {u!r}")
    for n in range(len(f.elements) + 1):
        for s in combinations(f.elements, n):
            if f.le(u, f.join_all(s)) and not s:
                return False
    return True


# --- directed covers and ideals -----------------------------------------------

EXHAUSTIVE_COVER_SCAN = 12  # frames up to this size scan every subset
COVER_SAMPLES = 200         # seeded join-closed covers for larger frames


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


def compact_by_directed_covers(f):
    """No directed set joins to top without holding it: every subset for
    frames of at most EXHAUSTIVE_COVER_SCAN elements, otherwise
    COVER_SAMPLES seeded random subsets closed under binary joins (which
    makes them directed without changing their join)."""
    if len(f.elements) <= EXHAUSTIVE_COVER_SCAN:
        covers = (s for n in range(1, len(f.elements) + 1)
                  for s in combinations(f.elements, n) if is_directed(f, s))
    else:
        rng = random.Random(0)
        covers = (_directify({u for u in f.elements if rng.random() < 0.5},
                             f.join) or {f.bottom}
                  for _ in range(COVER_SAMPLES))
    return not any(f.join_all(s) == f.top and f.top not in s for s in covers)


def _directify(s, join):
    """Close a subset under binary joins, one member at a time: the joins
    with a new member x are x joined with the closure so far."""
    out = set()
    for x in s:
        if x not in out:
            out |= {join(c, x) for c in out}
            out.add(x)
    return out


# --- lattice tables from an order by scan ---------------------------------------

def bound(elements, le, a, b, lower):
    """The meet (lower) or join of a and b in the order le: the common
    bounds, and among them the one comparable above (below) all others."""
    if lower:
        cands = [c for c in elements if le(c, a) and le(c, b)]
        best = [c for c in cands if all(le(d, c) for d in cands)]
        kind = "meet"
    else:
        cands = [c for c in elements if le(a, c) and le(b, c)]
        best = [c for c in cands if all(le(c, d) for d in cands)]
        kind = "join"
    if len(best) != 1:
        raise PointfreeError(f"{kind} of {a} and {b} does not exist uniquely")
    return best[0]


def lattice_tables(elements, leq):
    """(meet table, join table) over all pairs in element order, meet
    before join for each pair, or the PointfreeError of the first pair
    whose meet or join does not exist."""
    def le(x, y):
        return (x, y) in leq

    meets, joins = {}, {}
    try:
        for a in elements:
            for b in elements:
                meets[a, b] = bound(elements, le, a, b, lower=True)
                joins[a, b] = bound(elements, le, a, b, lower=False)
    except PointfreeError as exc:
        return exc
    return meets, joins


# --- distributivity, Birkhoff and homomorphisms by scan ----------------------------

def distributivity_witness(l):
    """The first triple, in element order, violating
    a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c), or None: O(n³)."""
    for a in l.elements:
        for b in l.elements:
            for c in l.elements:
                if (l.meet(a, l.join(b, c))
                        != l.join(l.meet(a, b), l.meet(a, c))):
                    return (a, b, c)
    return None


def birkhoff_round_trips(l, irr, to_downset, from_downset):
    """Both composites are identities: on every element of l, and on
    every downset of the irreducibles."""
    return (all(from_downset(to_downset(a)) == a for a in l.elements)
            and all(to_downset(from_downset(d)) == d
                    for d in enumerate_downsets(irr)))


def is_frame_hom(source, target, mapping):
    """Defined on the whole source, keeps top and bottom, and keeps the
    meet and the join of every pair of elements: O(n²)."""
    h = mapping
    return (set(h) == set(source.elements)
            and h[source.top] == target.top
            and h[source.bottom] == target.bottom
            and all(h[source.meet(a, b)] == target.meet(h[a], h[b])
                    and h[source.join(a, b)] == target.join(h[a], h[b])
                    for a in source.elements for b in source.elements))


# --- posets, Hasse edges and lower covers by scan -------------------------------

def check_poset_by_scan(elements, leq):
    """Raise the PointfreeError of `Poset(elements, leq)`, or return None,
    from pair lookups: a pair naming an unknown element in the order leq
    lists them, then the first element not reflexive, the first pair in
    element order on both sides of a cycle, and the first (c, b, a) in
    element order with a <= b <= c but not a <= c."""
    for a, b in leq:
        if a not in elements or b not in elements:
            raise PointfreeError(
                f"leq pair ({a}, {b}) mentions unknown element")
    for a in elements:
        if (a, a) not in leq:
            raise PointfreeError(f"leq not reflexive at {a}")
    for a in elements:
        for b in elements:
            if a != b and (a, b) in leq and (b, a) in leq:
                raise PointfreeError(f"leq not antisymmetric on {a}, {b}")
    for c in elements:
        for b in elements:
            for a in elements:
                if (b, c) in leq and (a, b) in leq and (a, c) not in leq:
                    raise PointfreeError(
                        f"leq not transitive via {a} <= {b} <= {c}")


def hasse_scan(elements, le):
    """Covering pairs (a, b), a < b with no c strictly between, sorted:
    O(n³)."""
    edges = []
    for a in elements:
        for b in elements:
            if a == b or not le(a, b):
                continue
            if any(c not in (a, b) and le(a, c) and le(c, b)
                   for c in elements):
                continue
            edges.append((a, b))
    return sorted(edges, key=lambda e: (sort_key(e[0]), sort_key(e[1])))


def lower_covers_by_joins(l):
    """{j: ⋁{x < j}} in element order, over the j with ⋁{x < j} ≠ j."""
    below = {j: l.join_all(x for x in l.elements if x != j and l.le(x, j))
             for j in l.elements}
    return {j: lower for j, lower in below.items() if lower != j}
