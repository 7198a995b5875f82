"""Finitely presented frames with decidable order.

A presentation consists of generator names and cover rules c <= \\/T where
c is a formal meet (a subset of the generators; the empty subset is the top
formal meet) and T is a finite set of formal meets.  The elements of the
presented frame are the saturated downsets of formal meets (C-ideals).  A
finite frame is spatial, so they are computed on the models of the covers
(PresentedFrame): an element is the up-set U of models where it holds, and
its C-ideal is {m : every model of m lies in U}.  Order, meet and join are
then inclusion, intersection and union.
"""

import functools
from dataclasses import dataclass
from itertools import combinations

from .config import DEFAULT
from .errors import MixedPresentations, ParseError, PointfreeError
from .order import count_downsets, set_bits


TOP_MEET = frozenset()
RESERVED = frozenset({"bot", "top"})  # name ⊥ and ⊤, never a generator


def meet_str(m, ordered=False):  # ordered: m's names are sorted already
    return " & ".join(m if ordered else sorted(m)) or "top"


@dataclass(frozen=True)
class FramePresentation:
    """Sorted generators plus cover rules lhs <= \\/rhs, each side a mask
    over the generators: bit i is generators[i]."""

    generators: tuple
    rules: frozenset  # pairs (lhs: int, rhs: frozenset of ints)

    @classmethod
    def make(cls, generators, covers):
        """The one conversion of generator names and covers to masks."""
        gens = tuple(sorted(set(generators)))
        if reserved := RESERVED.intersection(gens):
            raise ParseError(f"generator {min(reserved)!r} is reserved: 'top' "
                             "and 'bot' name the top and bottom elements")
        bit = {g: 1 << i for i, g in enumerate(gens)}

        def mask(m):
            return functools.reduce(int.__or__, map(bit.__getitem__, m), 0)
        try:
            rules = frozenset((mask(lhs), frozenset(map(mask, rhs)))
                              for lhs, rhs in covers)
        except KeyError:
            named = {g for lhs, rhs in covers for m in (lhs, *rhs) for g in m}
            raise ParseError("cover rule mentions undeclared generator "
                             f"{min(named.difference(bit))!r}") from None
        return cls(gens, rules)

    def all_meets(self):
        """Every formal meet, in meet_key order: by number of generators,
        then by their sorted names."""
        return [frozenset(c) for n in range(len(self.generators) + 1)
                for c in combinations(self.generators, n)]

    @functools.cached_property
    def covers(self):
        """The rules as name sets: (lhs, frozenset of right-side meets)."""
        def names(m):
            return frozenset(self.generators[i] for i in set_bits(m))
        return frozenset((names(lhs), frozenset(map(names, rhs)))
                         for lhs, rhs in self.rules)

    @functools.cached_property
    def frame(self):
        """The PresentedFrame of this presentation, built once."""
        return PresentedFrame(self)


def check_generator_cap(count, limits=DEFAULT):
    """Refuse more than generator_cap generators: a C-ideal is a mask over
    2^g formal meets, and each cover mask has a bit per generator."""
    limits.check("generators", count, "generator_cap")


def presented_frame(p, limits=DEFAULT):
    """p.frame, once p is within generator_cap."""
    check_generator_cap(len(p.generators), limits)
    return p.frame


def stabilize(p, limits=DEFAULT):
    """Meet-stabilize: close the rules under meeting both sides with every
    formal meet u.  Idempotent on the rules.  No query needs the stabilized
    rules: they have the models, and so the frame, of the rules given."""
    check_generator_cap(len(p.generators), limits)
    return FramePresentation(p.generators, frozenset(
        (u | lhs, frozenset([u | t for t in rhs]))
        for u in range(1 << len(p.generators)) for lhs, rhs in p.rules))


# --- models -------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _meet_table(g):
    """For g generators: the mask of the formal meets (in meet_key order)
    that contain each generator; each meet as a mask of generators; the
    place in meet_key order of the meet at each bit of key layout; and
    (W_i, 2^i) for each generator i, W_i the meets without i, at the bits
    whose numbers hold i: every meet divided by 2^(2^i) + 1, shifted."""
    meets = tuple(sum(1 << i for i in c) for n in range(g + 1)
                  for c in combinations(range(g), n))
    every = (1 << len(meets)) - 1
    return (tuple(int("".join(str(m >> i & 1) for m in reversed(meets)), 2)
                  for i in range(g)), meets,
            sorted(range(len(meets)), key=meets.__getitem__)[::-1],
            tuple((every // ((1 << (1 << i)) + 1) << (1 << i), 1 << i)
                  for i in range(g)))


def find_models(p):
    """Every model of the covers of p, as a mask over its sorted generators:
    a set P of generators such that each cover whose left side lies in P
    has a right-side meet inside P (Vickers, *Topology via Logic*).

    All 2^g truth assignments are checked at once, one bit each, the
    assignment making the generators of the k-th formal meet true at bit
    k: a meet holds where all its generators do, and a cover where its
    left side fails or a right-side meet holds.  A model of the covers is
    a model of their meet-stabilization, so the covers need not be
    stabilized.  A tautology, a cover with a right-side meet inside its
    left side, holds everywhere and is skipped.
    """
    containing, meets, *_ = _meet_table(len(p.generators))
    ok = every = (1 << len(meets)) - 1

    def holds(m):
        return functools.reduce(int.__and__, map(containing.__getitem__,
                                                 set_bits(m)), every)

    for lhs, rhs in p.rules:
        right = 0
        for t in rhs:
            if t & ~lhs == 0:
                break
            right |= holds(t)
        else:
            ok &= right | ~holds(lhs)
    return [meets[k] for k in set_bits(ok)]


def _basis_name(ideal, without, rank, meet_names):
    """The name of a C-ideal mask I in key layout: its basis, the members
    with no proper sub-meet in I, in meet_key order.  The others are the
    OR over i of (I & W_i) >> 2^i, W_i the meets without i (`without`);
    each basis bit is read off, lowest first, as its meet_key rank."""
    others = 0
    for w, shift in without:
        others |= (ideal & w) >> shift
    basis, ranks = ideal & ~others, []
    while basis:
        low = basis & -basis
        ranks.append(rank[low.bit_length() - 1])
        basis ^= low
    ranks.sort()
    return "{" + ", ".join([meet_names[r] for r in ranks]) + "}"


class PresentedFrame:
    """The frame of C-ideals of a presentation on the models of its
    covers: a finite frame is spatial, so u ≤ v exactly when every model
    of u is a model of v.  Built once per presentation (p.frame); it keeps
    nothing that depends on a query, and the methods that count take the
    limits and a fresh memo per call, keeping |D(J)| by limits.  It keeps
    the cover masks (`p.rules`), not the presentation, which holds it: a
    cycle would leave each dropped input to the cyclic garbage collector.

    Each model P gives the join-prime j_P, the formal meets m such that
    every model holding m holds P, and j_P ≤ j_Q exactly when Q ⊆ P.  The
    models are kept larger first, find_models' order reversed, which is a
    linear extension of J; an element is a mask over them: a downset of J
    (Birkhoff) is an up-set of models.  Meet, join and order are AND, OR
    and inclusion.  models(m) of a formal meet is the AND of its
    generators' masks `holds`, and models(join of meets) the OR of those.
    The C-ideal of an up-set U is {m : models(m) ⊆ U}, a mask over the
    formal meets in key layout, the meet of generator set s at bit
    2^g - 1 - s: the meets outside it lie inside a model outside U.
    C-ideal masks are built only to order elements (`key`) and to name
    them by their basis.  In key layout the order of elements is integer
    order: by size, then the larger mask first.
    """

    bottom = 0
    key = staticmethod(lambda mask: (mask.bit_count(), -mask))

    def __init__(self, p):
        self.generators = gens = list(p.generators)
        self.rules = p.rules
        self.bit = {g: 1 << i for i, g in enumerate(gens)}  # mask bits
        # larger models first: j_P < j_Q exactly when Q is a proper subset
        # of P, so find_models' meet_key order reversed is a linear
        # extension of J
        self.models = find_models(p)[::-1]
        self.full = (1 << (1 << len(gens))) - 1  # every formal meet
        self._rank, self._without = _meet_table(len(gens))[2:]  # for names
        self.top = (1 << len(self.models)) - 1
        self._names = {}  # the name of each up-set, kept once built
        self._counts = {}  # |D(J)| by limits, kept once counted
        self._masks = {}

    # holds, _held and _below are built on first use: points reads none
    @functools.cached_property
    def holds(self):
        """holds[b]: the models holding the generator at mask bit b."""
        return {b: sum(1 << k for k, q in enumerate(self.models) if q & b)
                for b in self.bit.values()}

    @functools.cached_property
    def _held(self):
        """The formal meets inside each model q, in key layout: the empty
        meet at bit 2^g - 1, doubled by a shift right by 2^i, which is q's
        own bit 1 << i, for each generator i of q."""
        held, top_meet = [], 1 << (1 << len(self.generators)) - 1
        for q in self.models:
            inside = top_meet
            while q:
                low = q & -q
                inside |= inside >> low
                q ^= low
            held.append(inside)
        return held

    @functools.cached_property
    def _below(self):
        """below[k]: the J-indices strictly below J[k], all less than k: the
        models that properly contain model k, all larger."""
        models = self.models
        return [sum(1 << j for j in range(k) if q & ~models[j] == 0)
                for k, q in enumerate(models)]

    @staticmethod
    def le(a, b):
        return a & ~b == 0

    def meet_masks(self, meets):
        """Each formal meet, a set of names, as a mask over the generators;
        the least unknown name is refused, whatever the string hashing."""
        meets, bit, masks = list(meets), self.bit, []
        try:
            for m in meets:  # loops, not map and sum: a meet has few names
                mask = 0
                for g in m:
                    mask |= bit[g]
                masks.append(mask)
        except KeyError:
            unknown = {g for m in meets for g in m}.difference(bit)
            raise ParseError(f"unknown generator {min(unknown)!r}") from None
        return masks

    def models_of(self, masks):
        """The up-set of models of the join of some formal meets, each a
        mask over the generators: the OR of the ANDs of their `holds`."""
        out, holds = 0, self.holds
        for m in masks:
            held = self.top
            while m:
                low = m & -m
                held &= holds[low]
                m ^= low
            out |= held
        return out

    def mask(self, u):
        """The C-ideal of u as a mask in key layout, kept once built."""
        if u not in self._masks:
            self._masks[u] = self.full & ~functools.reduce(int.__or__, map(
                self._held.__getitem__, set_bits(self.top & ~u)), 0)
        return self._masks[u]

    @functools.cached_property
    def _meet_names(self):
        """The name of each formal meet in meet_key order."""
        return [meet_str(c, ordered=True)  # combinations keep gens sorted
                for n in range(len(self.generators) + 1)
                for c in combinations(self.generators, n)]

    def members(self, u):
        """The formal meets of the C-ideal of an up-set, as a frozenset."""
        gens = self.generators  # bit b: the meet of the generators b lacks
        return frozenset(frozenset(g for i, g in enumerate(gens)
                                   if not b >> i & 1)
                         for b in set_bits(self.mask(u)))

    def name(self, u):
        """The name of an up-set: the basis of its C-ideal (_basis_name)."""
        if u not in self._names:
            self._names[u] = _basis_name(self.mask(u), self._without,
                                         self._rank, self._meet_names)
        return self._names[u]

    def names(self, elems):
        """[name(u) for u in elems] for elements that elements() listed,
        named in one loop, each through the same _basis_name and memo."""
        memo, masks, without = self._names, self._masks, self._without
        rank, meet_names = self._rank, self._meet_names
        for u in elems:
            if u not in memo:
                memo[u] = _basis_name(masks[u], without, rank, meet_names)
        return [memo[u] for u in elems]

    @property
    def join_primes(self):
        """J in key order, each j_P as its element, the up-set of model k."""
        return [b | 1 << k for k, b in enumerate(self._below)]

    def count_downsets(self, limits=DEFAULT):
        """|D(J)|, the number of elements."""
        if limits not in self._counts:
            self._counts[limits] = count_downsets(self._below, self.top,
                                                  {0: 1}, limits)
        return self._counts[limits]

    def elements(self, limits=DEFAULT):
        """All elements in key order, and the Hasse edges u ⋖ v as index
        pairs into them, sorted, once |D(J)| is within element_cap: it is
        counted only when 2^|J| is past the cap, as |D(J)| ≤ 2^|J|.

        Listed from the top down: dropping from v a model k none of whose
        proper submodels is in v leaves the element u below it, and the
        C-ideal of u is that of v less the formal meets inside model k."""
        models = self.models
        if 1 << len(models) > limits.element_cap:
            limits.check("frame elements", self.count_downsets(limits),
                         "element_cap")
        held = self._held
        # above[i]: the J-indices strictly above i, the models inside model i
        above = [sum(1 << k for k in range(i + 1, len(models))
                     if models[k] & ~q == 0) for i, q in enumerate(models)]
        masks, edges, stack = {self.top: self.full}, [], [self.top]
        while stack:
            v = w = stack.pop()
            while w:
                low = w & -w
                w ^= low
                k = low.bit_length() - 1
                if not above[k] & v:
                    u = v ^ low
                    if u not in masks:
                        masks[u] = masks[v] & ~held[k]
                        stack.append(u)
                    edges.append((u, v))
        self._masks.update(masks)
        elems = [u for _, _, u in sorted([(m.bit_count(), -m, u)  # key(m), u
                                        for u, m in masks.items()])]
        rank = {u: r for r, u in enumerate(elems)}
        return elems, sorted([(rank[u], rank[v]) for u, v in edges])

    def points(self):
        """Each point as the sorted list of generators of its model, in the
        order find_models gives the models (meet_key order): a point of
        the frame is a model of its covers, and listing them counts no
        elements.  Each model is checked against every cover before it is
        returned.
        """
        gens, out = self.generators, []
        for q in reversed(self.models):
            # a cover whose left side lies in q has a right-side meet in q
            if any(lhs & ~q == 0 and all(t & ~q for t in rhs)
                   for lhs, rhs in self.rules):
                raise PointfreeError("point violates a cover")
            out.append([g for i, g in enumerate(gens) if q >> i & 1])
        return out


@dataclass(frozen=True)
class CIdeal:
    """One element of a presented frame: a saturated downset of formal meets.

    Downward closed means closed under adding generators to a meet; saturated
    means every stabilized cover whose right side lies inside also has its
    left side inside.  It is held as the up-set of the models where it
    holds (PresentedFrame).
    """

    presentation: FramePresentation
    models: int

    @property
    def mask(self):
        """The members as a mask in key layout (PresentedFrame)."""
        return self.presentation.frame.mask(self.models)

    @property
    def members(self):
        return self.presentation.frame.members(self.models)

    def __le__(self, other):
        _same(self, other)
        return self.models & ~other.models == 0

    def __str__(self):
        return self.presentation.frame.name(self.models)


def _same(a, b):
    if a.presentation is not b.presentation and a.presentation != b.presentation:
        raise MixedPresentations("C-ideals come from different presentations")


def saturate(p, seed, limits=DEFAULT):
    """Least C-ideal containing the given formal meets (a closure operator):
    the meets all of whose models hold one of them."""
    frame = presented_frame(p, limits)
    return CIdeal(p, frame.models_of(frame.meet_masks(seed)))


def check_positivity_certificate(p, positives, limits=DEFAULT):
    """Verify a set of candidate positive formal meets for overtness.

    Conditions: (i) upward closed in the formal-meet order (dropping
    generators from a positive meet stays positive); (ii) for every cover
    l <= \\/T and every positive meet m ⊇ l, some m ∪ t with t in T is
    positive, which given (i) is (ii) on the stabilized covers
    u ∪ l <= \\/{u ∪ t} (take u = m; u ∪ t lies inside u ∪ l ∪ t); (iii)
    every formal meet outside the set saturates to bottom, that is, is
    held by no model.  Given (i), (iii) holds when every model, as the
    meet of its generators, is a candidate: a meet held by a model lies
    inside it.  The candidates are made masks once, the covers are read as
    given, and the models are those of the frame that p keeps.
    """
    frame = presented_frame(p, limits)
    positives = set(frame.meet_masks(positives))
    # (i) upward closed: formal-meet order is reverse inclusion, so it is
    # enough that dropping any one generator stays positive
    if any(m & ~(1 << i) not in positives
           for m in positives for i in set_bits(m)):
        return False
    # (ii) a positive meet inside a left side meets a right side positively
    if any(lhs & ~m == 0 and not any(m | t in positives for t in rhs)
           for lhs, rhs in p.rules for m in positives):
        return False
    # (iii) every model's own meet is positive
    return all(q in positives for q in frame.models)


# --- text format ------------------------------------------------------------

def parse_presentation_text(text, limits=DEFAULT):
    """Parse the line format: `gen a b`, `rel a & b <= c | d`, `rel top <= a`,
    `rel a <= bot`.  Returns an unstabilized FramePresentation, once its
    generators are counted against generator_cap: no mask is built before."""
    gens = []
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = line.split(maxsplit=1)[0]
        body = line[len(word):]
        if word == "gen":
            names = body.split()
            if not names:
                raise ParseError("gen needs a generator name", line=lineno)
            if bad := [n for n in names if not _is_name(n)]:
                raise ParseError(f"bad generator name {bad[0]!r}", line=lineno)
            gens += names
        elif word == "rel":
            if "<=" not in body:
                raise ParseError("relation needs '<='", line=lineno)
            lhs, rhs = body.split("<=", 1)
            covers.append((parse_meet(lhs, lineno), parse_join(rhs, lineno)))
        else:
            raise ParseError(f"unknown directive {word!r}", line=lineno)
    check_generator_cap(len(set(gens)), limits)
    return FramePresentation.make(gens, covers)


def _is_name(text):
    """Whether text names a generator: letters, digits and underscores."""
    return text.replace("_", "").isalnum()


def parse_meet(text, line=None):
    """A formal meet, in a `rel` line as on the command line: `top`, or
    names joined by `&`; `top` stands alone, as `bot` does in a join."""
    text = text.strip()
    if text == "top":
        return TOP_MEET
    names = [part.strip() for part in text.split("&")]
    if reserved := RESERVED.intersection(names):
        raise ParseError(f"reserved word {min(reserved)!r} must stand alone: "
                         "'top' as a whole meet, 'bot' as a whole join",
                         line=line)
    if not all(map(_is_name, names)):
        raise ParseError(f"bad formal meet {text!r}", line=line)
    return frozenset(names)


def parse_join(text, line=None):
    """A join of formal meets, `m | m`, as the list of them; [] for `bot`."""
    if text.strip() == "bot":
        return []
    return [parse_meet(part, line) for part in text.split("|")]


def presentation_text(p):
    """The line format, the rules and each right side in meet_key order."""
    @functools.cache
    def key(m):  # the meet_key of mask m, then its name
        names = tuple(p.generators[i] for i in set_bits(m))
        return (len(names), names), meet_str(names, ordered=True)
    lines = ["gen " + " ".join(p.generators)] if p.generators else []
    for (_, lhs), _, rhs in sorted((key(lhs), len(rhs), sorted(map(key, rhs)))
                                   for lhs, rhs in p.rules):
        lines.append(f"rel {lhs} <= {' | '.join(n for _, n in rhs) or 'bot'}")
    return "\n".join(lines) + "\n"
