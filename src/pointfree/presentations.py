"""Finitely presented frames with decidable order.

A presentation consists of generator names and cover rules c <= \\/T where
c is a formal meet (a subset of the generators; the empty subset is the top
formal meet) and T is a finite set of formal meets.  The elements of the
presented frame are the saturated downsets of formal meets (C-ideals).  A
finite frame is spatial, so they are computed on the models of the covers
(ModelSets): an element is the up-set U of models where it holds, and its
C-ideal is {m : every model of m lies in U}.  Order, meet and join are then
inclusion, intersection and union.
"""

import functools
from dataclasses import dataclass
from itertools import combinations, compress

from .config import DEFAULT
from .errors import CapExceeded, MixedPresentations, ParseError


TOP_MEET = frozenset()


def meet_key(m):
    return (len(m), tuple(sorted(m)))


def meet_str(m):
    return "top" if not m else " & ".join(sorted(m))


def cideal_key(members):
    return (len(members), tuple(sorted(map(meet_key, members))))


@dataclass(frozen=True)
class FramePresentation:
    """Generators plus cover rules lhs <= \\/rhs, optionally meet-stabilized."""

    generators: tuple
    covers: frozenset  # pairs (lhs: frozenset, rhs: frozenset of frozensets)
    stabilized: bool = False

    def __post_init__(self):
        gens = set(self.generators)
        for lhs, rhs in self.covers:
            if not lhs <= gens or not all(t <= gens for t in rhs):
                raise ParseError("cover rule mentions undeclared generator")

    @classmethod
    def make(cls, generators, covers):
        gens = tuple(sorted(set(generators)))
        rules = frozenset((frozenset(lhs), frozenset(frozenset(t) for t in rhs))
                          for lhs, rhs in covers)
        return cls(gens, rules)

    def all_meets(self):
        """Every formal meet, in meet_key order."""
        gs = sorted(self.generators)
        return [frozenset(c) for n in range(len(gs) + 1)
                for c in combinations(gs, n)]

    @functools.cached_property
    def model_sets(self):
        """The ModelSets of this presentation, built once."""
        return ModelSets(self)


def check_generator_cap(p, limits=DEFAULT):
    """Refuse a presentation with more than generator_cap generators: its
    C-ideals are masks over 2^g formal meets."""
    if len(p.generators) > limits.generator_cap:
        raise CapExceeded("generators", len(p.generators),
                          limits.generator_cap, field="generator_cap")


def _model_sets(p, limits):
    """p.model_sets, once p is within generator_cap: stabilize checked a
    stabilized p against the limits it was given."""
    if not p.stabilized:
        check_generator_cap(p, limits)
    return p.model_sets


def stabilize(p, limits=DEFAULT):
    """Meet-stabilize: close the rules under meeting both sides with every
    formal meet.  Idempotent.  Positivity certificates are stated on the
    stabilized rules; nothing else needs them, as the models are the same."""
    check_generator_cap(p, limits)
    if p.stabilized:
        return p
    rules = set(p.covers)
    for u in p.all_meets():
        for lhs, rhs in p.covers:
            rules.add((u | lhs, frozenset(u | t for t in rhs)))
    return FramePresentation(p.generators, frozenset(rules), stabilized=True)


def set_bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# --- models -------------------------------------------------------------------

def _cover_masks(p):
    """The sorted generators, and each cover as (left side, right-side
    meets) over their bits."""
    gens = sorted(p.generators)
    bit = {g: 1 << i for i, g in enumerate(gens)}

    def meet(m):
        return sum(bit[g] for g in m)
    return gens, [(meet(lhs), [meet(t) for t in rhs]) for lhs, rhs in p.covers]


def _breaks(rules, true, false):
    """Whether some rule has its left side true and every right-side meet
    holding a false generator, so no model extends (true, false)."""
    return any(lhs & ~true == 0 and all(t & false for t in rhs)
               for lhs, rhs in rules)


@functools.lru_cache(maxsize=8)
def _meet_table(g):
    """For g generators, the mask of the formal meets (in meet_key order)
    that contain each generator, and each meet as a mask of generators."""
    meets = tuple(sum(1 << i for i in c) for n in range(g + 1)
                  for c in combinations(range(g), n))
    return tuple(int("".join(str(m >> i & 1) for m in reversed(meets)), 2)
                 for i in range(g)), meets


def find_models(p):
    """Every model of the covers of p, as a mask over its sorted generators:
    a set P of generators such that each cover whose left side lies in P
    has a right-side meet inside P (Vickers, *Topology via Logic*).

    All 2^g truth assignments are checked at once, one bit each, the
    assignment making the generators of the k-th formal meet true at bit
    k: a meet holds where all its generators do, and a cover where its
    left side fails or a right-side meet holds.  A model of the covers is
    a model of their meet-stabilization, so the covers need not be
    stabilized.
    """
    gens, rules = _cover_masks(p)
    containing, meets = _meet_table(len(gens))
    ok = every = (1 << len(meets)) - 1

    def holds(m):
        return functools.reduce(int.__and__, map(containing.__getitem__,
                                                 set_bits(m)), every)

    for lhs, rhs in rules:
        right = 0
        for t in rhs:
            right |= holds(t)
        ok &= right | ~holds(lhs)
    return [meets[k] for k in set_bits(ok)]


def _inside(q, g):
    """The formal meets inside model q of g generators, as a mask in
    meet_key order."""
    containing, meets = _meet_table(g)
    return (1 << len(meets)) - 1 & ~functools.reduce(int.__or__, (
        c for i, c in enumerate(containing) if not q >> i & 1), 0)


class ModelSets:
    """The frame of a presentation on its models: a finite frame is
    spatial, so u ≤ v exactly when every model of u is a model of v.

    An element is an up-set of models (under inclusion), a mask over their
    list.  models(m) of a formal meet is the AND of its generators' masks
    `holds`, and models(join of meets) the OR of those.  The C-ideal of an
    up-set U is {m : models(m) ⊆ U}, a mask over the formal meets in
    meet_key order: the meets outside it lie inside a model outside U.
    """

    bottom = 0

    def __init__(self, p, models=None):
        self.presentation = p
        self.generators = gens = sorted(p.generators)
        self.bit = {g: i for i, g in enumerate(gens)}
        self.models = find_models(p) if models is None else models
        self.top = (1 << len(self.models)) - 1
        # holds[i]: the models holding generator i
        self.holds = [sum(1 << k for k, q in enumerate(self.models)
                          if q >> i & 1) for i in range(len(gens))]
        self.full = (1 << (1 << len(gens))) - 1  # every formal meet

    def of_meets(self, meets):
        """The up-set of models of the join of some formal meets."""
        out = 0
        for m in meets:
            held = self.top
            for g in m:
                if g not in self.bit:
                    raise ParseError(f"unknown formal meet {meet_str(m)!r}")
                held &= self.holds[self.bit[g]]
            out |= held
        return out

    def up(self, k):
        """The models containing model k: the up-set of its join-prime."""
        return functools.reduce(int.__and__, map(
            self.holds.__getitem__, set_bits(self.models[k])), self.top)

    def mask(self, models):
        """The C-ideal of an up-set of models, as a mask."""
        g, ms = len(self.generators), self.models
        return self.full & ~functools.reduce(int.__or__, (
            _inside(ms[k], g) for k in set_bits(self.top & ~models)), 0)

    @functools.cached_property
    def meets(self):
        """Every formal meet in meet_key order, one per bit of a mask."""
        return self.presentation.all_meets()

    @functools.cached_property
    def names(self):
        # read off the sorted generators, not by meet_str, which sorts
        # each meet again
        return [" & ".join(c) or "top" for n in range(len(self.generators) + 1)
                for c in combinations(self.generators, n)]

    def members(self, models):
        """The formal meets of the C-ideal of an up-set, as a frozenset."""
        return frozenset(compress(self.meets, _flags(self.mask(models))))

    def name(self, models):
        """The C-ideal of an up-set, its members in meet_key order."""
        return "{" + ", ".join(compress(self.names,
                                        _flags(self.mask(models)))) + "}"


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask):
    """The bits of mask, lowest first, as bytes 0 and 1."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


@dataclass(frozen=True)
class CIdeal:
    """One element of a presented frame: a saturated downset of formal meets.

    Downward closed means closed under adding generators to a meet; saturated
    means every stabilized cover whose right side lies inside also has its
    left side inside.  It is held as the up-set of the models where it
    holds (ModelSets).
    """

    presentation: FramePresentation
    models: int

    @property
    def mask(self):
        """The members as a mask over the formal meets in meet_key order."""
        return self.presentation.model_sets.mask(self.models)

    @property
    def members(self):
        return self.presentation.model_sets.members(self.models)

    def __le__(self, other):
        _same(self, other)
        return self.models & ~other.models == 0

    def __str__(self):
        return self.presentation.model_sets.name(self.models)


def _same(a, b):
    if a.presentation is not b.presentation and a.presentation != b.presentation:
        raise MixedPresentations("C-ideals come from different presentations")


def saturate(p, seed, limits=DEFAULT):
    """Least C-ideal containing the given formal meets (a closure operator):
    the meets all of whose models hold one of them."""
    return CIdeal(p, _model_sets(p, limits).of_meets(seed))


def check_positivity_certificate(p, positives):
    """Verify a set of candidate positive formal meets for overtness.

    Conditions: (i) upward closed in the formal-meet order (dropping
    generators from a positive meet stays positive); (ii) every stabilized
    cover with a positive left side has a positive right member; (iii) every
    formal meet outside the set saturates to bottom, that is, is held by no
    model.  Given (i), (iii) holds when every model, as the meet of its
    generators, is a candidate: a meet held by a model lies inside it.
    """
    if not p.stabilized:
        raise ParseError("presentation must be stabilized before a "
                         "positivity check")
    positives = {frozenset(m) for m in positives}
    gens = set(p.generators)
    if not all(m <= gens for m in positives):
        raise ParseError("candidate set mentions unknown formal meets")
    # (i) upward closed: formal-meet order is reverse inclusion, so it is
    # enough that dropping any one generator stays positive
    if any(m - {g} not in positives for m in positives for g in m):
        return False
    # (ii) positive left sides need an inhabited positive right side
    if any(lhs in positives and not rhs & positives for lhs, rhs in p.covers):
        return False
    # (iii) every model's own meet is positive
    sem = p.model_sets
    return all(frozenset(sem.generators[i] for i in set_bits(q)) in positives
               for q in sem.models)


# --- text format ------------------------------------------------------------

def parse_presentation_text(text):
    """Parse the line format: `gen a b`, `rel a & b <= c | d`, `rel top <= a`,
    `rel a <= bot`.  Returns an unstabilized FramePresentation."""
    gens = []
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gen "):
            gens.extend(line[4:].split())
        elif line.startswith("rel "):
            body = line[4:]
            if "<=" not in body:
                raise ParseError("relation needs '<='", line=lineno)
            lhs_s, rhs_s = body.split("<=", 1)
            lhs = _parse_meet(lhs_s, lineno)
            rhs_s = rhs_s.strip()
            if rhs_s == "bot":
                rhs = frozenset()
            else:
                rhs = frozenset(_parse_meet(part, lineno)
                                for part in rhs_s.split("|"))
            covers.append((lhs, rhs))
        else:
            raise ParseError(f"unknown directive {line.split()[0]!r}", line=lineno)
    return FramePresentation.make(gens, covers)


def _parse_meet(text, lineno):
    text = text.strip()
    if text == "top":
        return TOP_MEET
    names = [part.strip() for part in text.split("&")]
    if any(not n or not n.replace("_", "").isalnum() for n in names):
        raise ParseError(f"bad formal meet {text!r}", line=lineno)
    return frozenset(names)


def presentation_text(p):
    lines = ["gen " + " ".join(p.generators)]
    for lhs, rhs in sorted(p.covers, key=lambda c: (meet_key(c[0]),
                                                    cideal_key(c[1]))):
        rhs_s = "bot" if not rhs else " | ".join(
            meet_str(t) for t in sorted(rhs, key=meet_key))
        lines.append(f"rel {meet_str(lhs)} <= {rhs_s}")
    return "\n".join(lines) + "\n"
