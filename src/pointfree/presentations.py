"""Finitely presented frames with decidable order.

A presentation consists of generator names and cover rules c <= \\/T where
c is a formal meet (a subset of the generators; the empty subset is the top
formal meet) and T is a finite set of formal meets.  After meet-stabilizing
the rules, the elements of the presented frame are exactly the saturated
downsets of formal meets (C-ideals), on which order, meet, join and Heyting
implication are all decidable.  They are computed on one engine,
HornClosure, built once per stabilized presentation.
"""

import functools
from dataclasses import dataclass
from itertools import combinations

from .config import DEFAULT
from .errors import CapExceeded, MixedPresentations, ParseError


TOP_MEET = frozenset()


def meet_key(m):
    return (len(m), tuple(sorted(m)))


def meet_str(m):
    return "top" if not m else " & ".join(sorted(m))


def cideal_key(members):
    return (len(members), tuple(sorted(members, key=meet_key)))


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
    def closure(self):
        """The HornClosure of this stabilized presentation, built once."""
        if not self.stabilized:
            raise ParseError(
                "presentation must be stabilized before saturation")
        return HornClosure(self)


def stabilize(p, cap=None):
    """Meet-stabilize: close the rules under meeting both sides with every
    formal meet.  Idempotent; required by all C-ideal operations."""
    cap = cap if cap is not None else DEFAULT.generator_cap
    if len(p.generators) > cap:
        raise CapExceeded("generators", len(p.generators), cap)
    if p.stabilized:
        return p
    rules = set(p.covers)
    for u in p.all_meets():
        for lhs, rhs in p.covers:
            rules.add((u | lhs, frozenset(u | t for t in rhs)))
    return FramePresentation(p.generators, frozenset(rules), stabilized=True)


@dataclass(frozen=True)
class CIdeal:
    """One element of a presented frame: a saturated downset of formal meets.

    Downward closed means closed under adding generators to a meet; saturated
    means every stabilized cover whose right side lies inside also has its
    left side inside.
    """

    presentation: FramePresentation
    members: frozenset

    def __le__(self, other):
        _same(self, other)
        return self.members <= other.members

    def __and__(self, other):
        _same(self, other)
        return CIdeal(self.presentation, self.members & other.members)

    def __or__(self, other):
        _same(self, other)
        return saturate(self.presentation, self.members | other.members)

    def __str__(self):
        return "{" + ", ".join(meet_str(m) for m in
                               sorted(self.members, key=meet_key)) + "}"


def _same(a, b):
    if a.presentation is not b.presentation and a.presentation != b.presentation:
        raise MixedPresentations("C-ideals come from different presentations")


def set_bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def saturate(p, seed):
    """Least C-ideal containing the given formal meets (a closure operator)."""
    h = p.closure
    return CIdeal(p, h.cideal(h.saturate(h.mask(seed))))


def cideal_bottom(p):
    return saturate(p, [])


def cideal_top(p):
    return saturate(p, [TOP_MEET])


def cideal_join(s):
    s = list(s)
    if not s:
        raise MixedPresentations("empty join needs an explicit presentation")
    for c in s:
        _same(s[0], c)
    return saturate(s[0].presentation, [m for c in s for m in c.members])


def cideal_heyting(a, b):
    """Heyting implication {g | ↓g ∩ a ⊆ b}; satisfies the meet adjunction."""
    _same(a, b)
    h = a.presentation.closure
    outside = h.mask(a.members) & ~h.mask(b.members)
    return CIdeal(a.presentation, frozenset(
        m for m, down in zip(h.meets, h.down) if not down & outside))


def generator_image(p, name):
    """The frame element corresponding to one generator."""
    if name not in p.generators:
        raise ParseError(f"unknown generator {name!r}")
    return saturate(p, [frozenset([name])])


def check_positivity_certificate(p, positives):
    """Verify a set of candidate positive formal meets for overtness.

    Conditions: (i) upward closed in the formal-meet order (dropping
    generators from a positive meet stays positive); (ii) every cover with a
    positive left side has a positive right member; (iii) every formal meet
    outside the set saturates to bottom.
    """
    h = p.closure  # the presentation must be stabilized
    positives = {frozenset(m) for m in positives}
    if not positives <= h.index.keys():
        raise ParseError("candidate set mentions unknown formal meets")
    # (i) upward closed: formal-meet order is reverse inclusion, so it is
    # enough that dropping any one generator stays positive
    if any(m - {g} not in positives for m in positives for g in m):
        return False
    # (ii) positive left sides need an inhabited positive right side
    if any(lhs in positives and not rhs & positives for lhs, rhs in p.covers):
        return False
    # (iii) non-candidates must be bottom: all below them lies in it
    return all(not h.down[i] & ~h.bottom
               for m, i in h.index.items() if m not in positives)


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
