"""Finite order theory: downsets, Birkhoff duality, prime filters."""

import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import boolean4, chain, m3_diamond_poset, three_chain
from frame_oracles import (birkhoff_round_trips, check_poset_by_scan,
                           distributivity_witness as triple_scan, hasse_scan,
                           is_directed, lattice_tables, lower_covers_by_joins)
from pointfree.config import DEFAULT, Limits
from pointfree.errors import (CapExceeded, NotDistributive, ParseError,
                              PointfreeError)
from pointfree.order import (DistLattice, Poset, birkhoff_iso, canon,
                             count_downsets, downset_lattice,
                             enumerate_downsets, join_irreducibles,
                             parse_lattice_text, prime_filters)

ROOT = Path(__file__).resolve().parents[1]


def antichain(n):
    names = [f"a{i}" for i in range(n)]
    return Poset.from_relation(names, [])


def two_chain_poset():
    return Poset.from_relation(["a", "b"], [("a", "b")])


# --- posets -------------------------------------------------------------------

def test_poset_validation():
    with pytest.raises(PointfreeError):
        Poset(("a", "b"), frozenset([("a", "a"), ("b", "b"),
                                     ("a", "b"), ("b", "a")]))
    with pytest.raises(PointfreeError):
        Poset(("a",), frozenset())  # not reflexive
    with pytest.raises(PointfreeError,
                       match=r"^leq not transitive via a <= b <= c$"):
        Poset(("a", "b", "c"), frozenset([("a", "a"), ("b", "b"), ("c", "c"),
                                          ("a", "b"), ("b", "c")]))
    with pytest.raises(PointfreeError, match=r"^leq pair \(a, zz\) mentions "
                                             r"unknown element$"):
        Poset(("a", "b"), frozenset([("a", "a"), ("b", "b"), ("a", "zz")]))


def test_from_relation_takes_transitive_closure():
    p = Poset.from_relation(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.le("a", "c")


def closure_fixpoint(elements, pairs):
    """The closure `Poset.from_relation` took before Warshall: add (a, c)
    for every (a, b), (b, c) in the relation until nothing changes."""
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
    return Poset(elements, frozenset(rel))


def relations(n):
    names = [f"e{i}" for i in range(n)]
    index_pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.tuples(st.just(names), st.one_of(
        st.lists(index_pairs.map(sorted), max_size=3 * n),  # acyclic
        st.lists(index_pairs, max_size=2 * n)).map(
            lambda ps: [(names[a], names[b]) for a, b in ps]))


def refusal(build, *args):
    """build(*args), or the text of the PointfreeError it raises."""
    try:
        return build(*args)
    except PointfreeError as exc:
        return str(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@example((["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]))
@given(st.integers(1, 8).flatmap(relations))
def test_warshall_closure_matches_the_fixpoint_oracle(case):
    """The same Poset, or on a cycle both refuse as not antisymmetric on
    the same first pair in element order."""
    got = refusal(Poset.from_relation, *case)
    assert got == refusal(closure_fixpoint, *case)
    assert isinstance(got, Poset) or got.startswith("leq not antisymmetric")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 8).flatmap(relations), st.booleans())
def test_poset_checks_on_masks_match_the_pair_scans(case, reflexive):
    """A relation, with its diagonal or without, as the leq of a Poset: the
    checks on down-set masks refuse with the text of the pair scans, or
    both accept."""
    names, pairs = case
    leq = frozenset(pairs) | {(a, a) for a in names if reflexive}
    want = refusal(check_poset_by_scan, names, leq)
    got = refusal(Poset, tuple(names), leq)
    assert got == want or want is None and isinstance(got, Poset)


def test_from_relation_refuses_a_pair_with_an_unknown_element():
    """The first such pair as listed, whatever the hash order of its
    names; a DistLattice refuses the same way."""
    for pairs in ([("a", "zz")], [("zz", "a")], [("a", "zz"), ("zz", "b")],
                  [("a", "zz"), ("y", "b")]):
        a, b = pairs[0]
        message = f"leq pair ({a}, {b}) mentions unknown element"
        for build in (Poset.from_relation, DistLattice):
            with pytest.raises(PointfreeError) as err:
                build(["a", "b"], pairs)
            assert str(err.value) == message


def test_hasse_edges_drop_transitive_pairs():
    p = Poset.from_relation(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.hasse_edges() == [("a", "b"), ("b", "c")]


# --- downset lattices -----------------------------------------------------------

def test_downset_lattice_empty_poset():
    lat = downset_lattice(antichain(0))
    assert len(lat.elements) == 1


def test_downset_lattice_two_antichain():
    lat = downset_lattice(antichain(2))
    assert len(lat.elements) == 4


def test_downset_lattice_two_chain():
    lat = downset_lattice(two_chain_poset())
    assert len(lat.elements) == 3


def test_downset_lattice_cap():
    with pytest.raises(CapExceeded):
        downset_lattice(antichain(17))


def below_masks(p):
    """below[k] of count_downsets: the elements strictly below element k,
    the elements sorted by how many lie below them, a linear extension."""
    elems = sorted(p.elements, key=lambda b: sum(p.le(a, b)
                                                 for a in p.elements))
    return [sum(1 << i for i, a in enumerate(elems)
                if a != b and p.le(a, b)) for b in elems]


@pytest.mark.parametrize("p", [antichain(0), antichain(3), two_chain_poset(),
                               m3_diamond_poset()],
                         ids=["empty", "antichain3", "chain2", "diamond"])
def test_count_downsets_matches_the_enumeration(p):
    count = count_downsets(below_masks(p), (1 << len(p.elements)) - 1, {0: 1})
    assert count == len(enumerate_downsets(p))


def test_count_downsets_runs_without_recursion():
    """A chain of 5,000 has 5,001 downsets and an antichain of 5,000 has
    2^5,000, each counted from one sub-count per element; one recursion
    per element passed the interpreter's limit.  One sub-count per top is
    within any cap."""
    n = 5000
    chain_below = [(1 << k) - 1 for k in range(n)]
    limits = Limits(element_cap=1)
    assert count_downsets(chain_below, (1 << n) - 1, {0: 1}, limits) == n + 1
    assert count_downsets([0] * n, (1 << n) - 1, {0: 1}, limits) == 2 ** n


def test_count_downsets_refuses_past_element_cap():
    """The 2^7 subsets of seven generators under inclusion: a Dedekind
    count, whose sub-counts pass any desk-scale cap."""
    n = 1 << 7
    below = [sum(1 << i for i in range(n) if i != k and i & k == i)
             for k in range(n)]
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"^down-set sub-counts with one "
                                          r"top has size 4097, exceeding "
                                          r"cap 4096 \(element_cap\)$"):
        count_downsets(below, (1 << n) - 1, {0: 1})
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", range(5))
def test_count_downsets_stores_at_most_the_count_per_top(n):
    """The bound count_downsets refuses by: on every poset of at most four
    elements, one count stores at most |D(S)| sub-counts with one top
    element, so a count within the cap is never refused."""
    for p in all_posets([f"x{i}" for i in range(n)]):
        memo, count = {0: 1}, len(enumerate_downsets(p))
        assert count_downsets(below_masks(p), (1 << n) - 1, memo,
                              Limits(element_cap=count)) == count
        tops = Counter(t.bit_length() for t in memo if t)
        assert max(tops.values(), default=0) <= count


def all_posets(names):
    """Every labeled poset on the given elements."""
    pairs = [(a, b) for a in names for b in names if a != b]
    out = []
    for n in range(len(pairs) + 1):
        for chosen in combinations(pairs, n):
            rel = set(chosen) | {(a, a) for a in names}
            if any((b, a) in rel for (a, b) in chosen):
                continue
            if any((a, c) not in rel
                   for (a, b) in rel for (b2, c) in rel if b == b2):
                continue
            out.append(Poset(tuple(sorted(names)), frozenset(rel)))
    return out


def test_downset_lattice_always_distributive():
    for p in all_posets(["a", "b", "c"]):
        assert downset_lattice(p).distributivity_witness() is None


def small_lattices():
    """Every lattice with at most 5 elements: the one-element lattice, and
    a bottom 0 and top 1 around each poset from all_posets on at most 3
    elements that makes a lattice (every labelling of the middle)."""
    out = [chain(1)]
    for n in range(4):
        for p in all_posets([f"x{i}" for i in range(n)]):
            elems = ["0", *p.elements, "1"]
            leq = (set(p.leq) | {("0", e) for e in elems}
                   | {(e, "1") for e in elems})
            try:
                out.append(DistLattice(elems, leq))
            except PointfreeError:  # some pair has no unique meet or join
                pass
    return out


BOUNDED_POSETS = [p for n in range(5)
                  for p in all_posets([f"x{i}" for i in range(n)])]


def test_covers_from_masks_match_the_scans():
    """Hasse edges on every poset of at most 4 elements and every lattice
    of at most 5 against the O(n³) scan, and J with its lower covers
    against the j with ⋁{x < j} ≠ j, joined through the tables."""
    for p in BOUNDED_POSETS:
        assert p.hasse_edges() == hasse_scan(p.elements,
                                             lambda a, b: (a, b) in p.leq)
    for l in small_lattices():
        assert l.hasse_edges() == hasse_scan(l.elements, l.le)
        assert list(l.lower_covers.items()) == list(
            lower_covers_by_joins(l).items())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BOUNDED_POSETS), st.randoms(use_true_random=False))
def test_tables_from_masks_match_the_bound_scan(p, rng):
    """Meets and joins read off down-set and up-set masks against the scan
    of common bounds, on ⊥ and ⊤ around every poset on at most 4 elements
    (non-lattices included), listed in a random order: equal tables, or
    the same first pair refused with the same message."""
    elems = ["0", *p.elements, "1"]
    rng.shuffle(elems)
    leq = (set(p.leq) | {("0", e) for e in elems} | {(e, "1") for e in elems})
    want = lattice_tables(elems, leq)
    try:
        l = DistLattice(elems, leq)
    except PointfreeError as exc:
        assert isinstance(want, PointfreeError) and str(exc) == str(want)
        return
    assert (l.meet_table, l.join_table) == want


def test_tables_from_masks_refuse_the_first_pair():
    """Two maximal lower bounds: a, b < c, d has no meet of c and d and no
    join of a and b; the pair loop reaches (a, b) first."""
    elems = ["0", "a", "b", "c", "d", "1"]
    leq = ({(x, x) for x in elems} | {("0", x) for x in elems}
           | {(x, "1") for x in elems}
           | {(x, y) for x in "ab" for y in "cd"})
    with pytest.raises(PointfreeError,
                       match="^join of a and b does not exist uniquely$"):
        DistLattice(elems, leq)
    assert str(lattice_tables(elems, leq)) == \
        "join of a and b does not exist uniquely"


def test_join_prime_distributivity_matches_the_triple_scan():
    refused = 0
    for l in small_lattices():
        w = l.distributivity_witness()
        assert (w is None) == (triple_scan(l) is None)
        if w is None:
            assert birkhoff_round_trips(l, *birkhoff_iso(l))
            continue
        a, b, c = w
        assert l.meet(a, l.join(b, c)) != l.join(l.meet(a, b), l.meet(a, c))
        refused += 1
    assert refused == 7  # M3 and the six labellings of N5


# --- Birkhoff duality --------------------------------------------------------------

def test_join_irreducibles_examples():
    assert len(join_irreducibles(chain(2)).elements) == 1
    b4_irr = join_irreducibles(boolean4())
    assert set(b4_irr.elements) == {"a", "b"}
    assert not b4_irr.le("a", "b") and not b4_irr.le("b", "a")
    ch3_irr = join_irreducibles(three_chain())
    assert set(ch3_irr.elements) == {"m", "1"} and ch3_irr.le("m", "1")


def test_birkhoff_iso_examples():
    for lat, expected_downsets in [(three_chain(), 3), (boolean4(), 4),
                                   (chain(1), 1)]:
        irr, to_d, from_d = birkhoff_iso(lat)
        assert len(enumerate_downsets(irr)) == expected_downsets
        for a in lat.elements:
            assert from_d(to_d(a)) == a


def test_birkhoff_rejects_nondistributive_with_witness():
    p = m3_diamond_poset()
    lat = DistLattice(p.elements, p.leq)
    with pytest.raises(NotDistributive) as err:
        birkhoff_iso(lat)
    a, b, c = err.value.witness
    lhs = lat.meet(a, lat.join(b, c))
    rhs = lat.join(lat.meet(a, b), lat.meet(a, c))
    assert lhs != rhs


# --- prime filters ------------------------------------------------------------------

def brute_force_prime_filters(l):
    """Literal scan of all subsets against the five filter conditions."""
    out = []
    elems = list(l.elements)
    for n in range(len(elems) + 1):
        for sub in combinations(elems, n):
            f = frozenset(sub)
            if l.top not in f or l.bottom in f:
                continue
            if any(l.le(a, b) and b not in f
                   for a in f for b in elems):
                continue
            if any(l.meet(a, b) not in f for a in f for b in f):
                continue
            if any(l.join(a, b) in f and a not in f and b not in f
                   for a in elems for b in elems):
                continue
            out.append(f)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def test_prime_filters_examples():
    assert prime_filters(chain(1)) == []
    assert sorted(map(set, prime_filters(three_chain())),
                  key=len) == [{"1"}, {"m", "1"}]
    assert len(prime_filters(boolean4())) == 2


def test_prime_filters_match_brute_force():
    for lat in [chain(1), chain(2), three_chain(), boolean4(),
                downset_lattice(antichain(3))]:
        assert set(prime_filters(lat)) == set(brute_force_prime_filters(lat))


def test_prime_filters_biject_with_join_irreducibles():
    for lat in [chain(1), chain(4), three_chain(), boolean4(),
                downset_lattice(two_chain_poset())]:
        irr = join_irreducibles(lat).elements
        pf = prime_filters(lat)
        assert len(pf) == len(irr)
        upsets = {frozenset(a for a in lat.elements if lat.le(j, a))
                  for j in irr}
        assert upsets == set(pf)


# --- directed sets -------------------------------------------------------------------

def test_is_directed_examples():
    b4 = boolean4()
    assert not is_directed(b4, [])
    assert is_directed(chain(3), chain(3).elements)
    assert not is_directed(b4, ["a", "b"])


# --- text format ---------------------------------------------------------------------

def test_parse_poset_text():
    p = parse_lattice_text("elements: a b c\nleq: a<b b<c\n")
    assert p.le("a", "c")
    assert p.elements == ("a", "b", "c")


def test_parse_poset_text_errors():
    with pytest.raises(ParseError):
        parse_lattice_text("leq: a<b\n")
    with pytest.raises(ParseError):
        parse_lattice_text("elements: a b\nleq: ab\n")
    with pytest.raises(ParseError):
        parse_lattice_text("elements: a\nwhat: x\n")


def test_parse_lattice_text_distributivity_check():
    lat = parse_lattice_text("elements: 0 m 1\nleq: 0<m m<1\n")
    assert lat.top == "1" and lat.bottom == "0"
    m3 = ("elements: 0 a b c 1\n"
          "leq: 0<a 0<b 0<c a<1 b<1 c<1\n")
    with pytest.raises(NotDistributive):
        parse_lattice_text(m3)


def lattice_through_a_poset(names, pairs):
    """The .lat path that validated each order twice: a Poset from the
    relation, a DistLattice on its pair set, then distributivity."""
    try:
        p = Poset.from_relation(names, pairs)
    except PointfreeError as exc:
        raise ParseError(str(exc))
    lattice = DistLattice(p.elements, p.leq)
    if w := lattice.distributivity_witness():
        raise NotDistributive(w)
    return lattice


def lattice_outcome(build, *args):
    try:
        lat = build(*args)
    except PointfreeError as exc:
        return type(exc).__name__, str(exc)
    return (lat.elements, lat.meet_table, lat.join_table, lat.bottom,
            lat.top, lat.lower_covers)


@settings(max_examples=300, derandomize=True, deadline=None)
@example((["e0", "e1"], [("e0", "e1"), ("e1", "e0")]), False)
@given(st.integers(1, 6).flatmap(relations), st.booleans())
def test_parse_lattice_text_matches_the_path_through_a_poset(case, bounded):
    """parse_lattice_text hands the closed masks to DistLattice with no
    Poset and no pair set: the same lattice, or the same refusal, as
    through a Poset and its pairs."""
    names, pairs = case
    if bounded:  # a least and a greatest element: more of them lattices
        pairs += [("bot", n) for n in names] + [(n, "top") for n in names]
        names = [*names, "bot", "top"]
    text = (f"elements: {' '.join(names)}\n"
            f"leq: {' '.join(f'{a}<{b}' for a, b in pairs)}\n")
    assert lattice_outcome(parse_lattice_text, text) == \
        lattice_outcome(lattice_through_a_poset, names, pairs)


def test_parse_lattice_text_refuses_before_building():
    """The elements line is counted against poset_cap before the O(n^4)
    order and table build, which takes tens of seconds at 150 elements."""
    chain150 = ("elements: " + " ".join(f"c{i}" for i in range(150))
                + "\nleq: " + " ".join(f"c{i}<c{i + 1}" for i in range(149)))
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as err:
        parse_lattice_text(chain150)
    assert time.perf_counter() - start < 5
    assert (err.value.size, err.value.cap) == (150, DEFAULT.poset_cap)

