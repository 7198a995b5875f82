"""Congruences as subsets S of J against the partition congruences they
replaced (frame_oracles): generation, open and closed, intersection and
join, complements, class representatives and quotients, on the six small
frames and on random presentations."""

import random

from hypothesis import given, settings, strategies as st

import frame_oracles
from conftest import order_pairs
from test_acceptance import free_frame_oracle, random_presentation
from pointfree.frames import (closed_congruence, congruence_generate,
                              congruence_intersection, congruence_join,
                              enumerate_frame, is_complementary,
                              open_congruence, quotient)
from pointfree.presentations import FramePresentation

SMALL = ["free1", "free2", "cantor1", "cantor2", "chain3", "bool4"]


@st.composite
def presentations(draw):
    gens = [f"g{i}" for i in range(draw(st.integers(1, 3)))]
    subsets = st.sets(st.sampled_from(gens))
    covers = draw(st.lists(st.tuples(subsets, st.lists(subsets, max_size=3)),
                           max_size=4))
    return FramePresentation.make(gens, covers)


def pairs_in(f):
    return st.lists(st.tuples(st.sampled_from(f.elements),
                              st.sampled_from(f.elements)), max_size=3)


def assert_same_quotient(f, c, oc):
    q, hom = quotient(f, c)
    oq, ohom = frame_oracles.quotient(f, oc)
    assert q.elements == oq.elements
    assert order_pairs(q) == order_pairs(oq)
    assert q.meet_table == oq.meet_table and q.join_table == oq.join_table
    assert hom.mapping == ohom.mapping


def check_against_oracle(f, data):
    """Every congruence operation on f equals its partition oracle."""
    gens = [data.draw(pairs_in(f)) for _ in range(2)]
    c1, c2 = (congruence_generate(f, ps) for ps in gens)
    o1, o2 = (frame_oracles.congruence_generate(f, ps) for ps in gens)
    assert c1.classes == o1.classes and c2.classes == o2.classes
    assert congruence_intersection(c1, c2).classes == \
        frame_oracles.congruence_intersection(o1, o2).classes
    assert congruence_join(c1, c2).classes == \
        frame_oracles.congruence_join(o1, o2).classes
    assert is_complementary(c1, c2) == frame_oracles.is_complementary(o1, o2)
    assert all(c1.largest(u) == o1.largest(u) for u in f.elements)
    assert_same_quotient(f, c1, o1)
    for a in f.elements:
        opened, closed = open_congruence(f, a), closed_congruence(f, a)
        o_opened = frame_oracles.open_congruence(f, a)
        o_closed = frame_oracles.closed_congruence(f, a)
        assert opened.classes == o_opened.classes
        assert closed.classes == o_closed.classes
        assert is_complementary(opened, closed) == \
            frame_oracles.is_complementary(o_opened, o_closed)
        assert is_complementary(c2, opened) == \
            frame_oracles.is_complementary(o2, o_opened)
    assert_same_quotient(f, c2, o2)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(SMALL), data=st.data())
def test_congruences_match_the_partition_oracle_on_small_frames(
        small_frames, name, data):
    check_against_oracle(small_frames[name], data)


@settings(max_examples=40, deadline=None)
@given(p=presentations(), data=st.data())
def test_congruences_match_the_partition_oracle_on_random_presentations(
        p, data):
    check_against_oracle(enumerate_frame(p)[0], data)


def test_free_frame_quotient_matches_the_partition_oracle():
    """The quotient acceptance criterion 1 builds, under both
    representations, on the first random presentations of its stream."""
    rng = random.Random(2024)
    for _ in range(4):
        p = random_presentation(rng)
        frame, meets = free_frame_oracle(p.generators)

        def down(m):
            return frozenset(x for x in meets if x >= m)

        pairs = []
        for lhs, rhs in p.covers:
            join = frozenset().union(*(down(t) for t in rhs))
            pairs.append((down(lhs) | join, join))
        assert_same_quotient(frame, congruence_generate(frame, pairs),
                             frame_oracles.congruence_generate(frame, pairs))
