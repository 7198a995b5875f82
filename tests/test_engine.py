"""The bitmask frame engine against the algorithms it replaced
(frame_oracles): elements, Hasse edges and points, in order."""

import pytest
from hypothesis import assume, given, settings, strategies as st

import frame_oracles
from conftest import cantor_presentation, free_presentation
from pointfree.errors import CapExceeded, PointfreeError
from pointfree.frames import PresentedFrame, enumerate_frame, points
from pointfree.order import sort_key
from pointfree.presentations import FramePresentation, saturate, stabilize


@st.composite
def presentations(draw):
    gens = [f"g{i}" for i in range(draw(st.integers(1, 5)))]
    meet = st.frozensets(st.sampled_from(gens), min_size=1, max_size=3)
    rules = draw(st.lists(st.tuples(meet, st.frozensets(meet, max_size=3)),
                          max_size=6))
    # covers of top by two or more meets, as in the Cantor theory
    rules += draw(st.lists(st.tuples(st.just(frozenset()),
                                     st.frozensets(meet, min_size=2,
                                                   max_size=3)),
                           max_size=2))
    return FramePresentation.make(gens, rules)


def oracle_listing(p, f):
    """Each oracle point as the sorted generators it contains."""
    gen_map = {g: saturate(p, [frozenset([g])]).members
               for g in p.generators}
    return [sorted(g for g in p.generators if gen_map[g] in pt)
            for pt in frame_oracles.points(f)]


def check_against_oracles(p):
    p = stabilize(p)
    engine = PresentedFrame(p)
    oracle = frame_oracles.enumerate_frame(p)
    elems, edges = engine.elements()
    assert [engine.cideal(e) for e in elems] == \
        sorted(oracle.elements, key=sort_key)
    assert [(engine.cideal(a), engine.cideal(b)) for a, b in edges] == \
        frame_oracles.hasse_edges(oracle)
    assert engine.points() == oracle_listing(p, oracle)
    assert (engine.bottom != engine.top) == (oracle.bottom != oracle.top)
    frame, _ = enumerate_frame(p)
    assert frame.elements == tuple(sorted(oracle.elements, key=sort_key))
    assert set(frame._leq) == set(oracle._leq)
    assert points(frame) == frame_oracles.points(oracle)


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_engine_matches_oracles_on_random_presentations(p):
    # at most 2^6 elements, so the O(n³) oracles stay quick
    assume(len(PresentedFrame(p).join_primes) <= 6)
    check_against_oracles(p)


@pytest.mark.parametrize("p", [free_presentation(1), free_presentation(3),
                               cantor_presentation(1), cantor_presentation(2),
                               FramePresentation.make(["a"], [({"a"}, [])])],
                         ids=["free1", "free3", "cantor1", "cantor2",
                              "trivial"])
def test_engine_matches_oracles_on_examples(p):
    check_against_oracles(p)


def test_engine_cantor_at_the_generator_cap():
    """Cantor N=4: 8 generators, 65,536 elements, 16 points, found
    without enumerating the frame."""
    engine = PresentedFrame(cantor_presentation(4))
    pts = engine.points()
    assert len(pts) == 16 and len(engine.join_primes) == 16
    assert pts[0] == ["u0", "u1", "u2", "u3"]
    assert all(len(pt) == 4 for pt in pts)


def test_engine_cap():
    with pytest.raises(CapExceeded):
        PresentedFrame(free_presentation(9))


def test_engine_rejects_a_point_that_breaks_a_rule():
    """The certificate check on points: top is not join-prime in cantor
    N=1 (top = z0 ∨ u0), and its truth assignment breaks top ≤ z0 ∨ u0."""
    engine = PresentedFrame(cantor_presentation(1))
    engine.join_primes.append(engine.top)
    with pytest.raises(PointfreeError):
        engine.points()
