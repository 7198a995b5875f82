"""Shared corpus builders for the test suite."""

import os
from pathlib import Path

import pytest

from pointfree.order import DistLattice, Poset
from pointfree.presentations import FramePresentation

# `python -m pointfree.cli` in a subprocess imports the package from src/
# too, as the tests do through the pytest pythonpath setting
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def chain(n):
    """The n-element chain c0 < c1 < ... as a DistLattice."""
    names = [f"c{i}" for i in range(n)]
    leq = [(names[i], names[j]) for i in range(n) for j in range(n) if i <= j]
    return DistLattice(names, leq)


def boolean4():
    leq = [("0", x) for x in "0ab1"] + [("a", "a"), ("a", "1"),
                                        ("b", "b"), ("b", "1"), ("1", "1")]
    return DistLattice(["0", "a", "b", "1"], leq)


def three_chain():
    return DistLattice(
        ["0", "m", "1"],
        [(a, b) for a in "0m1" for b in "0m1"
         if "0m1".index(a) <= "0m1".index(b)])


def order_pairs(lattice):
    """The order of a lattice as the set of its pairs (a, b) with a <= b."""
    return {(a, b) for a in lattice.elements for b in lattice.elements
            if lattice.le(a, b)}


def m3_diamond_poset():
    return Poset.from_relation(
        ["0", "a", "b", "c", "1"],
        [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])


def cantor_presentation(n):
    gens = [f"{c}{i}" for i in range(n) for c in "zu"]
    covers = []
    for i in range(n):
        covers.append(({f"z{i}", f"u{i}"}, []))
        covers.append((set(), [{f"z{i}"}, {f"u{i}"}]))
    return FramePresentation.make(gens, covers)


def free_presentation(n):
    return FramePresentation.make([f"g{i}" for i in range(n)], [])


@pytest.fixture(scope="session")
def small_frames():
    """Small enumerated frames used across congruence/sublocale tests."""
    from pointfree.frames import enumerate_frame, frame_from_order
    frames = {}
    frames["free1"], _ = enumerate_frame(free_presentation(1))
    frames["free2"], _ = enumerate_frame(free_presentation(2))
    frames["cantor1"], _ = enumerate_frame(cantor_presentation(1))
    frames["cantor2"], _ = enumerate_frame(cantor_presentation(2))
    ch = three_chain()
    frames["chain3"] = frame_from_order(ch.elements, ch.le)
    b4 = boolean4()
    frames["bool4"] = frame_from_order(b4.elements, b4.le)
    return frames
