"""The join-prime coproduct and Hausdorff check against the search they
replaced (frame_oracles): the suplattice-tensor fixpoint, and the scan of
f ⊕ f for a congruence-equal closed (open) diagonal witness."""

import json
import time
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import frame_oracles
from conftest import (boolean4, cantor_presentation, chain,
                      free_presentation, m3_diamond_poset, order_pairs,
                      three_chain)
from pointfree.cli import main
from pointfree.config import DEFAULT, Limits
from pointfree.errors import CapExceeded
from pointfree.frames import (FiniteFrame, PresentedFrame, closed_diagonal,
                              coproduct, enumerate_frame, frame_from_order,
                              is_hausdorff)
from pointfree.presentations import FramePresentation

THY = Path(__file__).resolve().parents[1] / "theories"


def _as_frame(lattice):
    return frame_from_order(lattice.elements, lattice.le)


def _frames():
    return {
        "one": frame_from_order(["*"], lambda a, b: True),
        "two": _as_frame(chain(2)),
        "free1": enumerate_frame(free_presentation(1))[0],
        "chain3": _as_frame(three_chain()),
        "bool4": _as_frame(boolean4()),
        "cantor1": enumerate_frame(cantor_presentation(1))[0],
    }


FRAMES = _frames()
PAIRS = list(combinations_with_replacement(sorted(FRAMES), 2))
PAIRS += [(b, a) for a, b in PAIRS if a != b]


@pytest.mark.parametrize("names", PAIRS, ids=["+".join(p) for p in PAIRS])
def test_coproduct_matches_the_tensor_fixpoint(names):
    f, g = FRAMES[names[0]], FRAMES[names[1]]
    tensor, inj1, inj2, rect = coproduct(f, g)
    o_tensor, o_inj1, o_inj2, o_rect = frame_oracles.coproduct(f, g)
    assert tensor.elements == o_tensor.elements
    assert order_pairs(tensor) == order_pairs(o_tensor)
    assert tensor.join_table == o_tensor.join_table
    assert tensor.meet_table == o_tensor.meet_table
    assert inj1.mapping == o_inj1.mapping and inj2.mapping == o_inj2.mapping
    assert all(rect(u, v) == o_rect(u, v)
               for u in f.elements for v in g.elements)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_hausdorff_matches_the_witness_search(name):
    f = FRAMES[name]
    assert is_hausdorff(f) == frame_oracles.is_hausdorff(f)
    assert is_hausdorff(f)[0] == frame_oracles.has_open_diagonal(f)


def test_hausdorff_keeps_the_carrier_cap():
    f = enumerate_frame(free_presentation(2))[0]
    with pytest.raises(CapExceeded) as err:
        is_hausdorff(f)
    assert (err.value.size, err.value.cap) == (36, DEFAULT.coproduct_cap)


def test_coproduct_cap_bounds_the_tensor():
    """cantor N=2 is the 16-element Boolean frame on 4 atoms: |f|·|f| = 256
    is within the raised cap, and f ⊕ f, D of the 16-pair antichain
    J × J, is refused from its count before any downset is listed.  At the
    default cap, the 4-chain with itself (|f|·|f| = 16) is the one pair of
    frames with |J| ≤ 4 whose coproduct is larger: C(6, 3) = 20."""
    f = enumerate_frame(cantor_presentation(2))[0]
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as err:
        coproduct(f, f, limits=Limits(coproduct_cap=256))
    assert time.perf_counter() - start < 1
    assert (err.value.size, err.value.cap) == (2 ** 16, 256)
    c4 = _as_frame(chain(4))
    with pytest.raises(CapExceeded) as err:
        coproduct(c4, c4)
    assert (err.value.size, err.value.cap) == (20, DEFAULT.coproduct_cap)


@st.composite
def presentations(draw):
    """1-3 generators with rules a ∧ b ≤ ⊥, ⊤ ≤ a ∨ b or a ≤ b."""
    gens = [f"g{i}" for i in range(draw(st.integers(1, 3)))]
    gen = st.sampled_from(gens)
    rule = st.one_of(
        st.builds(lambda a, b: ({a, b}, []), gen, gen),
        st.builds(lambda a, b: (set(), [{a}, {b}]), gen, gen),
        st.builds(lambda a, b: ({a}, [{b}]), gen, gen))
    return FramePresentation.make(gens, draw(st.lists(rule, max_size=4)))


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_hausdorff_matches_the_witness_search_on_random_presentations(p):
    f, _ = enumerate_frame(p)
    assume(len(f.elements) ** 2 <= DEFAULT.coproduct_cap)
    verdict, witness = is_hausdorff(f)
    assert (verdict, witness) == frame_oracles.is_hausdorff(f)
    assert verdict == frame_oracles.has_open_diagonal(f)
    # the same routine on the engine's masks, as `frame hausdorff` runs it
    engine = PresentedFrame(p)
    elems, _ = engine.elements()
    m_verdict, m_witness = closed_diagonal(elems, engine.join_primes,
                                           engine.le, int.__and__,
                                           engine.bottom)
    assert m_verdict == verdict
    assert (m_witness is None) == (witness is None)
    if witness is not None:
        assert {(engine.members(u), engine.members(v))
                for u, v in m_witness} == witness


def test_frame_law_is_binary_distributivity():
    m3 = m3_diamond_poset()
    f = FiniteFrame(m3.elements, m3.leq)
    assert f.distributivity_witness() is not None
    assert not frame_oracles.check_frame_distributivity(f)


@pytest.mark.parametrize("n, pairs", [(2, 3 ** 4), (3, 3 ** 8)])
def test_cantor_hausdorff_with_the_cap_raised(capsys, tmp_path, monkeypatch,
                                              n, pairs):
    """Cantor N is the Boolean frame on 2^N atoms, so its witness is every
    pair of disjoint sets of atoms: 3^(2^N) pairs."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coproduct_cap": 65536}))
    monkeypatch.setenv("POINTFREE_CONFIG", str(cfg))
    start = time.perf_counter()
    code = main(["frame", "hausdorff", str(THY / "cantor.thy"),
                 "--truncate", f"N={n}", "--json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["hausdorff"] is True
    assert len(payload["witness"]) == pairs
    assert payload["witness"] == sorted(payload["witness"])
    assert elapsed < 10  # the witness search did not finish N=2 in minutes

