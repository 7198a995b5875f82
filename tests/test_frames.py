"""Finite frames: enumeration, points, congruences, quotients, coproducts,
Hausdorff, positivity, compactness, and frame homomorphisms."""

import functools
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

import frame_oracles
from conftest import cantor_presentation, chain, free_presentation
from test_congruences import presentations
from pointfree import frames
from pointfree.errors import CapExceeded, PointfreeError
from pointfree.frames import (FrameHom, closed_congruence, congruence_generate,
                              congruence_intersection, congruence_join,
                              coproduct, enumerate_frame, frame_from_order,
                              is_compact_presentation, is_complementary,
                              is_hausdorff, open_congruence, points, quotient)
from pointfree.order import sort_key
from pointfree.presentations import (FramePresentation, saturate, stabilize)


def one_element_frame():
    return frame_from_order(["*"], lambda a, b: True)


# --- enumeration ----------------------------------------------------------------

@pytest.mark.parametrize("le, message", [
    (lambda x, y: x == y or x == "0",
     "join of a and b does not exist uniquely"),
    (lambda x, y: x == "0" or y != "0", "leq is not antisymmetric")],
    ids=["no join", "preorder"])
def test_frame_from_order_refuses_an_order_that_is_no_lattice(le, message):
    """0 < a and 0 < b with a, b incomparable have no upper bound, and the
    first pair without a join is refused; with a ≤ b ≤ a, a and b have one
    down-set, so no mask names either."""
    with pytest.raises(PointfreeError, match=f"^{message}$"):
        frame_from_order("0ab", le)


def test_enumerate_frame_sizes():
    for n, size in [(1, 3), (2, 6)]:
        f, _ = enumerate_frame(free_presentation(n))
        assert len(f.elements) == size
    f, _ = enumerate_frame(cantor_presentation(1))
    assert len(f.elements) == 4


def test_enumerate_frame_cap():
    with pytest.raises(CapExceeded):
        enumerate_frame(free_presentation(9))


def test_enumerate_frame_refuses_past_element_cap():
    """Cantor N=4 has 65,536 elements, counted before any is listed."""
    with pytest.raises(CapExceeded, match=r"frame elements has size 65536, "
                                          r"exceeding cap 4096 "):
        enumerate_frame(cantor_presentation(4))


def test_enumerated_frames_satisfy_frame_distributivity(small_frames):
    for name in ["free1", "free2", "cantor1", "chain3", "bool4"]:
        assert small_frames[name].distributivity_witness() is None
        assert frame_oracles.check_frame_distributivity(small_frames[name])


def test_generator_embedding_lands_in_frame():
    p = stabilize(cantor_presentation(2))
    f, gen_map = enumerate_frame(p)
    for g in p.generators:
        assert gen_map[g] in f._index
        assert gen_map[g] == saturate(p, [frozenset([g])]).members


def test_universal_property_against_a_target_frame(small_frames):
    """An assignment of generators satisfying the covers extends uniquely
    (by joins of meets) to a frame hom out of the enumerated frame."""
    p = stabilize(cantor_presentation(1))
    f, gen_map = enumerate_frame(p)
    t = small_frames["bool4"]
    assign = {"z0": "a", "u0": "b"}

    def meet_of(m):
        return functools.reduce(t.meet, (assign[g] for g in sorted(m)), t.top)

    def ext(e):
        return t.join_all(meet_of(m) for m in sorted(e, key=sort_key))

    hom = FrameHom(f, t, {e: ext(e) for e in f.elements})
    for g in p.generators:
        assert hom.mapping[gen_map[g]] == assign[g]


# --- points ----------------------------------------------------------------------

def brute_force_points(f):
    """Literal scan: subsets with top, without bottom, upward closed,
    meet closed, and splitting arbitrary joins."""
    elems = list(f.elements)
    out = []
    for n in range(len(elems) + 1):
        for sub in combinations(elems, n):
            filt = frozenset(sub)
            if f.top not in filt or f.bottom in filt:
                continue
            if any(f.le(a, b) and b not in filt
                   for a in filt for b in elems):
                continue
            if any(f.meet(a, b) not in filt for a in filt for b in filt):
                continue
            ok = True
            for k in range(len(elems) + 1):
                for join_sub in combinations(elems, k):
                    if f.join_all(join_sub) in filt and \
                            not any(s in filt for s in join_sub):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(filt)
    return sorted(out, key=sort_key)


def test_points_examples(small_frames):
    assert points(one_element_frame()) == []
    assert len(points(small_frames["free1"])) == 2
    assert len(points(small_frames["cantor1"])) == 2
    assert len(points(small_frames["cantor2"])) == 4


def test_points_match_brute_force(small_frames):
    for name in ["free1", "free2", "cantor1", "chain3", "bool4"]:
        f = small_frames[name]
        assert points(f) == brute_force_points(f)


def test_each_point_induces_a_frame_hom(small_frames):
    two = chain(2)
    f = small_frames["cantor2"]
    for pt in points(f):
        # FrameHom validates on construction
        hom = FrameHom(f, two, {u: two.top if u in pt else two.bottom
                                for u in f.elements})
        assert hom.mapping[f.top] == two.top


# --- congruences -------------------------------------------------------------------

def test_congruence_generate_empty_is_identity(small_frames):
    f = small_frames["chain3"]
    assert congruence_generate(f, []).is_identity()


def test_generated_open_and_closed_congruences(small_frames):
    for name in ["chain3", "bool4", "cantor1", "free2"]:
        f = small_frames[name]
        for a in f.elements:
            assert congruence_generate(f, [(a, f.top)]).classes == \
                open_congruence(f, a).classes
            assert congruence_generate(f, [(f.bottom, a)]).classes == \
                closed_congruence(f, a).classes


def test_open_closed_congruence_examples(small_frames):
    f = small_frames["chain3"]
    assert open_congruence(f, f.top).is_identity()
    assert closed_congruence(f, f.top).is_all_pairs()
    assert open_congruence(f, f.bottom).is_all_pairs()
    oc = open_congruence(f, "m")
    cc = closed_congruence(f, "m")
    assert set(map(frozenset, oc.classes)) == \
        {frozenset({"0"}), frozenset({"m", "1"})}
    assert set(map(frozenset, cc.classes)) == \
        {frozenset({"0", "m"}), frozenset({"1"})}


def test_complement_examples(small_frames):
    f = small_frames["chain3"]
    identity = open_congruence(f, f.top)
    all_pairs = closed_congruence(f, f.top)
    assert not is_complementary(identity, identity)
    assert is_complementary(all_pairs, identity)


def test_open_closed_are_mutual_complements(small_frames):
    for name in ["chain3", "bool4", "cantor1", "free2"]:
        f = small_frames[name]
        for a in f.elements:
            assert is_complementary(open_congruence(f, a),
                                    closed_congruence(f, a))


def test_closed_congruence_map_preserves_meets_and_joins(small_frames):
    for name in ["chain3", "bool4", "cantor1"]:
        f = small_frames[name]
        for a in f.elements:
            for b in f.elements:
                meet_c = congruence_intersection(closed_congruence(f, a),
                                                 closed_congruence(f, b))
                assert meet_c.classes == \
                    closed_congruence(f, f.meet(a, b)).classes
                join_c = congruence_join(closed_congruence(f, a),
                                         closed_congruence(f, b))
                assert join_c.classes == \
                    closed_congruence(f, f.join(a, b)).classes


def test_quotient_examples(small_frames):
    f = small_frames["chain3"]
    q_id, _ = quotient(f, open_congruence(f, f.top))
    assert len(q_id.elements) == len(f.elements)
    q_open, hom = quotient(f, open_congruence(f, "m"))
    assert len(q_open.elements) == 2
    q_all, _ = quotient(f, closed_congruence(f, f.top))
    assert len(q_all.elements) == 1
    assert hom.mapping[f.top] == q_open.top


def test_quotients_of_open_and_closed_have_expected_sizes(small_frames):
    for name in ["chain3", "bool4", "cantor1"]:
        f = small_frames[name]
        for a in f.elements:
            down_a = [x for x in f.elements if f.le(x, a)]
            up_a = [x for x in f.elements if f.le(a, x)]
            q, _ = quotient(f, open_congruence(f, a))
            assert len(q.elements) == len(down_a)
            q, _ = quotient(f, closed_congruence(f, a))
            assert len(q.elements) == len(up_a)


def test_unknown_elements_are_refused_by_congruences(small_frames):
    f = small_frames["chain3"]
    c = open_congruence(f, "m")
    for call in (lambda: c.largest("x"),
                 lambda: congruence_generate(f, [("0", "x")]),
                 lambda: open_congruence(f, "x"),
                 lambda: closed_congruence(f, "x")):
        with pytest.raises(PointfreeError, match="unknown element 'x'"):
            call()


# --- coproducts ----------------------------------------------------------------------

def test_coproduct_unit_law(small_frames):
    two = chain(2)
    for name in ["chain3", "bool4", "free1"]:
        l = small_frames.get(name) or small_frames["free1"]
        tensor, inj1, inj2, rect = coproduct(two, l)
        assert len(tensor.elements) == len(l.elements)

        def collapse(d):
            return l.join_all(v for (u, v) in sorted(d, key=sort_key)
                              if u == two.top)

        seen = {collapse(d) for d in tensor.elements}
        assert seen == set(l.elements)
        for a in tensor.elements:
            for b in tensor.elements:
                assert (a <= b) == l.le(collapse(a), collapse(b))


def test_coproduct_of_cantor1_with_itself_is_boolean16(small_frames):
    f = small_frames["cantor1"]
    tensor, inj1, inj2, rect = coproduct(f, f)
    assert len(tensor.elements) == 16
    assert len(points(tensor)) == 4


def test_coproduct_with_one_element_frame(small_frames):
    tensor, _, _, _ = coproduct(one_element_frame(), small_frames["chain3"])
    assert len(tensor.elements) == 1


def test_coproduct_cap(small_frames):
    with pytest.raises(CapExceeded):
        coproduct(small_frames["free2"], small_frames["free2"])


def test_injections_are_frame_homs_and_rectangles_factor(small_frames):
    f = small_frames["chain3"]
    two = chain(2)
    tensor, inj1, inj2, rect = coproduct(two, f)
    for u in two.elements:
        for v in f.elements:
            assert rect(u, v) == tensor.meet(inj1.mapping[u],
                                             inj2.mapping[v])


# --- Hausdorff ------------------------------------------------------------------------

def test_hausdorff_examples(small_frames):
    verdict, witness = is_hausdorff(small_frames["cantor1"])
    assert verdict and witness is not None
    verdict, witness = is_hausdorff(small_frames["chain3"])
    assert not verdict and witness is None
    assert is_hausdorff(one_element_frame())[0]
    assert not is_hausdorff(small_frames["free1"])[0]


# --- positivity / compactness ------------------------------------------------------------

def test_positivity_examples(small_frames):
    """u is positive when every cover of it is inhabited.  Only the empty
    cover can fail, and it covers exactly ⊥, so this is J ∩ ↓u ≠ ∅."""
    f = small_frames["bool4"]
    assert not f.j_below[f.bottom]
    assert f.j_below["a"] and f.j_below["b"]
    one = one_element_frame()
    assert not one.j_below[one.top]


def test_positivity_scan_agrees_with_nonbottom_shortcut(small_frames):
    for name in ["chain3", "bool4", "cantor1", "free2"]:
        f = small_frames[name]
        for u in f.elements:
            assert frame_oracles.is_positive(f, u) == (u != f.bottom)
            assert bool(f.j_below[u]) == (u != f.bottom)
    with pytest.raises(PointfreeError):
        small_frames["bool4"].j_below["nowhere"]


COMPACT = {"certificate": "finite frame: every directed cover of top "
                          "contains top", "compact": True, "verified": True}


def test_compactness_examples():
    collapsed = FramePresentation.make(["g"], [((), [])])  # top <= bot
    for p in [cantor_presentation(1), cantor_presentation(2),
              free_presentation(2), collapsed]:
        assert is_compact_presentation(p) == COMPACT


# each small frame as a presentation of it: chain3 is the Sierpiński
# frame, free on one generator, and bool4 is the two-point discrete one
SMALL_PRESENTATIONS = {
    "free1": free_presentation(1), "free2": free_presentation(2),
    "cantor1": cantor_presentation(1), "cantor2": cantor_presentation(2),
    "chain3": free_presentation(1), "bool4": cantor_presentation(1)}


def test_directed_cover_scan_agrees_with_compactness(small_frames):
    for name, p in SMALL_PRESENTATIONS.items():
        f = small_frames[name]
        assert len(frame_oracles.enumerate_frame(p).elements) == \
            len(f.elements)
        assert frame_oracles.compact_by_directed_covers(f) == \
            is_compact_presentation(p)["compact"]


@settings(deadline=None)
@given(presentations())
def test_directed_cover_scan_agrees_on_random_presentations(p):
    f = frame_oracles.enumerate_frame(p)
    assert frame_oracles.compact_by_directed_covers(f) == \
        is_compact_presentation(p)["compact"]


def test_compactness_lists_no_elements(monkeypatch):
    """The certificate comes from the theorem: no PresentedFrame is built,
    and generator_cap still refuses before anything else."""
    def refuse(*args, **kwargs):
        raise AssertionError("a PresentedFrame was built")

    monkeypatch.setattr("pointfree.presentations.PresentedFrame", refuse)
    assert is_compact_presentation(cantor_presentation(4)) == COMPACT
    with pytest.raises(CapExceeded):
        is_compact_presentation(free_presentation(9))


# --- frame homomorphisms --------------------------------------------------------------------

def test_frame_hom_validation_rejects_non_homs(small_frames):
    f = small_frames["chain3"]
    with pytest.raises(PointfreeError):
        FrameHom(f, f, {u: f.top for u in f.elements})  # breaks bottom
    two = chain(2)
    with pytest.raises(PointfreeError):
        # monotone but join-breaking: collapse everything except top
        FrameHom(small_frames["bool4"], two,
                 {"0": "c0", "a": "c0", "b": "c0", "1": "c1"})


def _homs(frames):
    """Point, identity and quotient homs of each frame, and the coproduct
    injections of each pair within coproduct_cap."""
    two = chain(2)
    for f in frames.values():
        yield FrameHom(f, f, {u: u for u in f.elements})
        yield from (FrameHom(f, two, {u: two.top if u in pt else two.bottom
                                      for u in f.elements})
                    for pt in points(f))
        for a in f.elements:
            for c in (open_congruence(f, a), closed_congruence(f, a)):
                yield quotient(f, c)[1]
    for f in frames.values():
        for g in frames.values():
            try:
                yield from coproduct(f, g)[1:3]
            except CapExceeded:
                pass


def test_frame_hom_check_on_j_matches_the_pairwise_check(small_frames):
    """Both checks accept every hom, and agree on each hom with one value
    reassigned and with two values swapped, at random."""
    rng = random.Random(0)

    def accepted(h, mapping):
        try:
            FrameHom(h.source, h.target, mapping)
        except PointfreeError:
            verdict = False
        else:
            verdict = True
        assert verdict == frame_oracles.is_frame_hom(h.source, h.target,
                                                     mapping)
        return verdict

    refused = 0
    for h in _homs(small_frames):
        assert accepted(h, h.mapping)
        elems, values = h.source.elements, h.target.elements
        for _ in range(4):
            m = dict(h.mapping)
            m[rng.choice(elems)] = rng.choice(values)
            refused += not accepted(h, m)
            u, v = rng.sample(elems, 2) if len(elems) > 1 else elems * 2
            m = dict(h.mapping)
            m[u], m[v] = m[v], m[u]
            refused += not accepted(h, m)
    assert refused > 100

