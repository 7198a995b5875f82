"""Finite frames: enumeration, points, congruences, quotients, coproducts,
Hausdorff, positivity, compactness, and open/closed maps."""

from itertools import combinations

import pytest

import frame_oracles
from conftest import cantor_presentation, free_presentation
from pointfree.errors import CapExceeded, NotACover, PointfreeError
from pointfree.frames import (Congruence, FrameHom, all_pairs_congruence,
                              check_closed_map, check_open_map,
                              closed_congruence, congruence_generate,
                              congruence_intersection, congruence_join,
                              coproduct, diagonal_hom, enumerate_frame,
                              finite_subcover, frame_from_order,
                              frame_to_json_dict, has_open_diagonal,
                              identity_congruence, identity_hom,
                              image_congruence, is_compact_presentation,
                              is_complementary, is_hausdorff, is_positive,
                              open_congruence, point_hom, points,
                              positivity_base, preimage_congruence, quotient,
                              two_element_frame)
from pointfree.order import KFinSet, sort_key
from pointfree.presentations import (FramePresentation, saturate, stabilize)


def one_element_frame():
    return frame_from_order(["*"], lambda a, b: True,
                            lambda a, b: "*", lambda a, b: "*")


# --- enumeration ----------------------------------------------------------------

def test_enumerate_frame_sizes():
    for n, size in [(1, 3), (2, 6)]:
        f, _ = enumerate_frame(free_presentation(n))
        assert len(f.elements) == size
    f, _ = enumerate_frame(cantor_presentation(1))
    assert len(f.elements) == 4


def test_enumerate_frame_cap():
    with pytest.raises(CapExceeded):
        enumerate_frame(free_presentation(9))


def test_enumerated_frames_satisfy_frame_distributivity(small_frames):
    for name in ["free1", "free2", "cantor1", "chain3", "bool4"]:
        assert small_frames[name].check_frame_distributivity()
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
        return t.meet_all(assign[g] for g in sorted(m))

    def ext(e):
        return t.join_all(meet_of(m) for m in sorted(e, key=sort_key))

    hom = FrameHom(f, t, {e: ext(e) for e in f.elements})
    for g in p.generators:
        assert hom(gen_map[g]) == assign[g]


def test_frame_json_export():
    f, _ = enumerate_frame(cantor_presentation(1))
    d = frame_to_json_dict(f, points_list=points(f))
    assert set(d) == {"elements", "leq_pairs", "points"}
    assert len(d["elements"]) == 4
    assert len(d["points"]) == 2


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
    two = two_element_frame()
    f = small_frames["cantor2"]
    for pt in points(f):
        hom = point_hom(f, pt, two)  # FrameHom validates on construction
        assert hom(f.top) == two.top


# --- congruences -------------------------------------------------------------------

def test_congruence_generate_empty_is_identity(small_frames):
    f = small_frames["chain3"]
    assert congruence_generate(f, []).classes == \
        identity_congruence(f).classes


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
    assert not is_complementary(identity_congruence(f),
                                identity_congruence(f))
    assert is_complementary(all_pairs_congruence(f), identity_congruence(f))


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
    q_id, _ = quotient(f, identity_congruence(f))
    assert len(q_id.elements) == len(f.elements)
    q_open, hom = quotient(f, open_congruence(f, "m"))
    assert len(q_open.elements) == 2
    q_all, _ = quotient(f, all_pairs_congruence(f))
    assert len(q_all.elements) == 1
    assert hom(f.top) == q_open.top


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


def test_image_preimage_examples(small_frames):
    f = small_frames["chain3"]
    ident = identity_hom(f)
    c = closed_congruence(f, "m")
    assert image_congruence(ident, c).classes == c.classes
    assert preimage_congruence(ident, identity_congruence(f)).classes == \
        identity_congruence(f).classes
    q, hom = quotient(f, open_congruence(f, "m"))
    got = image_congruence(hom, identity_congruence(q))
    assert got.classes == open_congruence(f, "m").classes


def test_image_preimage_adjunction(small_frames):
    """preimage(c) finer-or-equal d  iff  c finer-or-equal image(d)."""
    f = small_frames["chain3"]
    q, hom = quotient(f, open_congruence(f, "m"))

    def refines(c1, c2):
        return all(any(cls <= cls2 for cls2 in c2.classes)
                   for cls in c1.classes)

    congs_src = [identity_congruence(f), all_pairs_congruence(f)] + \
        [closed_congruence(f, a) for a in f.elements]
    congs_tgt = [identity_congruence(q), all_pairs_congruence(q)] + \
        [open_congruence(q, a) for a in q.elements]
    for c in congs_src:
        for d in congs_tgt:
            assert refines(preimage_congruence(hom, c), d) == \
                refines(c, image_congruence(hom, d))


# --- coproducts ----------------------------------------------------------------------

def test_coproduct_unit_law(small_frames):
    two = two_element_frame()
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
    two = two_element_frame()
    tensor, inj1, inj2, rect = coproduct(two, f)
    for u in two.elements:
        for v in f.elements:
            assert rect(u, v) == tensor.meet(inj1(u), inj2(v))


# --- Hausdorff ------------------------------------------------------------------------

def test_hausdorff_examples(small_frames):
    verdict, witness = is_hausdorff(small_frames["cantor1"])
    assert verdict and witness is not None
    assert has_open_diagonal(small_frames["cantor1"])
    verdict, witness = is_hausdorff(small_frames["chain3"])
    assert not verdict and witness is None
    assert is_hausdorff(one_element_frame())[0]
    assert not is_hausdorff(small_frames["free1"])[0]


def test_diagonal_hom_is_a_frame_hom(small_frames):
    tensor, delta = diagonal_hom(small_frames["chain3"])
    assert delta(tensor.top) == small_frames["chain3"].top


# --- positivity / compactness ------------------------------------------------------------

def test_positivity_examples(small_frames):
    f = small_frames["bool4"]
    assert not is_positive(f, f.bottom)
    assert is_positive(f, "a") and is_positive(f, "b")
    one = one_element_frame()
    assert not is_positive(one, one.top)


def test_positivity_scan_agrees_with_nonbottom_shortcut(small_frames):
    for name in ["chain3", "bool4", "cantor1", "free2"]:
        f = small_frames[name]
        for u in f.elements:
            assert frame_oracles.is_positive(f, u) == (u != f.bottom)
            assert is_positive(f, u) == (u != f.bottom)
    with pytest.raises(PointfreeError):
        is_positive(small_frames["bool4"], "nowhere")


def test_positivity_base(small_frames):
    f = small_frames["bool4"]
    assert set(positivity_base(f)) == {"a", "b", "1"}
    for f in small_frames.values():  # each element joins the base below it
        base = positivity_base(f)
        assert all(f.join_all(b for b in base if f.le(b, u)) == u
                   for u in f.elements)


def test_finite_subcover_examples(small_frames):
    f = small_frames["bool4"]
    assert finite_subcover(f, [f.top]) == KFinSet((f.top,))
    assert finite_subcover(f, ["a", "b", f.top]) == KFinSet((f.top,))
    assert finite_subcover(f, ["a", "b"]) == KFinSet(("a", "b"))
    with pytest.raises(NotACover):
        finite_subcover(f, ["a"])


def test_finite_subcover_is_exact_and_empty_on_the_trivial_frame(
        small_frames):
    """A cover of top with no smaller one among the given elements; in the
    one-element frame the empty set already covers top."""
    for f in small_frames.values():
        s = [u for u in f.elements if u not in (f.bottom, f.top)]
        if f.join_all(s) != f.top:
            continue
        got = finite_subcover(f, s).canonical
        assert f.join_all(got) == f.top
        assert not any(f.join_all(c) == f.top
                       for c in combinations(s, len(got) - 1))
    one = frame_from_order(["1"], lambda a, b: True, lambda a, b: "1",
                           lambda a, b: "1")
    assert finite_subcover(one, ["1"]) == KFinSet(())


def test_compactness_examples():
    for n in (1, 2):
        report = is_compact_presentation(cantor_presentation(n))
        assert report["compact"] and report["verified"]
    report = is_compact_presentation(free_presentation(2))
    assert report["compact"] and report["verification"] == "exhaustive"
    collapsed = FramePresentation.make(["g"], [((), [])])  # top <= bot
    report = is_compact_presentation(collapsed)
    assert report["compact"] and report["verified"]


# --- open / closed maps ---------------------------------------------------------------------

def test_identity_hom_is_open_and_closed(small_frames):
    h = identity_hom(small_frames["bool4"])
    assert check_open_map(h) and check_closed_map(h)


def test_quotient_by_open_congruence_is_open(small_frames):
    f = small_frames["chain3"]
    q, hom = quotient(f, open_congruence(f, "m"))
    assert check_open_map(hom)
    assert not check_closed_map(hom)


def test_quotient_by_closed_congruence_is_closed(small_frames):
    f = small_frames["chain3"]
    q, hom = quotient(f, closed_congruence(f, "m"))
    assert check_closed_map(hom)


def test_frame_hom_validation_rejects_non_homs(small_frames):
    f = small_frames["chain3"]
    with pytest.raises(PointfreeError):
        FrameHom(f, f, {u: f.top for u in f.elements})  # breaks bottom
    two = two_element_frame()
    with pytest.raises(PointfreeError):
        # monotone but join-breaking: collapse everything except top
        FrameHom(small_frames["bool4"], two,
                 {"0": "0", "a": "0", "b": "0", "1": "1"})


def test_adjoints_satisfy_adjunctions(small_frames):
    f = small_frames["chain3"]
    q, hom = quotient(f, open_congruence(f, "m"))
    for b in q.elements:
        la = hom.left_adjoint(b)
        ra = hom.right_adjoint(b)
        for a in f.elements:
            assert (f.le(la, a)) == (q.le(b, hom(a)))
            assert (q.le(hom(a), b)) == (f.le(a, ra))
