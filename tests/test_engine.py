"""The model-set C-ideals and the bitmask frame engine against the
algorithms they replaced (frame_oracles): saturation and the C-ideal
algebra against the Horn closure, the join-primes from the model search,
elements, Hasse edges and points, in order."""

import functools
import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import frame_oracles
from frame_oracles import meet_key
from conftest import cantor_presentation, free_presentation, order_pairs
import pointfree
import pointfree.theories  # patched below; no other import here loads it
from pointfree import frames
from pointfree.cli import main, parsed_input
from pointfree.errors import CapExceeded, PointfreeError
from pointfree.frames import PresentedFrame, enumerate_frame, points
from pointfree.order import sort_key
from pointfree.presentations import (TOP_MEET, FramePresentation,
                                     check_positivity_certificate,
                                     find_models, meet_str,
                                     presented_frame, saturate, set_bits,
                                     stabilize)

THY = Path(__file__).resolve().parents[1] / "theories"

EXAMPLES = [free_presentation(1), free_presentation(3), cantor_presentation(1),
            cantor_presentation(2), cantor_presentation(3),
            cantor_presentation(4),
            FramePresentation.make(["a"], [({"a"}, [])])]
EXAMPLE_IDS = ["free1", "free3", "cantor1", "cantor2", "cantor3", "cantor4",
               "trivial"]


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


def key_mask(p, meets):
    """Distinct formal meets as a mask in key layout, the meet of
    generator set s at bit 2^g - 1 - s: the layout of the engine's
    C-ideal masks."""
    bit = {g: 1 << i for i, g in enumerate(p.generators)}
    last = (1 << len(p.generators)) - 1
    return sum(1 << last - sum(map(bit.get, m)) for m in meets)


def basis(members):
    """The maximal members of a C-ideal: none of their proper sub-meets
    is a member."""
    return {m for m in members if not any(m - {g} in members for g in m)}


def name_meets(name):
    """The formal meets a C-ideal name lists, in its order."""
    return [TOP_MEET if part == "top" else frozenset(part.split(" & "))
            for part in name[1:-1].split(", ") if part]


def oracle_listing(p, f):
    """Each oracle point as the sorted generators it contains."""
    gen_map = {g: frame_oracles.saturate(p, [frozenset([g])])
               for g in p.generators}
    return [sorted(g for g in p.generators if gen_map[g] in pt)
            for pt in frame_oracles.points(f)]


@settings(max_examples=100, deadline=None)
@given(presentations(), st.data())
def test_saturate_matches_the_fixpoint_oracle(p, data):
    p = stabilize(p)
    meets = p.all_meets()
    seeds = data.draw(st.lists(st.sets(st.sampled_from(meets), max_size=4),
                               min_size=1, max_size=4))
    for seed in seeds:
        assert saturate(p, seed).members == frame_oracles.saturate(p, seed)
    a, b = (saturate(p, seed) for seed in (seeds[0], seeds[-1]))
    assert saturate(p, seeds[0] | seeds[-1]).members == \
        frame_oracles.saturate(p, a.members | b.members)


@settings(max_examples=100, deadline=None)
@given(presentations(), st.data())
def test_model_sets_match_the_horn_closure(p, data):
    """Saturation, joins, generator images, bottom, top, order, names
    and positivity verdicts on model sets, on the
    covers as given and stabilized, against the Horn closure of the
    stabilized presentation: its masks moved to key layout, and each
    name the maximal members of its C-ideal in meet_key order."""
    q = stabilize(p)
    h = frame_oracles.closure(q)
    seeds = data.draw(st.lists(st.sets(st.sampled_from(h.meets), max_size=4),
                               min_size=2, max_size=4))
    want = [h.saturate(h.mask(seed)) for seed in seeds]

    def layout(mask):  # an oracle mask, over meets in meet_key order
        return key_mask(q, h.cideal(mask))
    for r in (p, q):
        cs = [saturate(r, seed) for seed in seeds]
        assert [c.mask for c in cs] == list(map(layout, want))
        assert saturate(r, []).mask == layout(h.bottom)
        assert saturate(r, [TOP_MEET]).mask == layout(h.top)
        for g in r.generators:
            assert saturate(r, [frozenset([g])]).mask == \
                layout(h.saturate(h.mask([frozenset([g])])))
        assert saturate(r, set().union(*seeds)).mask == \
            layout(h.saturate(functools.reduce(int.__or__, want)))
        a, b = cs[0], cs[-1]
        wa, wb = want[0], want[-1]
        assert (a <= b) == (wa & ~wb == 0)
        assert str(a) == "{" + ", ".join(
            meet_str(m) for m in sorted(basis(h.cideal(wa)),
                                        key=meet_key)) + "}"
    # the positive meets, those outside bottom, and mutants of them
    positive = {m for m, down in zip(h.meets, h.down) if down & ~h.bottom}
    flips = data.draw(st.sets(st.sampled_from(h.meets), max_size=2))
    for cand in (positive, positive ^ flips, set(h.meets)):
        want = frame_oracles.check_positivity_certificate(q, cand)
        assert check_positivity_certificate(p, cand) == want
        assert check_positivity_certificate(q, cand) == want


@st.composite
def certificate_cases(draw):
    """A presentation of at most 4 generators, and a candidate set: the
    subsets of its models (the positive meets, found by a scan of every
    set of generators) or of some drawn meets, so subset-closed, with one
    meet removed, or added, in some draws: one whose proper subsets are
    all candidates, so that the set stays subset-closed, where there is
    one."""
    gens = [f"g{i}" for i in range(draw(st.integers(1, 4)))]
    meet = st.frozensets(st.sampled_from(gens), max_size=3)
    p = FramePresentation.make(gens, draw(st.lists(
        st.tuples(meet, st.frozensets(meet, max_size=3)), max_size=5)))
    models = [s for s in p.all_meets() if all(
        not lhs <= s or any(t <= s for t in rhs) for lhs, rhs in p.covers)]
    tops = draw(st.sampled_from([models, models,
                                 draw(st.lists(meet, max_size=4))]))
    cand = {frozenset(c) for m in tops
            for n in range(len(m) + 1) for c in combinations(sorted(m), n)}
    flip = draw(st.sampled_from(["none", "add", "add", "remove"]))
    if flip == "add":
        closed = [m for m in p.all_meets() if m not in cand
                  and all(m - {g} in cand for g in m)]
        cand.add(draw(st.sampled_from(closed or p.all_meets())))
    elif flip == "remove" and cand:
        cand.discard(draw(st.sampled_from(sorted(cand, key=meet_key))))
    return p, cand


# c ≤ a and a & b ≤ ⊥, with the positive meets and b & c, which no model
# holds, as candidates: each given cover with a candidate left side has a
# candidate on its right (c ≤ a), but the stabilized cover b & c ≤ a & b & c
# has none
STABLE_ONLY = (FramePresentation.make("abc", [("c", ["a"]), ("ab", [])]),
               {frozenset(m) for m in ["", "a", "b", "c", "ac", "bc"]})


def test_certificate_matches_the_stabilized_oracle():
    """The certificate on the covers as given against the same conditions
    on the stabilized covers, over 300 derandomized cases and one that
    only the stabilized covers reject, which reach an accepted certificate
    and a rejection by each of (i), (ii) and (iii)."""
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None,
              database=None)
    @example(STABLE_ONLY)
    @given(certificate_cases())
    def compare(case):
        p, cand = case
        failure = frame_oracles.certificate_failure(p, cand)
        assert check_positivity_certificate(p, cand) == (failure is None)
        seen.add(failure)

    compare()
    assert seen == {None, "i", "ii", "iii"}


def by_size(pts):
    """Points in meet_key order: by number of generators, then by the
    sorted generator list."""
    return sorted(pts, key=lambda pt: (len(pt), pt))


def check_search_against_principal_scan(p):
    """J masks (moved to key layout), points in meet_key order and
    nontriviality from the model search, on the covers as given and
    stabilized, against the principal scan; and J kept along a linear
    extension, which counting needs: each join-prime has only lower
    indices strictly below it, and is those and itself, the up-set of
    its model."""
    js, pts, nontrivial = frame_oracles.principal_scan(p)
    for q in (p, stabilize(p)):
        engine = PresentedFrame(q)
        assert {engine.mask(j) for j in engine.join_primes} == \
            {key_mask(p, map(p.all_meets().__getitem__, set_bits(j)))
             for j in js}
        assert engine.points() == by_size(pts)
        assert bool(pts) == nontrivial == (engine.bottom != engine.top)
        assert all(below >> k == 0 for k, below in enumerate(engine._below))
        assert engine.join_primes == [engine.models_of([q])
                                      for q in engine.models]


@settings(max_examples=150, deadline=None)
@given(presentations())
def test_model_search_matches_the_principal_scan(p):
    check_search_against_principal_scan(p)


@pytest.mark.parametrize("p", EXAMPLES, ids=EXAMPLE_IDS)
def test_model_search_matches_the_principal_scan_on_examples(p):
    check_search_against_principal_scan(p)


@st.composite
def with_tautologies(draw):
    """A presentation, and it again with tautologies added: covers with a
    right-side meet inside the left side (top inside any)."""
    p = draw(presentations())
    meet = st.frozensets(st.sampled_from(p.generators), max_size=3)
    added = []
    for lhs in draw(st.lists(meet, min_size=1, max_size=4)):
        inside = draw(st.frozensets(st.sampled_from(sorted(lhs)))
                      if lhs else st.just(frozenset()))
        added.append((lhs, {inside, *draw(st.frozensets(meet, max_size=2))}))
    return p, FramePresentation.make(p.generators, [*p.covers, *added])


@settings(max_examples=150, deadline=None)
@given(with_tautologies())
def test_model_search_skips_tautologies(pair):
    """The search skips the tautologies, which every assignment satisfies:
    its models are the principal scan's points, and those without them;
    points() checks each against every cover, the tautologies included."""
    p, q = pair
    assert any(t & ~lhs == 0 for lhs, rhs in q.rules for t in rhs)
    _, pts, _ = frame_oracles.principal_scan(q)
    assert sorted([q.generators[i] for i in set_bits(m)]
                  for m in find_models(q)) == sorted(pts)
    assert find_models(q) == find_models(p)
    assert PresentedFrame(q).points() == PresentedFrame(p).points()


def test_model_search_reads_the_covers_as_given():
    """A model of the covers is one of their meet-stabilization, so the
    search finds the same models either way.  Cantor N=2 has four, over
    the sorted generators u0, u1, z0, z1: one of u_i, z_i for each i."""
    p = cantor_presentation(2)
    assert sorted(find_models(p)) == sorted(find_models(stabilize(p))) == \
        [0b0011, 0b0110, 0b1001, 0b1100]
    # top covered by nothing (top <= bot) has no model
    assert find_models(FramePresentation.make(["a"], [(set(), [])])) == []


def test_key_orders_masks_as_their_sorted_members():
    """Masks in key layout over 2^9 formal meets, bit b the meet of
    generator set 511 - b, in the order of their members' generator sets,
    sorted: by size, then the mask holding the least set where they
    differ first."""
    masks = [0, 1, 2, 3, 5, 6, 9, 12, 0b1011, 0b1101, 0b0111, 1 << 300,
             (1 << 300) | 1, (1 << 300) | 2, 1 << 511, (1 << 512) - 1]
    assert sorted(masks, key=PresentedFrame.key) == sorted(
        masks, key=lambda m: (m.bit_count(),
                              sorted(511 - b for b in set_bits(m))))


def mirror(mask, g):
    """A mask over the 2^g formal meets moved between subset order and key
    layout: bit s to bit 2^g - 1 - s, and back."""
    return int(format(mask, f"0{1 << g}b")[::-1], 2)


@st.composite
def subset_masks(draw):
    """Masks in subset order over the 2^g formal meets, g at most 8 (up to
    256 bits): drawn ones, each with one set bit moved (a mask of the same
    size), bottom and top."""
    g = draw(st.integers(0, 8))
    full = (1 << (1 << g)) - 1
    masks = draw(st.lists(st.integers(0, full), min_size=1, max_size=6))
    for m in list(masks):
        if 0 < m.bit_count() < 1 << g:
            i = draw(st.sampled_from(list(set_bits(m))))
            j = draw(st.sampled_from(list(set_bits(full & ~m))))
            masks.append(m ^ 1 << i ^ 1 << j)
    return g, masks + [0, full]


@settings(max_examples=200, deadline=None)
@given(subset_masks())
@example((0, [1]))
@example((2, [0b0110, 0b1001, 0b0101, 0b1010, 0b0011, 0b1100]))
def test_key_orders_masks_as_the_string_key_oracle(case):
    """PresentedFrame.key on masks in key layout orders every pair as the
    string key of frame_oracles orders them in subset order."""
    g, masks = case
    engine = {m: PresentedFrame.key(mirror(m, g)) for m in masks}
    oracle = {m: frame_oracles.element_key(m) for m in masks}
    for a in masks:
        for b in masks:
            assert (engine[a] < engine[b]) == (oracle[a] < oracle[b])
            assert (engine[a] == engine[b]) == (a == b)


@settings(max_examples=100, deadline=None)
@given(presentations())
def test_single_names_match_the_listed_names(p):
    """The name of each up-set on a fresh frame, which has listed nothing
    and so builds each C-ideal mask alone, is the name elements() gives
    it, as is its mask."""
    assume(PresentedFrame(p).count_downsets() <= 512)
    listed = PresentedFrame(p)
    elems, _ = listed.elements()
    want = list(map(listed.name, elems))
    fresh = PresentedFrame(p)
    assert [fresh.name(u) for u in elems] == want
    assert list(map(fresh.mask, elems)) == list(map(listed.mask, elems))


@settings(max_examples=100, deadline=None)
@given(presentations())
def test_bulk_names_match_the_single_names(p):
    """names() of the listed elements of a fresh frame, built in one loop,
    is [name(u) for u in elems] on another fresh frame, which builds each
    C-ideal mask alone, and both leave the same name memo; so is names()
    on a fresh frame that has named one element before."""
    assume(PresentedFrame(p).count_downsets() <= 512)
    bulk, single, partial = (PresentedFrame(p) for _ in range(3))
    elems, _ = bulk.elements()
    want = [single.name(u) for u in elems]
    assert bulk.names(elems) == want
    assert bulk._names == single._names
    assert bulk.names(elems) == want  # from the memo
    partial.elements()
    partial.name(elems[-1])
    assert partial.names(elems) == want and partial._names == bulk._names


@pytest.mark.parametrize("argv", [
    ["theory", "models", THY / "cantor.thy", "--truncate", "N=2"],
    ["theory", "models", THY / "surj.thy", "--truncate", "n=2,X=2"],
    ["frame", "points", THY / "cantor1.pres"],
    ["frame", "points", THY / "cantor.thy", "--truncate", "N=3"],
    ["frame", "leq", THY / "cantor.thy", "z0 | u1", "z0 & z1 | u1",
     "--truncate", "N=2"],
    ["frame", "leq", THY / "free2.pres", "bot", "top"],
    ["frame", "elements", THY / "cantor.thy", "--truncate", "N=3"],
    ["frame", "elements", THY / "surj.thy", "--truncate", "n=2,X=2"],
    ["frame", "hausdorff", THY / "cantor1.pres"],
    ["frame", "hausdorff", THY / "sierpinski.thy"],
    ["frame", "overt", THY / "cantor1.pres", "--positive", "top,z0,u0"],
    ["frame", "overt", THY / "cantor.thy", "--truncate", "N=2",
     "--positive", "top,z0,u0,z1,u1,z0 & z1,z0 & u1,u0 & z1,u0 & u1"]],
    ids=["models cantor", "models surj", "points pres", "points thy",
         "leq thy", "leq pres", "elements thy", "elements surj",
         "hausdorff pres", "hausdorff thy", "overt pres", "overt thy"])
def test_points_neither_stabilize_nor_saturate(argv, monkeypatch, capsys):
    """No frame path stabilizes or builds a Horn closure."""
    def refuse(*args, **kwargs):
        raise AssertionError("stabilized or built a closure")

    stabilize_fn = pointfree.presentations.stabilize
    for mod in (pointfree.presentations, frames, pointfree.cli,
                pointfree.theories):
        for name, value in list(vars(mod).items()):
            if value is stabilize_fn:
                monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setattr(frame_oracles.HornClosure, "__init__", refuse)
    assert main([str(a) for a in argv] + ["--json"]) == 0
    assert capsys.readouterr().err == ""


def test_cantor_six_models_in_a_fresh_process(tmp_path):
    """Cantor N=6 at generator_cap 12: 12 generators, 4,096 formal meets
    and 64 models (5.3 s for the whole process with the principal scan)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"generator_cap": 12}')
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pointfree.cli", "theory", "models",
         str(THY / "cantor.thy"), "--truncate", "N=6", "--json"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "POINTFREE_CONFIG": str(cfg)})
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith('{"count": 64, "frame_nontrivial": true')


def test_cantor_six_models_in_process(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"generator_cap": 12}')
    monkeypatch.setenv("POINTFREE_CONFIG", str(cfg))
    argv = ["theory", "models", str(THY / "cantor.thy"), "--truncate", "N=6",
            "--json"]
    # the best of three calls, so that one slow spell of a loaded host
    # does not fail the bound; each from a cold memo of parsed inputs, so
    # that each parses, searches and builds J again
    outs, times = [], []
    for _ in range(3):
        parsed_input.cache_clear()
        t0 = time.perf_counter()
        assert main(argv) == 0
        times.append(time.perf_counter() - t0)
        outs.append(capsys.readouterr().out)
    assert min(times) < 0.1 and outs[1] == outs[0] == outs[2]
    ms = json.loads(outs[0])["models"]
    assert len(ms) == 64 and ms[0] == ["u0", "u1", "u2", "u3", "u4", "u5"]


def oracle_elements(p, oracle):
    """The oracle's C-ideals in element order, by the string key of their
    masks in subset order (frame_oracles.element_key)."""
    return sorted(oracle.elements, key=lambda c: frame_oracles.element_key(
        frame_oracles.subset_mask(p.generators, c)))


def check_against_oracles(p):
    """Elements in key order and the Hasse edges as index pairs into them,
    points, nontriviality, and enumerate_frame, against the oracles."""
    p = stabilize(p)
    engine = PresentedFrame(p)
    oracle = frame_oracles.enumerate_frame(p)
    elems, edges = engine.elements()
    want = oracle_elements(p, oracle)
    assert [engine.members(e) for e in elems] == want
    position = {c: i for i, c in enumerate(want)}
    assert edges == sorted((position[a], position[b])
                           for a, b in frame_oracles.hasse_edges(oracle))
    assert engine.points() == by_size(oracle_listing(p, oracle))
    assert (engine.bottom != engine.top) == (oracle.bottom != oracle.top)
    frame, _ = enumerate_frame(p)
    assert frame.elements == tuple(sorted(oracle.elements, key=sort_key))
    assert order_pairs(frame) == order_pairs(oracle)
    assert points(frame) == frame_oracles.points(oracle)


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_engine_matches_oracles_on_random_presentations(p):
    # at most 2^6 elements, so the O(n³) oracles stay quick
    assume(len(PresentedFrame(p).join_primes) <= 6)
    check_against_oracles(p)


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_names_are_bases_unique_per_frame(p):
    """Each element is named by its basis: the maximal members of its
    C-ideal, in meet_key order, whose downset the oracle saturates to the
    C-ideal itself.  Names are unique per frame, and each edge [i, j] has
    i < j and is a covering pair of the oracle frame."""
    assume(len(PresentedFrame(p).join_primes) <= 6)
    q = stabilize(p)
    h = frame_oracles.closure(q)
    oracle = frame_oracles.enumerate_frame(q)
    engine = PresentedFrame(p)
    elems, edges = engine.elements()
    names = list(map(engine.name, elems))
    assert len(set(names)) == len(names)
    for e, name in zip(elems, names):
        meets = name_meets(name)
        assert meets == sorted(basis(engine.members(e)), key=meet_key)
        assert h.cideal(h.saturate(h.mask(meets))) == engine.members(e)
        assert engine.members(e) in oracle.elements
    covers = set(frame_oracles.hasse_edges(oracle))
    assert all(i < j and (engine.members(elems[i]),
                          engine.members(elems[j])) in covers
               for i, j in edges)
    assert len(edges) == len(covers)


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
    with pytest.raises(CapExceeded, match="generators has size 9"):
        presented_frame(free_presentation(9))


def test_engine_rejects_a_point_that_breaks_a_rule(monkeypatch):
    """The certificate check on points: a search that also returned the
    empty set on cantor N=1 (u0 and z0 both false) would break
    top ≤ z0 ∨ u0, and the check refuses it."""
    monkeypatch.setattr(pointfree.presentations, "find_models",
                        lambda p: find_models(p) + [0])
    engine = PresentedFrame(cantor_presentation(1))
    assert len(engine.join_primes) == 3
    with pytest.raises(PointfreeError, match="point violates a cover"):
        engine.points()
