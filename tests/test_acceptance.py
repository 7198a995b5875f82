"""Acceptance gate: the nine headline guarantees, one test per criterion.

Each test prints a single PASS line (visible with `pytest -s` or `-v`)
summarizing the evidence it checked.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

from conftest import cantor_presentation, three_chain
from test_order import all_posets

from pointfree.config import Limits
from pointfree.evt import cut_validate, evt_maximize
from pointfree.frames import (closed_congruence, congruence_generate,
                              congruence_intersection, congruence_join,
                              enumerate_frame, frame_from_order,
                              is_compact_presentation, is_complementary,
                              is_hausdorff, open_congruence, quotient)
from pointfree.order import (Poset, birkhoff_iso, downset_lattice,
                             enumerate_downsets, join_irreducibles,
                             prime_filters)
from pointfree.presentations import (FramePresentation,
                                     check_positivity_certificate, saturate,
                                     stabilize)
from pointfree.reals import domain_of, eval_point, parse_expr
from pointfree.theories import builtin, compile_theory, models

ROOT = Path(__file__).resolve().parents[1]
THY = ROOT / "theories"


# --- criterion 1: coverage theorem against a congruence-closure oracle ------------

def free_frame_oracle(gen_names):
    """The free frame on a finite meet-semilattice of formal meets, built
    independently of the saturation machinery: downsets of the formal-meet
    poset (ordered by reverse inclusion) under union and intersection."""
    meets = [frozenset(c) for n in range(len(gen_names) + 1)
             for c in combinations(gen_names, n)]
    poset = Poset.from_relation(meets, [(a, b) for a in meets for b in meets
                                        if a >= b])
    lat = downset_lattice(poset)
    return frame_from_order(lat.elements, lat.le), meets


def oracle_quotient(p):
    """Quotient the free frame by the congruence the covers generate."""
    frame, meets = free_frame_oracle(p.generators)

    def down(m):
        return frozenset(x for x in meets if x >= m)

    pairs = []
    for lhs, rhs in p.covers:
        join = frozenset().union(*(down(t) for t in rhs)) if rhs \
            else frozenset()
        pairs.append((down(lhs) | join, join))
    return quotient(frame, congruence_generate(frame, pairs))[0]


def random_presentation(rng):
    gens = [f"g{i}" for i in range(rng.randint(1, 4))]

    def subset():
        return {g for g in gens if rng.random() < 0.5}

    covers = [(subset(), [subset() for _ in range(rng.randint(0, 3))])
              for _ in range(rng.randint(0, 4))]
    return FramePresentation.make(gens, covers)


def test_criterion_1_coverage_theorem_oracle_equivalence():
    rng = random.Random(2024)
    start = time.monotonic()
    trials = 20
    for _ in range(trials):
        p = random_presentation(rng)
        p_stab = stabilize(p)
        cideal_frame, _ = enumerate_frame(p_stab)
        oracle = oracle_quotient(p)
        # order isomorphism: saturate each class representative
        phi = {e: saturate(p_stab, e).members for e in oracle.elements}
        assert len(set(phi.values())) == len(oracle.elements)
        assert set(phi.values()) == set(cideal_frame.elements)
        for a in oracle.elements:
            for b in oracle.elements:
                assert oracle.le(a, b) == (phi[a] <= phi[b])
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"\nPASS criterion 1: {trials}/{trials} random presentations "
          f"order-isomorphic to the free-frame quotient oracle "
          f"({elapsed:.1f}s)")


# --- criterion 2: Birkhoff / Stone duality on all small posets ---------------------

def test_criterion_2_birkhoff_stone_duality():
    checked = 0
    for n in range(5):
        for poset in all_posets([f"x{i}" for i in range(n)]):
            lat = downset_lattice(poset)
            irr, to_downset, from_downset = birkhoff_iso(lat)
            for a in lat.elements:
                assert from_downset(to_downset(a)) == a
            downs = enumerate_downsets(irr)
            assert len(downs) == len(lat.elements)
            assert len(prime_filters(lat)) == \
                len(join_irreducibles(lat).elements)
            checked += 1
    print(f"\nPASS criterion 2: Birkhoff round-trip and "
          f"|prime filters| = |join irreducibles| on all {checked} "
          f"labeled posets with at most 4 elements")


# --- criterion 3: sublocale complement law -----------------------------------------

def test_criterion_3_open_closed_complement_law(small_frames):
    names = ["free1", "free2", "cantor1", "cantor2", "chain3", "bool4"]
    pairs = 0
    for name in names:
        f = small_frames[name]
        for a in f.elements:
            assert is_complementary(open_congruence(f, a),
                                    closed_congruence(f, a))
            pairs += 1
        for a in f.elements:
            for b in f.elements:
                want_meet = closed_congruence(f, f.meet(a, b))
                got_meet = congruence_intersection(closed_congruence(f, a),
                                                   closed_congruence(f, b))
                assert got_meet.classes == want_meet.classes
                want_join = closed_congruence(f, f.join(a, b))
                got_join = congruence_join(closed_congruence(f, a),
                                           closed_congruence(f, b))
                assert got_join.classes == want_join.classes
        # nullary cases: empty meet and empty join
        assert closed_congruence(f, f.top).is_all_pairs()
        assert closed_congruence(f, f.bottom).is_identity()
    print(f"\nPASS criterion 3: open/closed complementarity for all "
          f"{pairs} elements across {len(names)} corpus frames; closed "
          f"congruences preserve finite meets and joins")


# --- criterion 4: classifying-locale point counts ----------------------------------

def test_criterion_4_point_counts():
    assert len(models(builtin("sierpinski"))) == 2
    for n in (1, 2, 3):
        assert len(models(builtin("cantor"), trunc={"N": n})) == 2 ** n
    assert len(models(builtin("stone", lattice=three_chain()),
                      limits=Limits(generator_cap=16))) == 2
    assert len(models(builtin("surjection", n=2, x=2))) == 2
    # with one input and two required outputs the theory is finitely
    # inconsistent: zero models, and the compiled frame collapses to a
    # single element (so the frame-triviality check reports trivial)
    assert models(builtin("surjection", n=1, x=2)) == []
    frame, _ = enumerate_frame(compile_theory(builtin("surjection",
                                                      n=1, x=2)))
    assert len(frame.elements) == 1
    print("\nPASS criterion 4: point counts sierpinski=2, cantor=2/4/8, "
          "stone(3-chain)=2, surjection(2,2)=2 models, surjection(1,2)=0 "
          "models (frame reported trivial)")


# --- criterion 5: compactness and overtness certificates ----------------------------

def test_criterion_5_compactness_and_positivity():
    for n in (1, 2, 3):
        report = is_compact_presentation(cantor_presentation(n))
        assert report["compact"] and report["verified"]
    p = stabilize(cantor_presentation(2))
    canonical = {m for m in p.all_meets()
                 if not any({f"z{i}", f"u{i}"} <= m for i in range(2))}
    assert check_positivity_certificate(p, canonical)
    mutants = [canonical - {m} for m in canonical] + \
        [canonical | {m} for m in p.all_meets() if m not in canonical]
    assert len(mutants) >= 10
    for mutant in mutants:
        assert not check_positivity_certificate(p, mutant)
    print(f"\nPASS criterion 5: cantor n=1..3 verified compact; canonical "
          f"positivity certificate accepted and all {len(mutants)} "
          f"single-condition mutants rejected")


# --- criterion 6: Hausdorff verdicts -------------------------------------------------

def test_criterion_6_hausdorff_verdicts(small_frames):
    verdict, witness = is_hausdorff(small_frames["cantor1"])
    assert verdict is True and witness is not None
    sierpinski, _ = enumerate_frame(compile_theory(builtin("sierpinski")))
    verdict, witness = is_hausdorff(sierpinski)
    assert verdict is False and witness is None
    print("\nPASS criterion 6: 2-point discrete frame Hausdorff with "
          "witness; sierpinski frame not Hausdorff")


# --- criterion 7: EVT numeric ---------------------------------------------------------

EVT_CORPUS = [
    ("x*(1 - x)", F(1, 4), F(1, 10 ** 6), F(1)),     # (expr, max, eps, Lip)
    ("min(x, 1 - x)", F(1, 2), F(1, 10 ** 4), F(1)),
    ("abs(x - 1/3)", F(2, 3), F(1, 10 ** 4), F(1)),
]

UNIT = domain_of((0, 1))


def grid_oracle(e, lipschitz, k=4096):
    """Dense-grid lower bound plus a Lipschitz upper bound on the max."""
    vals = [eval_point(e, F(i, k)) for i in range(k + 1)]
    lo = max(vals)
    return lo, lo + lipschitz * F(1, 2 * k)


def test_criterion_7_evt_numeric():
    lines = []
    for src, true_max, eps, lip in EVT_CORPUS:
        e = parse_expr(src)
        start = time.monotonic()
        enc, cover = evt_maximize(e, UNIT, eps)
        elapsed = time.monotonic() - start
        assert enc.upper - enc.lower <= eps
        assert enc.lower <= true_max <= enc.upper
        grid_lo, grid_hi = grid_oracle(e, lip)
        assert grid_lo <= enc.upper and enc.lower <= grid_hi
        assert elapsed < 10 and enc.nodes_expanded < 10 ** 5
        lines.append(f"{src}: [{enc.lower}, {enc.upper}] "
                     f"({enc.nodes_expanded} nodes, {elapsed:.2f}s)")
    print("\nPASS criterion 7: " + "; ".join(lines))


# --- criterion 8: EVT soundness audit --------------------------------------------------

def test_criterion_8_evt_soundness_audit():
    for src, true_max, eps, _ in EVT_CORPUS:
        e = parse_expr(src)
        enc, _ = evt_maximize(e, UNIT, F(1, 1000))
        for (lo1, hi1), (lo2, hi2) in zip(enc.trace, enc.trace[1:]):
            assert lo1 <= lo2 and hi2 <= hi1 and lo2 <= hi2
        rng = random.Random(8)
        probes = []
        for _ in range(100):
            p = enc.lower - 1 + F(rng.randrange(0, 2001), 1000)
            probes.append((p, p + F(rng.randrange(1, 1000), 1000)))
        report = cut_validate(enc, probes, e, UNIT)
        assert report["ok"] and not report["failures"]
        assert report["probes"] == 100 and report["trace_monotone"]
    print("\nPASS criterion 8: monotone bound traces and 100 locate "
          "probes per corpus function with zero inconsistencies")


# --- criterion 9: byte-identical JSON ----------------------------------------------------

ACCEPTANCE_CMDS = [
    ["frame", "points", str(THY / "cantor.thy"), "--truncate", "N=2"],
    ["frame", "hausdorff", str(THY / "cantor1.pres")],
    ["frame", "compact", str(THY / "cantor.thy"), "--truncate", "N=2"],
    ["frame", "overt", str(THY / "cantor1.pres"), "--positive", "top,z0,u0"],
    ["theory", "models", str(THY / "surj.thy"), "--truncate", "n=2,X=2"],
    ["theory", "models", str(THY / "surj.thy"), "--truncate", "n=1,X=2"],
    ["stone", "spectrum", str(THY / "chain3.lat")],
    ["stone", "birkhoff", str(THY / "bool4.lat")],
    ["evt", "max", "--expr", "x*(1-x)", "--domain", "[0,1]",
     "--eps", "1/1000000", "--trace"],
    ["evt", "max", "--expr", "min(x, 1-x)", "--domain", "[0,1]",
     "--eps", "1/10000"],
    ["evt", "max", "--expr", "abs(x - 1/3)", "--domain", "[0,1]",
     "--eps", "1/10000"],
    ["evt", "locate", "--expr", "x*(1-x)", "--domain", "[0,1]",
     "--p", "1/5", "--q", "1/3"],
    ["evt", "validate", "--expr", "x*(1-x)", "--domain", "[0,1]",
     "--eps", "1/100", "--probes", "20"],
]


def test_criterion_9_deterministic_json():
    for cmd in ACCEPTANCE_CMDS:
        def once():
            return subprocess.run(
                [sys.executable, "-m", "pointfree.cli"] + cmd + ["--json"],
                capture_output=True, cwd=ROOT)
        a, b = once(), once()
        assert a.returncode == b.returncode == 0, (cmd, a.stderr)
        assert a.stdout and a.stdout == b.stdout, cmd
        json.loads(a.stdout)
    print(f"\nPASS criterion 9: two runs of all {len(ACCEPTANCE_CMDS)} "
          f"acceptance commands produced byte-identical JSON")
