"""Inputs within every default cap of `Limits` that cost one subcommand
the most, written as recipes, with the size of each answer asserted."""

import json
import random
from itertools import combinations

from pointfree.cli import main
from pointfree.config import DEFAULT
from pointfree.presentations import (FramePresentation, find_models,
                                     parse_presentation_text,
                                     presentation_text)


def elements_worst_case():
    """8 generators whose models are a set F of 12 distinct 4-subsets,
    forced by two kinds of rule: S <= the join of the models strictly
    above S, for each S inside a model that is not one (top included),
    and S <= bot for each minimal S inside no model.  The models are
    incomparable, so J is an antichain and |D(J)| = 2^12 = element_cap."""
    gens = [f"g{i}" for i in range(8)]
    models = [frozenset(c) for c in random.Random(0).sample(
        list(combinations(gens, 4)), 12)]
    inside = {frozenset(c) for m in models
              for n in range(5) for c in combinations(sorted(m), n)}
    covers = [(s, [m for m in models if s < m])
              for s in inside if s not in models]
    covers += [(s, []) for n in range(9) for s in map(frozenset,
                                                      combinations(gens, n))
               if s not in inside and all(s - {g} in inside for g in s)]
    return FramePresentation.make(gens, covers), models


def test_elements_worst_case_prints_its_frame_in_under_two_megabytes(
        tmp_path, capsys):
    """4,096 elements and 24,576 Hasse edges, each element named once by
    its basis and each edge an index pair: about 1 MB of JSON, where the
    whole C-ideals on both ends of every edge took 208.6 MB."""
    p, models = elements_worst_case()
    assert len(p.rules) == 94
    assert sorted(find_models(p)) == sorted(
        sum(1 << p.generators.index(g) for g in m) for m in models)
    path = tmp_path / "worst.pres"
    path.write_text(presentation_text(p))
    assert main(["frame", "elements", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["count"] == len(payload["elements"]) == DEFAULT.element_cap
    assert len(set(payload["elements"])) == DEFAULT.element_cap
    assert len(payload["hasse_edges"]) == 12 * 2 ** 11
    assert len(out.encode()) <= 2_000_000


def compile_worst_case():
    """8 generators (generator_cap) and one axiom with six binders, 32,768
    instances (half of axiom_instance_cap): p[i] & p[j] covered by two
    meets of two.  Meet-stabilized, its covers were 174,977 rules and
    10.6 MB of JSON."""
    return ("prop p[i] for i<8;\n"
            "axiom p[i] & p[j] |- p[k] & p[l] | p[m] & p[n] "
            "for i<8, j<8, k<8, l<4, m<4, n<4;\n")


def test_compile_worst_case_prints_its_covers_in_under_a_megabyte(
        tmp_path, capsys):
    """`theory compile` prints the 7,740 distinct instantiated covers, 1,114
    of them tautologies, which have 17 models."""
    path = tmp_path / "worst.thy"
    path.write_text(compile_worst_case())
    assert main(["theory", "compile", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) <= 1_000_000
    p = parse_presentation_text(json.loads(out)["presentation"])
    assert len(p.generators) == DEFAULT.generator_cap
    assert len(p.rules) == 7_740
    assert sum(any(t & ~lhs == 0 for t in rhs)
               for lhs, rhs in p.rules) == 1_114
    assert len(find_models(p)) == 17
