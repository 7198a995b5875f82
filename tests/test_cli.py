"""Command-line interface: exit codes, JSON output, and determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pointfree.frames
import pointfree.presentations
from pointfree.cli import build_parser, main, parsed_input

ROOT = Path(__file__).resolve().parents[1]
THY = ROOT / "theories"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# --- frame ---------------------------------------------------------------------

def test_frame_elements(capsys):
    code, payload, _ = run_json(capsys, "frame", "elements",
                                THY / "cantor1.pres")
    assert code == 0
    assert payload["count"] == 4
    assert len(payload["hasse_edges"]) == 4  # the Boolean diamond


def test_frame_elements_from_theory_file(capsys):
    code, payload, _ = run_json(capsys, "frame", "elements",
                                THY / "cantor.thy", "--truncate", "N=1")
    assert code == 0 and payload["count"] == 4


def test_frame_leq(capsys):
    code, payload, _ = run_json(capsys, "frame", "leq", THY / "cantor1.pres",
                                "z0", "z0 | u0")
    assert code == 0 and payload["leq"] is True
    code, payload, _ = run_json(capsys, "frame", "leq", THY / "cantor1.pres",
                                "top", "z0")
    assert code == 0 and payload["leq"] is False


def test_frame_points(capsys):
    code, payload, _ = run_json(capsys, "frame", "points", THY / "cantor.thy",
                                "--truncate", "N=2")
    assert code == 0 and payload["count"] == 4
    assert ["u0", "u1"] in payload["points"]


def test_frame_hausdorff(capsys):
    code, payload, _ = run_json(capsys, "frame", "hausdorff",
                                THY / "cantor1.pres")
    assert code == 0 and payload["hausdorff"] is True
    code, payload, _ = run_json(capsys, "frame", "hausdorff",
                                THY / "sierpinski.thy")
    assert code == 0 and payload["hausdorff"] is False


def test_frame_leq_without_operands_is_a_parse_error(capsys):
    code, out, err = run(capsys, "frame", "leq", THY / "cantor1.pres")
    assert code == 1 and "error:" in err and "Traceback" not in err
    code, out, err = run(capsys, "frame", "leq", THY / "cantor1.pres", "z0")
    assert code == 1 and "error:" in err


def test_frame_overt(capsys):
    code, payload, _ = run_json(capsys, "frame", "overt", THY / "cantor1.pres",
                                "--positive", "top,z0,u0")
    assert code == 0 and payload["certificate_accepted"] is True
    code, payload, _ = run_json(capsys, "frame", "overt", THY / "cantor1.pres",
                                "--positive", "top")
    assert code == 0 and payload["certificate_accepted"] is False


def test_frame_compact(capsys):
    code, payload, _ = run_json(capsys, "frame", "compact",
                                THY / "cantor1.pres")
    assert code == 0 and payload["compact"] is True and payload["verified"]


# --- theory --------------------------------------------------------------------

def test_theory_parse(capsys):
    code, payload, _ = run_json(capsys, "theory", "parse", THY / "surj.thy")
    assert code == 0
    assert any("some" in ax for ax in payload["axioms"])


def test_theory_compile(capsys):
    code, payload, _ = run_json(capsys, "theory", "compile",
                                THY / "cantor.thy", "--truncate", "N=2")
    assert code == 0
    assert sorted(payload["generators"]) == ["u0", "u1", "z0", "z1"]


def test_theory_models_surjection(capsys):
    code, payload, _ = run_json(capsys, "theory", "models", THY / "surj.thy",
                                "--truncate", "n=1,X=2")
    assert code == 0
    assert payload["count"] == 0
    assert payload["frame_nontrivial"] is False
    code, payload, _ = run_json(capsys, "theory", "models", THY / "surj.thy",
                                "--truncate", "n=2,X=2")
    assert code == 0 and payload["count"] == 2


# --- stone ---------------------------------------------------------------------

def test_stone_spectrum(capsys):
    code, payload, _ = run_json(capsys, "stone", "spectrum",
                                THY / "chain3.lat")
    assert code == 0 and payload["count"] == 2
    code, payload, _ = run_json(capsys, "stone", "spectrum", THY / "bool4.lat")
    assert code == 0 and payload["count"] == 2


def test_stone_birkhoff(capsys):
    code, payload, _ = run_json(capsys, "stone", "birkhoff",
                                THY / "chain3.lat")
    assert code == 0
    assert payload["downsets"] == 3 and payload["isomorphism_verified"]


def test_stone_rejects_nondistributive(capsys):
    code, _, err = run(capsys, "stone", "birkhoff", THY / "m3.lat")
    assert code == 1 and "error:" in err


# --- evt -----------------------------------------------------------------------

def test_evt_max(capsys):
    code, payload, _ = run_json(capsys, "evt", "max", "--expr", "x*(1-x)",
                                "--domain", "[0,1]", "--eps", "1/10000")
    assert code == 0
    from fractions import Fraction as F
    assert F(payload["lower"]) <= F(1, 4) <= F(payload["upper"])
    assert F(payload["upper"]) - F(payload["lower"]) <= F(1, 10000)
    assert payload["cover"]


def test_evt_max_decimal_and_trace(capsys):
    code, payload, _ = run_json(capsys, "evt", "max", "--expr", "x*(1-x)",
                                "--domain", "[0,1]", "--eps", "1/100",
                                "--decimal", "4", "--trace")
    assert code == 0
    assert payload["approx_decimal"]["digits"] == 4
    assert payload["trace"]


def test_evt_locate(capsys):
    code, payload, _ = run_json(capsys, "evt", "locate", "--expr", "x*(1-x)",
                                "--domain", "[0,1]", "--p", "1/5",
                                "--q", "1/3")
    assert code == 0 and payload["branch"] == "left"
    code, payload, _ = run_json(capsys, "evt", "locate", "--expr", "x*(1-x)",
                                "--domain", "[0,1]", "--p", "26/100",
                                "--q", "2/5")
    assert code == 0 and payload["branch"] == "right"


def test_evt_validate(capsys):
    code, payload, _ = run_json(capsys, "evt", "validate", "--expr",
                                "min(x, 1-x)", "--domain", "[0,1]",
                                "--eps", "1/100", "--probes", "10")
    assert code == 0 and payload["ok"] and payload["failures"] == []


def test_evt_budget_exhaustion_exit_code(capsys):
    code, payload, _ = run_json(capsys, "evt", "max", "--expr", "x*(1-x)",
                                "--domain", "[0,1]", "--eps", "1/1000000",
                                "--budget", "10")
    assert code == 3
    assert payload["budget_exhausted"] is True
    assert "lower" in payload and "upper" in payload  # partial enclosure


def test_evt_budget_zero_is_an_exhausted_budget(capsys):
    code, payload, _ = run_json(capsys, "evt", "max", "--expr", "x*(1-x)",
                                "--domain", "[0,1]", "--budget", "0")
    assert code == 3 and payload["budget_exhausted"] is True
    assert payload["nodes_expanded"] == 0
    code, _, err = run(capsys, "evt", "locate", "--expr", "x*(1-x)",
                       "--domain", "[0,1]", "--p", "1/4", "--q", "1/3",
                       "--budget", "0")
    assert code == 3 and "error:" in err


# --- exit codes and error handling ----------------------------------------------

def test_exit_code_parse_errors(capsys, tmp_path):
    bad = tmp_path / "bad.thy"
    bad.write_text("prop a;\naxiom ~a |- false;\n")
    code, _, err = run(capsys, "theory", "parse", bad)
    assert code == 1 and "geometric fragment" in err
    code, _, err = run(capsys, "frame", "elements", tmp_path / "missing.pres")
    assert code == 1
    code, _, err = run(capsys, "evt", "max", "--expr", "sin(x)",
                       "--domain", "[0,1]")
    assert code == 1
    code, _, err = run(capsys, "evt", "locate", "--expr", "x",
                       "--domain", "[0,1]")
    assert code == 1  # missing --p/--q


def test_a_bad_generator_name_is_refused_at_its_line(capsys, tmp_path):
    """`gen x-y` was accepted, and `frame leq` then printed names such as
    `a&b & x-y`, which read back as other meets."""
    bad = tmp_path / "bad.pres"
    bad.write_text("gen a b\ngen a&b c|d x-y\n")
    assert run(capsys, "frame", "leq", bad, "x-y", "top") == \
        (1, "", "error: bad generator name 'a&b' at line 2\n")


def test_exit_code_cap_exceeded(capsys, tmp_path):
    big = tmp_path / "big.pres"
    big.write_text("gen " + " ".join(f"g{i}" for i in range(9)) + "\n")
    code, _, err = run(capsys, "frame", "elements", big)
    assert code == 2 and "error:" in err


VALIDATE = ["evt", "validate", "--expr", "x*(1-x)", "--domain", "[0,1]",
            "--eps", "1"]


@pytest.mark.parametrize("field, value, argv, code, message", [
    pytest.param("generator_cap", 4, ["frame", "elements", THY / "cantor.thy",
                                      "--truncate", "N=3"], 2,
                 "generators has size 6, exceeding cap 4 (generator_cap)\n",
                 id="generator_cap"),
    pytest.param("poset_cap", 2, ["stone", "spectrum", THY / "chain3.lat"], 2,
                 "lattice has size 3, exceeding cap 2 (poset_cap)\n",
                 id="poset_cap"),
    pytest.param("coproduct_cap", 1, ["frame", "hausdorff",
                                      THY / "cantor1.pres"], 2,
                 "coproduct carrier has size 16, exceeding cap 1 "
                 "(coproduct_cap)\n",
                 id="coproduct_cap"),
    pytest.param("bnb_node_budget", 1, VALIDATE, 3,
                 "locate budget 1 exhausted for ", id="bnb_node_budget"),
    pytest.param("degree_cap", 1, VALIDATE, 2,
                 "expression degree has size 2, exceeding cap 1 "
                 "(degree_cap)\n", id="degree_cap"),
    pytest.param("axiom_instance_cap", 2, ["theory", "models",
                                           THY / "repeat.thy",
                                           "--truncate", "N=3"], 2,
                 "axiom instances has size 3, exceeding cap 2 "
                 "(axiom_instance_cap)\n", id="axiom_instance_cap"),
    pytest.param("element_cap", 3, ["frame", "elements",
                                    THY / "cantor1.pres"], 2,
                 "frame elements has size 4, exceeding cap 3 "
                 "(element_cap)\n", id="element_cap"),
    pytest.param("constant_bit_cap", 2, VALIDATE, 2,
                 "constant bits has size 3, exceeding cap 2 "
                 "(constant_bit_cap)\n", id="constant_bit_cap")])
def test_config_env_overrides_caps(capsys, tmp_path, monkeypatch, field,
                                   value, argv, code, message):
    """Every Limits field set in POINTFREE_CONFIG reaches the code that
    enforces it, and every cap refusal (exit 2) names that field."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    monkeypatch.setenv("POINTFREE_CONFIG", str(cfg))
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert code != 2 or err.endswith(f" ({field})\n")


def test_validate_budget_bounds_every_probe(capsys):
    """--budget bounds the locate run of each probe, not only the maximizer
    (the same budget set in POINTFREE_CONFIG is a case above)."""
    assert run(capsys, *VALIDATE)[0] == 0
    code, out, err = run(capsys, *VALIDATE, "--budget", "1")
    assert code == 3 and out == ""
    assert err.startswith("error: locate budget 1 exhausted for ")
    assert err.count("\n") == 1


def test_successive_calls_share_no_parser_state(capsys):
    """The parser is built once per process; each call still starts from
    the defaults: a budget or --json given once is not kept."""
    maximize = ["evt", "max", "--expr", "x*(1-x)", "--domain", "[0,1]"]
    fresh = run(capsys, *maximize)
    assert fresh[0] == 0
    assert run(capsys, *maximize, "--budget", "5")[0] == 3
    assert run(capsys, *maximize) == fresh
    points = ["frame", "points", THY / "cantor1.pres"]
    text = run(capsys, *points)
    assert run_json(capsys, *points)[1] == {"count": 2,
                                            "points": [["u0"], ["z0"]]}
    assert run(capsys, *points) == text
    assert text[1].startswith("count: 2\n")


def run_timed(capsys, *argv):
    t0 = time.perf_counter()
    out = run(capsys, *argv)
    return out + (time.perf_counter() - t0,)


# Each refusal below comes before the work it bounds: at the code before,
# it came after 10 s (hausdorff), 38 s (stone) and 11 s (compile).
def test_hausdorff_refuses_before_listing_the_elements(capsys):
    code, out, err, secs = run_timed(capsys, "frame", "hausdorff",
                                     THY / "cantor.thy", "--truncate", "N=4")
    assert code == 2 and out == ""
    assert err == ("error: coproduct carrier has size 4294967296, "
                   "exceeding cap 16 (coproduct_cap)\n")
    assert secs < 5


def test_hausdorff_counts_the_elements_and_checks_the_cap_once(capsys,
                                                              monkeypatch):
    """One query counts |D(J)| once and holds |f|² to the coproduct cap
    once, though both the cap and the listing need the count."""
    calls = {"count_downsets": 0, "carrier_cap": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(pointfree.presentations, "count_downsets")
    counted(pointfree.frames, "carrier_cap")
    parsed_input.cache_clear()
    code, payload, _ = run_json(capsys, "frame", "hausdorff",
                                THY / "surj.thy", "--truncate", "n=2,X=2")
    assert code == 0 and "hausdorff" in payload
    assert calls == {"count_downsets": 1, "carrier_cap": 1}


def test_stone_refuses_a_large_lattice_before_building_it(capsys, tmp_path):
    chain = tmp_path / "chain150.lat"
    chain.write_text("elements: " + " ".join(f"c{i}" for i in range(150))
                     + "\nleq: " + " ".join(f"c{i}<c{i + 1}"
                                            for i in range(149)) + "\n")
    code, out, err, secs = run_timed(capsys, "stone", "spectrum", chain)
    assert code == 2 and out == ""
    assert err == ("error: lattice has size 150, exceeding cap 16 "
                   "(poset_cap)\n")
    assert secs < 5


def test_compile_refuses_before_naming_the_generators(capsys):
    code, out, err, secs = run_timed(capsys, "theory", "compile",
                                     THY / "cantor.thy",
                                     "--truncate", "N=3000000")
    assert code == 2 and out == ""
    assert err == ("error: generators has size 6000000, exceeding cap 8 "
                   "(generator_cap)\n")
    assert secs < 5


@pytest.mark.parametrize("argv, err", [
    (["theory", "models", THY / "surj.thy", "--truncate", "n=2,n=1,X=2"],
     "error: truncation binding 'n' is repeated\n"),
    (["theory", "models", THY / "surj.thy", "--truncate", "n=2,X=2",
      "--truncate", "n=1,X=2"],
     "error: argument --truncate: given more than once\n"),
    (["evt", "max", "--expr", "x", "--domain", "[0,1]", "--eps", "1/10",
      "--eps", "1/1000"], "error: argument --eps: given more than once\n"),
    (["frame", "points", THY / "cantor1.pres", "--json", "--json"],
     "error: argument --json: given more than once\n"),
    (["evt", "max", "--expr", "x", "--domain", "[0,1]", "--trace", "--json",
      "--trace"], "error: argument --trace: given more than once\n")])
def test_a_repeated_binding_or_option_is_refused(capsys, argv, err):
    """The last value once silently replaced the first; a repeated flag
    was once taken."""
    assert run(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("sub", ["models", "compile"])
def test_theory_refuses_axiom_instances_before_building_them(sub):
    """axiom a |- a for i<N with N = 3·10^6: the parent compiled all three
    million instances before it answered."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pointfree.cli", "theory", sub,
         str(THY / "repeat.thy"), "--truncate", "N=3000000"],
        capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert time.perf_counter() - t0 < 1
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: axiom instances has size 3000000, "
                           "exceeding cap 65536 (axiom_instance_cap)\n")


@pytest.mark.parametrize("sub", [["max"], ["validate"],
                                 ["locate", "--p", "1", "--q", "2"]])
def test_evt_refuses_a_huge_degree_before_evaluating(capsys, sub):
    code, out, err, secs = run_timed(capsys, "evt", *sub, "--expr",
                                     "x^999999", "--domain", "[0,3]")
    assert code == 2 and out == ""
    assert err == ("error: expression degree has size 999999, exceeding "
                   "cap 64 (degree_cap)\n")
    assert secs < 1


def test_evt_answers_a_zeroth_power_of_a_huge_degree_at_once(capsys):
    """(x^300000 + x)^0 is 1 and has degree 0; the kernel drops its base,
    so no evaluation builds the powers of D up to the base's degree."""
    t0 = time.perf_counter()
    code, payload, err = run_json(capsys, "evt", "max", "--expr",
                                  "(x^300000 + x)^0", "--domain", "[0,1]")
    assert time.perf_counter() - t0 < 1
    assert code == 0 and err == ""
    assert (payload["lower"], payload["upper"]) == ("1", "1")


def balanced_product(factor, depth):
    if depth == 0:
        return factor
    half = balanced_product(factor, depth - 1)
    return f"({half})*({half})"


@pytest.mark.parametrize("expr, bits", [
    ("(1/3)^10000*x", 30000),
    ("(1/3)^3000000*x", 9000000),
    ("((1/3)^64)^64*x", 12288),
    (balanced_product("(1/3)^64", 8) + "*x", 49152),
    ("(x + 1/" + "7" * 80 + ")^64", 17152)],
    ids=["power", "huge power", "nested powers", "balanced product",
         "long literal"])
def test_evt_refuses_huge_constants_before_computing_them(capsys, expr,
                                                          bits):
    """A constant power has degree 0.  (1/3)^10000 passed degree_cap and
    its 4,771-digit bound broke Python's int-to-str limit (a traceback);
    with ^3000000 the power alone took about a second.  256 factors
    (1/3)^64, multiplied in a tree of depth 8, or an 80-digit literal
    under ^64 broke the same limit with every exponent at most 64."""
    code, out, err, secs = run_timed(capsys, "evt", "max", "--expr", expr,
                                     "--domain", "[0,1]", "--eps", "1/1000")
    assert code == 2 and out == ""
    assert err == (f"error: constant bits has size {bits}, exceeding cap "
                   "4096 (constant_bit_cap)\n")
    assert secs < 1


@pytest.mark.parametrize("domain, eps, bits", [
    ("[0,1/" + "7" * 80 + "]", "1/1000", 17792),
    ("[0,1]", "1/1" + "0" * 4000, 850624)],
    ids=["80-digit endpoint", "4,000-digit eps"])
def test_evt_refuses_value_bits_set_by_the_domain_and_eps(capsys, domain,
                                                          eps, bits):
    """x^64 at points with b bits has values of about 64·b bits: an
    80-digit endpoint broke Python's int-to-str limit (a traceback), and
    an eps of 10^-4000 ran past 20 s."""
    code, out, err, secs = run_timed(capsys, "evt", "max", "--expr", "x^64",
                                     "--domain", domain, "--eps", eps)
    assert code == 2 and out == ""
    assert err == (f"error: value bits has size {bits}, exceeding cap 4096 "
                   "(constant_bit_cap)\n")
    assert secs < 1


def free_presentation_file(tmp_path, n):
    path = tmp_path / f"free{n}.pres"
    path.write_text("gen " + " ".join(f"g{i}" for i in range(n)) + "\n")
    return path


@pytest.mark.parametrize("sub, n", [("hausdorff", 10), ("elements", 7)])
def test_dedekind_counts_are_refused_at_once(tmp_path, sub, n):
    """J of a free presentation is 2^n under inclusion and |D(J)| is a
    Dedekind number.  Counting it recursed once per element of J (a
    RecursionError at n = 10) and ran past 10 s at n = 7; the count now
    stops when its sub-counts with one top pass element_cap."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"generator_cap": 10}')
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pointfree.cli", "frame", sub,
         str(free_presentation_file(tmp_path, n))],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
        env={**os.environ, "POINTFREE_CONFIG": str(cfg)})
    assert time.perf_counter() - t0 < 1
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: down-set sub-counts with one top has "
                           "size 4097, exceeding cap 4096 (element_cap)\n")


@pytest.mark.parametrize("argv, config, sha256", [
    (["frame", "points", "free6.pres"], {},
     "15e7eb4420a53146e5c720336cbc2fe818c0cef133c2a0685b06682f88f2ea1c"),
    (["frame", "points", THY / "cantor.thy", "--truncate", "N=7"],
     {"generator_cap": 14},
     "670008c5930467d2535c7367427154edf2e0e32629eec1f961a8a2e42f5e3c90"),
    (["theory", "models", THY / "cantor.thy", "--truncate", "N=7"],
     {"generator_cap": 14},
     "aa2d53216b9dc86e0aa119e6aa002a1dbbf439dcfcd8c3000f6f08046f777d49")],
    ids=["free6 points", "cantor7 points", "cantor7 models"])
def test_large_point_listings_answer_as_before(capsys, tmp_path, monkeypatch,
                                               argv, config, sha256):
    """The points are the models in meet_key order, with no count of
    elements: 64 for six free generators and 128 for cantor N=7.  Each
    answers as it did when the points were ordered by counting |↑j| for
    every join-prime j (--json output recorded from that code)."""
    free_presentation_file(tmp_path, 6)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setenv("POINTFREE_CONFIG", str(cfg))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def json_in_a_fresh_process(argv, tmp_path, config=None):
    """The --json answer of argv in a fresh process, and its wall time."""
    env = dict(os.environ)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        env["POINTFREE_CONFIG"] = str(cfg)
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pointfree.cli", *map(str, argv), "--json"],
        capture_output=True, text=True, cwd=ROOT, timeout=60, env=env)
    secs = time.perf_counter() - t0
    assert done.returncode == 0 and done.stderr == ""
    return json.loads(done.stdout), secs


@pytest.mark.parametrize("sub", ["frame points", "theory models"])
def test_free_seven_points_are_its_models(tmp_path, sub):
    """The free frame on 7 generators has a Dedekind number of elements,
    which counting refused at element_cap; its 128 points are the models
    of no covers, listed by size with no count."""
    if sub == "frame points":
        path = free_presentation_file(tmp_path, 7)
    else:
        path = tmp_path / "free7.thy"
        path.write_text("prop g[i] for i<7;\n")
    payload, secs = json_in_a_fresh_process([*sub.split(), path], tmp_path)
    pts = payload["points" if sub == "frame points" else "models"]
    assert payload["count"] == len(pts) == 128
    assert pts[0] == [] and pts[-1] == [f"g{i}" for i in range(7)]
    assert secs < 1


def test_free_ten_points_at_generator_cap_ten(tmp_path):
    payload, _ = json_in_a_fresh_process(
        ["frame", "points", free_presentation_file(tmp_path, 10)], tmp_path,
        {"generator_cap": 10})
    assert payload["count"] == len(payload["points"]) == 1024
    assert payload["points"][-1] == [f"g{i}" for i in range(10)]


def test_elements_refuses_cantor_n4_before_listing_it(capsys):
    """65,536 elements: the listing ran past 10 s (and out of memory)."""
    code, out, err, secs = run_timed(capsys, "frame", "elements",
                                     THY / "cantor.thy", "--truncate", "N=4")
    assert code == 2 and out == ""
    assert err == ("error: frame elements has size 65536, exceeding cap "
                   "4096 (element_cap)\n")
    assert secs < 1


@pytest.mark.parametrize("argv", [
    ["evt", "max", "--expr", "x", "--domain", "[0,1]", "--decimal", "-1"],
    ["evt", "validate", "--expr", "x", "--domain", "[0,1]", "--probes", "-5"],
    ["evt", "validate", "--expr", "x", "--domain", "[0,1]", "--probes", "x"],
    ["evt", "max", "--expr", "x", "--domain", "[0,1]", "--budget", "-5"],
    ["evt", "locate", "--expr", "x", "--domain", "[0,1]", "--p", "0",
     "--q", "2", "--budget", "-5"],
    ["evt", "max", "--expr", "x", "--domain", "[0,1/3]", "--decimal",
     "5000"],
    ["evt", "max", "--expr", "x", "--domain", "[0,1/3]", "--decimal",
     "100000000"],
    ["frame", "bogus", str(THY / "cantor1.pres")],
    []], ids=["decimal -1", "probes -5", "probes x", "max budget -5",
              "locate budget -5", "decimal 5000", "decimal 10^8",
              "frame bogus", "empty"])
def test_bad_arguments_are_parse_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("n", ["10001", "9" * 4299],
                         ids=["10001", "4299 digits"])
def test_validate_refuses_probes_past_the_bound(capsys, n):
    """The probes are built in memory before the first is checked: with
    10^11 of them the run neither answered nor refused in 5 s."""
    code, out, err, secs = run_timed(capsys, "evt", "validate", "--expr", "x",
                                     "--domain", "[0,1]", "--probes", n)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: argument --probes: expected at most 10000 "
                          "probes, got ")
    assert secs < 1


def test_validate_parses_the_most_probes():
    args = build_parser().parse_args(["evt", "validate", "--expr", "x",
                                      "--domain", "[0,1]", "--probes",
                                      "10000"])
    assert args.probes == 10000


@pytest.mark.parametrize("argv, name", [
    (["frame", "points", THY / "cantor1.pres", "--truncate", "N=2"], "N"),
    (["theory", "models", THY / "surj.thy", "--truncate", "n=2,X=2,Q=9"],
     "Q")], ids=["presentation", "unused name"])
def test_truncations_that_bind_nothing_are_parse_errors(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: truncation binding {name!r} ")
    assert err.count("\n") == 1


ENGINE = {"evt", "reals", "frames", "order", "presentations", "theories"}


def engine_loaded(*argv):
    """The engine modules a fresh interpreter holds once it has imported
    the CLI, built its parser and, given argv, answered it."""
    code = ("import sys, pointfree.cli as cli\n"
            "cli.build_parser()\n"
            "if sys.argv[1:]:\n"
            "    cli.main(sys.argv[1:])\n"
            "print(*(m for m in sys.modules if m.startswith('pointfree.')))")
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=60)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    loaded = done.stdout.splitlines()[-1].split()
    return ENGINE & {m.removeprefix("pointfree.") for m in loaded}


def test_each_subcommand_imports_only_the_engine_it_reads():
    """Building the parser loads no engine module; evt loads only the
    maximizer and the reals, a frame query neither of those."""
    assert engine_loaded() == set()
    assert engine_loaded("evt", "max", "--expr", "x*(1-x)",
                         "--domain", "[0,1]") == {"evt", "reals"}
    assert engine_loaded("frame", "points", THY / "cantor1.pres") == {
        "frames", "order", "presentations"}


def test_help_still_exits_zero():
    for argv in (["--help"], ["evt", "--help"]):
        done = subprocess.run([sys.executable, "-m", "pointfree.cli"] + argv,
                              capture_output=True, cwd=ROOT)
        assert done.returncode == 0 and b"usage:" in done.stdout


def test_compact_answers_cantor_n4_without_listing_it():
    """Cantor N=4 has 65,536 elements; compactness is certified from the
    presentation, so the whole process stays well inside the timeout."""
    done = subprocess.run(
        [sys.executable, "-m", "pointfree.cli", "frame", "compact",
         str(THY / "cantor.thy"), "--truncate", "N=4", "--json"],
        capture_output=True, cwd=ROOT, timeout=2)
    assert done.returncode == 0
    assert json.loads(done.stdout)["compact"] is True


def test_theory_refuses_a_some_bound_past_any_range(capsys, tmp_path):
    """A 20-digit `some` bound: counting the instances with len(range(...))
    overflowed instead of reaching the cap."""
    thy = tmp_path / "big.thy"
    thy.write_text("prop a; axiom a |- some i<99999999999999999999. a;")
    code, out, err, secs = run_timed(capsys, "theory", "models", thy)
    assert code == 2 and out == ""
    assert err == ("error: axiom instances has size 99999999999999999999, "
                   "exceeding cap 65536 (axiom_instance_cap)\n")
    assert secs < 1


@pytest.mark.parametrize("text, line, col", [
    ("prop a[i] for i<{n};", 1, 17),
    ("prop a[i] for i<3;\naxiom a[{n}] |- false;", 2, 9),
    ("prop a[i] for i<3;\naxiom a[i] |- false if i < {n};", 2, 28)],
    ids=["bound", "index", "condition"])
@pytest.mark.parametrize("sub", ["parse", "models"])
def test_theory_refuses_an_integer_past_4300_digits(capsys, tmp_path, sub,
                                                    text, line, col):
    """int() of a 5,000-digit token raised ValueError (Python's limit on
    int-to-text conversion) past cli.main as a traceback."""
    thy = tmp_path / "long.thy"
    thy.write_text(text.format(n="9" * 5000))
    code, out, err = run(capsys, "theory", sub, thy)
    assert (code, out) == (1, "")
    assert err == ("error: expected an integer of at most 4300 digits, got "
                   f"5000 digits at line {line}, col {col}\n")
    thy.write_text(text.format(n="9" * 4300))
    assert run(capsys, "theory", "parse", thy)[0] == 0


BIG = "9" * 5001


@pytest.mark.parametrize("expr, config, message", [
    (f"x^{BIG}", None, "5001 digits at col 3"),
    (f"1/{BIG}", None, "5001 digits at col 3"),
    (f"{BIG}/3", None, "5001 digits at col 1"),
    ("x", '{"element_cap": %s}' % BIG, "integer of 5001 digits")],
    ids=["power", "denominator", "numerator", "config"])
def test_an_integer_past_4300_digits_is_refused(capsys, tmp_path,
                                                monkeypatch, expr, config,
                                                message):
    """int() of more than 4,300 digits raises ValueError (Python's limit
    on turning text into an int), which passed cli.main as a traceback
    from the evt parser and from json.loads of the config."""
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        monkeypatch.setenv("POINTFREE_CONFIG", str(cfg))
    code, out, err = run(capsys, "evt", "max", "--expr", expr,
                         "--domain", "[0,1]")
    assert code in (1, 2) and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("sub, option, value", [
    ("max", "--decimal", BIG), ("max", "--budget", BIG),
    ("validate", "--probes", BIG), ("validate", "--seed", BIG),
    ("validate", "--seed", "-" + BIG)],
    ids=["decimal", "budget", "probes", "seed", "negative seed"])
def test_an_option_past_4300_digits_is_refused_by_its_length(
        capsys, sub, option, value):
    """argparse reported int()'s ValueError as `invalid ... value`, or
    `expected an integer`, echoing all 5,001 digits."""
    code, out, err = run(capsys, "evt", sub, "--expr", "x", "--domain",
                         "[0,1]", f"{option}={value}")
    assert (code, out) == (1, "")
    assert err == (f"error: argument {option}: expected an integer of at "
                   "most 4300 digits, got 5001 digits\n")


@pytest.mark.parametrize("text, what, cap, field", [
    ("prop a[i][j] for i<{n}, j<{n};", "generators", 8, "generator_cap"),
    ("prop a; axiom a |- a for i<{n}, j<{n};", "axiom instances", 65536,
     "axiom_instance_cap")], ids=["generators", "axiom instances"])
@pytest.mark.parametrize("sub", [["theory", "models"], ["frame", "points"]],
                         ids=["models", "points"])
def test_theory_refuses_a_count_past_4300_digits(capsys, tmp_path, sub, text,
                                                 what, cap, field):
    """Two bounds of 4,300 digits multiply to a count of 8,600, which the
    refusal once wrote out in decimal: a ValueError past cli.main."""
    n = "9" * 4300
    thy = tmp_path / "long.thy"
    thy.write_text(text.format(n=n))
    code, out, err = run(capsys, *sub, thy)
    assert (code, out) == (2, "")
    assert err == (f"error: {what} has size at least "
                   f"2^{(int(n) ** 2).bit_length() - 1}, exceeding cap {cap} "
                   f"({field})\n")


@pytest.mark.parametrize("argv", [
    ["evt", "max", "--expr", "x+" + "7" * 700, "--domain", "[0,1]"],
    ["theory", "models", "{thy}"]], ids=["evt", "theory"])
def test_the_digit_limit_does_not_depend_on_the_environment(tmp_path, argv):
    """At PYTHONINTMAXSTRDIGITS=640, int() of a 700-digit bound raised a
    ValueError past cli.main as a traceback, and the evt parser echoed
    the interpreter's message: main pins the limit to MAX_INT_DIGITS."""
    thy = tmp_path / "big.thy"
    thy.write_text("prop a[i] for i<%s;\n" % ("7" * 700))
    done = subprocess.run(
        [sys.executable, "-m", "pointfree.cli"]
        + [a.format(thy=thy) for a in argv],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "640"})
    if argv[0] == "evt":
        assert (done.returncode, done.stderr) == (0, "")
        assert "upper: " + "7" * 699 + "8" in done.stdout
    else:
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"error: generators has size {'7' * 700}, "
                               "exceeding cap 8 (generator_cap)\n")


@pytest.mark.parametrize("name, text, argv", [
    ("t.thy", "prop top;\naxiom top |- false;\n", ["frame", "leq", "top",
                                                    "bot"]),
    ("t.thy", "prop top;\naxiom top |- false;\n", ["theory", "compile"]),
    ("b.thy", "prop bot, a;\naxiom a |- bot;\n", ["frame", "leq", "a",
                                                   "bot"]),
    ("t.pres", "gen top a\nrel a <= top\n", ["frame", "points"])],
    ids=["thy leq", "thy compile", "thy bot", "pres"])
def test_a_generator_named_top_or_bot_is_refused(capsys, tmp_path, name,
                                                  text, argv):
    """`frame leq` read a generator `top` as the keyword, so it answered
    False where top <= bot holds, and `theory compile` printed
    `rel top <= bot`, which reads back as ⊤ <= ⊥."""
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, argv[0], argv[1], path, *argv[2:])
    word = "bot" if name == "b.thy" else "top"
    assert (code, out) == (1, "")
    assert err == (f"error: generator {word!r} is reserved: 'top' and 'bot' "
                   "name the top and bottom elements\n")


@pytest.mark.parametrize("argv", [["frame", "points"], ["theory", "models"],
                                  ["stone", "spectrum"]])
def test_input_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad.pres"
    bad.write_bytes(b"\x00\xff\xfe")
    code, out, err = run(capsys, *argv, bad)
    assert code == 1 and out == ""
    assert err == (f"error: {bad} is not UTF-8 text: invalid start byte at "
                   f"byte 1\n")


def test_config_that_is_not_utf8_is_a_parse_error(capsys, tmp_path,
                                                  monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"degree_cap": 3}\xff')
    monkeypatch.setenv("POINTFREE_CONFIG", str(cfg))
    code, out, err = run(capsys, "frame", "points", THY / "cantor1.pres")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {cfg} is not UTF-8 text")


@pytest.mark.parametrize("body, field", [
    ({"generator_cap": "x"}, "generator_cap"),
    ({"coproduct_cap": True}, "coproduct_cap"),
    ({"poset_cap": 1.5}, "poset_cap"),
    ({"generator_cap": 4, "bogus_cap": 4}, "bogus_cap"),
    ({"positivity_scan_cap": 12}, "positivity_scan_cap"),
    ({"directed_scan_cap": 16}, "directed_scan_cap"),
    ([1, 2], "JSON object"),
    ({"generator_cap": -1}, "generator_cap"),
    ({"bnb_node_budget": -3}, "bnb_node_budget"),
    ({"degree_cap": 64, "poset_cap": -16}, "poset_cap"),
    # a repeated field, which json.loads would read as its last value
    ('{"element_cap": 1, "element_cap": 4096}',
     "repeated config field 'element_cap'")])
def test_config_rejects_bad_fields(capsys, tmp_path, monkeypatch, body, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body if isinstance(body, str) else json.dumps(body))
    monkeypatch.setenv("POINTFREE_CONFIG", str(cfg))
    code, out, err = run(capsys, "frame", "points", THY / "cantor1.pres")
    assert code == 1 and out == ""
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("body", ["[" * 100000 + "]" * 100000,
                                  '{"a": ' * 100000 + "1" + "}" * 100000],
                         ids=["arrays", "objects"])
def test_deeply_nested_config_is_a_parse_error(capsys, tmp_path, monkeypatch,
                                               body):
    """json.loads recurses once per level: 100,000 levels raised
    RecursionError past cli.main as a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    monkeypatch.setenv("POINTFREE_CONFIG", str(cfg))
    code, out, err = run(capsys, "frame", "elements", THY / "cantor1.pres")
    assert (code, out) == (1, "")
    assert err == f"error: POINTFREE_CONFIG {cfg} is nested too deeply to read\n"


@pytest.mark.parametrize("expr", ["(" * 2000 + "x" + ")" * 2000,
                                  "+".join(["x"] * 5000)],
                         ids=["nested", "chain"])
def test_deep_expression_is_a_parse_error(capsys, expr):
    code, out, err = run(capsys, "evt", "max", "--expr", expr,
                         "--domain", "[0,1]")
    assert code == 1 and out == ""
    assert err.startswith("error: expression deeper than") and "col" in err


def test_text_output_mentions_same_numbers(capsys):
    code, payload, _ = run_json(capsys, "evt", "max", "--expr", "x*(1-x)",
                                "--domain", "[0,1]", "--eps", "1/100")
    code2, text, _ = run(capsys, "evt", "max", "--expr", "x*(1-x)",
                         "--domain", "[0,1]", "--eps", "1/100")
    assert code == code2 == 0
    assert f"lower: {payload['lower']}" in text
    assert f"upper: {payload['upper']}" in text


# --- determinism -----------------------------------------------------------------

DETERMINISM_CMDS = [
    ["frame", "points", str(THY / "cantor.thy"), "--truncate", "N=2"],
    ["frame", "hausdorff", str(THY / "cantor1.pres")],
    ["theory", "models", str(THY / "surj.thy"), "--truncate", "n=2,X=2"],
    ["theory", "compile", str(THY / "cantor.thy"), "--truncate", "N=2"],
    ["stone", "spectrum", str(THY / "bool4.lat")],
    ["evt", "max", "--expr", "max(abs(x), 1 - x^2)", "--domain", "[-1,2]",
     "--eps", "1/1000", "--trace"],
    ["evt", "validate", "--expr", "x*(1-x)", "--domain", "[0,1]",
     "--eps", "1/100", "--probes", "5"],
]


@pytest.mark.parametrize("cmd", DETERMINISM_CMDS,
                         ids=[" ".join(c[:2]) for c in DETERMINISM_CMDS])
def test_byte_identical_json_across_processes(cmd):
    """Two processes with different string-hash seeds, so that no output
    may follow the iteration order of a set of strings."""
    def once(seed):
        return subprocess.run(
            [sys.executable, "-m", "pointfree.cli"] + cmd + ["--json"],
            capture_output=True, cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed})
    a, b = once("1"), once("2")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and a.stdout
    json.loads(a.stdout)  # well-formed


@pytest.mark.parametrize("text, message", [
    ("elements: a b c d\nleq: a<b b<c c<a c<d\n",
     "leq not antisymmetric on a, b"),
    ("elements: a b\nleq: a<zz y<b\n",
     "leq pair (a, zz) mentions unknown element")],
    ids=["cycle", "unknown element"])
def test_lat_refusals_across_hash_seeds(tmp_path, text, message):
    """A `.lat` refusal names the first bad pair in element order (a cycle)
    or in file order (an unknown element), not in the iteration order of
    a set of strings: one message under six string-hash seeds."""
    lat = tmp_path / "bad.lat"
    lat.write_text(text)
    for seed in "123456":
        done = subprocess.run(
            [sys.executable, "-m", "pointfree.cli", "stone", "spectrum",
             str(lat)], capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed})
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", f"error: {message}\n"), seed


# --- golden output -----------------------------------------------------------------

# --json stdout and exit codes recorded from the code before the bitmask
# frame engine: frame elements/points and theory models on every file in
# theories/ (with the README's truncations, plus cantor N=3), and stone
# spectrum/birkhoff; outputs over 8 kB are pinned by their sha256.  frame
# compact on the same inputs plus cantor N=4 (recorded from the theorem
# certificate, which lists no elements).  evt max (re-recorded from the
# centered-form enclosures, same argv; the budgets of 237 and 20 now
# finish), plus a budget of 6 that runs out in the search, one of 17 that
# runs out in cover refinement (recorded with its cover sorted) and a
# budget of -5 (a usage error, stderr pinned).  frame hausdorff
# (recorded from the coproduct-search code): true with its witness on
# cantor1.pres, cantor.thy N=1 and surj.thy n=2,X=2 and n=1,X=2, false on
# sierpinski.thy, and the coproduct-cap refusals (exit 2, stderr pinned too)
# on free2.pres and cantor.thy N=2.  frame leq and frame overt (recorded
# from the rescanning saturate): bot, top and joins of meets, an unknown
# generator with its stderr, and accepted and rejected certificates on
# cantor1.pres, free2.pres, cantor.thy N=2 and N=3 and surj.thy n=2,X=2.
# theory compile on cantor.thy N=2, surj.thy n=2,X=2 and sierpinski.thy
# (recorded once its rule order stopped following string hashing; those
# on cantor, surj and stone_chain3.thy re-recorded once it printed the
# covers as instantiated, not meet-stabilized).  theory
# models on repeat.thy at N=3000000, refused by axiom_instance_cap (exit 2,
# stderr pinned; recorded once the cap was added).  evt locate and evt
# validate (recorded from the locate that restarted both searches at each
# doubled budget): a left branch on [0,1] and one found after many rounds
# on [0,1] u [2,3], right branches with eight pieces and with two
# components, budgets of 1, 2 and 5 that exhaust on a close straddle (exit
# 3, stderr pinned), and validate with 5 probes at seed 3.  evt max
# --trace, locate and validate on a point component under a centered
# expression (x*(1-x) on [1/3,1/3] u [1/2,1]), a negative domain (x^3 - x
# on [-3/2,-1/7]) and a single-use expression on three components, one a
# point (recorded from the Fraction-box searches): each max also with a
# budget that runs out in cover refinement, each locate as a left branch,
# a right branch, a close straddle and that straddle at budget 3 (exit 3,
# stderr pinned).  theory models/parse/compile and frame points/elements/
# overt (one accepted and one rejected certificate) on stone_chain3.thy,
# an index-free Stone theory with tautologies (recorded from the code that
# read every theory through the AST).
GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())


def check_golden(capsys, case):
    argv = [str(ROOT / a) if a.startswith("theories/") else a
            for a in case["argv"]]
    code, out, err = run(capsys, *argv, "--json")
    assert code == case["exit"], case["argv"]
    if "stdout" in case:
        assert out == case["stdout"], case["argv"]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
    if "stderr" in case:
        assert err == case["stderr"], case["argv"]


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[" ".join(g["argv"]) for g in GOLDEN])
def test_golden_json(capsys, case):
    check_golden(capsys, case)


# --- memo of parsed inputs ---------------------------------------------------------

def test_golden_forward_then_reversed_in_one_process(capsys):
    """Answers do not depend on what the process was asked before: every
    golden argv, in order and then in reverse, from a cold memo of parsed
    inputs."""
    parsed_input.cache_clear()
    for case in GOLDEN + GOLDEN[::-1]:
        check_golden(capsys, case)
    assert parsed_input.cache_info().hits > 100


def test_a_refused_count_does_not_carry_over_to_the_next_query(capsys,
                                                               tmp_path):
    """`frame elements` on the free frame on 7 generators refuses at
    element_cap while counting; a count memo kept between calls would grow
    at each refusal, and fewer sub-counts added per call could turn the
    refusal into an answer.  Queries 2 and 3 are memo hits, so they count
    on the frame that query 1 built."""
    free7 = free_presentation_file(tmp_path, 7)
    parsed_input.cache_clear()
    answers = [run(capsys, "frame", "elements", free7) for _ in range(3)]
    assert answers[0][:2] == (2, "")
    assert answers[0][2].endswith(", exceeding cap 4096 (element_cap)\n")
    assert answers == [answers[0]] * 3
    assert parsed_input.cache_info()[:2] == (2, 1)  # (hits, misses)


def test_one_model_search_per_parsed_presentation(capsys, monkeypatch):
    """`frame leq`, `elements`, `points`, `hausdorff` and `leq` again on
    one file read the one frame built for its presentation: the models
    are searched for once."""
    search, calls = pointfree.presentations.find_models, []

    def counted(p):
        calls.append(p)
        return search(p)

    for mod in (pointfree.presentations, pointfree.frames):
        for name, value in list(vars(mod).items()):
            if value is search:
                monkeypatch.setattr(mod, name, counted)
    pres = THY / "cantor1.pres"
    parsed_input.cache_clear()
    for argv in (["leq", pres, "z0", "z0 | u0"], ["elements", pres],
                 ["points", pres], ["hausdorff", pres],
                 ["leq", pres, "top", "z0"]):
        assert run(capsys, "frame", *argv)[0] == 0
    assert len(calls) == 1


def test_an_edited_file_is_parsed_again(capsys, tmp_path):
    pres = tmp_path / "edited.pres"
    pres.write_text("gen a b\n")
    assert run_json(capsys, "frame", "points", pres)[1]["count"] == 4
    pres.write_text("gen a b\nrel a & b <= bot\n")
    assert run_json(capsys, "frame", "points", pres)[1]["count"] == 3
    pres.write_text("gen a b\nrel a <= \n")
    assert run(capsys, "frame", "points", pres)[0] == 1


def test_the_memo_keeps_the_last_input_and_no_refusal(capsys):
    """`stone spectrum` then `stone birkhoff` on one file build one
    lattice; a query that fails keeps the last input."""
    parsed_input.cache_clear()
    for sub in ("spectrum", "birkhoff", "spectrum"):
        assert run(capsys, "stone", sub, THY / "bool4.lat")[0] == 0
    assert parsed_input.cache_info()[:2] == (2, 1)  # (hits, misses)
    assert run(capsys, "frame", "elements", THY / "cantor.thy",
               "--truncate", "N=9")[0] == 2
    assert run(capsys, "stone", "spectrum", THY / "m3.lat")[0] == 1
    assert run(capsys, "stone", "birkhoff", THY / "bool4.lat")[0] == 0
    assert parsed_input.cache_info()[:2] == (3, 3)
    assert run(capsys, "stone", "birkhoff", THY / "chain3.lat")[0] == 0
    assert parsed_input.cache_info()[:2] == (3, 4)
