"""Command-line interface: exit codes, JSON output, and determinism."""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pointfree.cli import main

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


def test_exit_code_cap_exceeded(capsys, tmp_path):
    big = tmp_path / "big.pres"
    big.write_text("gen " + " ".join(f"g{i}" for i in range(9)) + "\n")
    code, _, err = run(capsys, "frame", "elements", big)
    assert code == 2 and "error:" in err


def test_config_env_overrides_caps(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator_cap": 4}))
    monkeypatch.setenv("POINTFREE_CONFIG", str(cfg))
    code, _, err = run(capsys, "frame", "elements", THY / "cantor.thy",
                       "--truncate", "N=3")
    assert code == 2


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
                   "exceeding cap 16\n")
    assert secs < 5


def test_stone_refuses_a_large_lattice_before_building_it(capsys, tmp_path):
    chain = tmp_path / "chain150.lat"
    chain.write_text("elements: " + " ".join(f"c{i}" for i in range(150))
                     + "\nleq: " + " ".join(f"c{i}<c{i + 1}"
                                            for i in range(149)) + "\n")
    code, out, err, secs = run_timed(capsys, "stone", "spectrum", chain)
    assert code == 2 and out == ""
    assert err == "error: lattice has size 150, exceeding cap 16\n"
    assert secs < 5


def test_compile_refuses_before_naming_the_generators(capsys):
    code, out, err, secs = run_timed(capsys, "theory", "compile",
                                     THY / "cantor.thy",
                                     "--truncate", "N=3000000")
    assert code == 2 and out == ""
    assert err == "error: generators has size 6000000, exceeding cap 8\n"
    assert secs < 5


@pytest.mark.parametrize("argv", [
    ["evt", "max", "--expr", "x", "--domain", "[0,1]", "--decimal", "-1"],
    ["evt", "validate", "--expr", "x", "--domain", "[0,1]", "--probes", "-5"],
    ["evt", "validate", "--expr", "x", "--domain", "[0,1]", "--probes", "x"],
    ["frame", "bogus", str(THY / "cantor1.pres")],
    []], ids=["decimal -1", "probes -5", "probes x", "frame bogus", "empty"])
def test_bad_arguments_are_parse_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_help_still_exits_zero():
    for argv in (["--help"], ["evt", "--help"]):
        done = subprocess.run([sys.executable, "-m", "pointfree.cli"] + argv,
                              capture_output=True, cwd=ROOT)
        assert done.returncode == 0 and b"usage:" in done.stdout


@pytest.mark.parametrize("body, field", [
    ({"generator_cap": "x"}, "generator_cap"),
    ({"coproduct_cap": True}, "coproduct_cap"),
    ({"poset_cap": 1.5}, "poset_cap"),
    ({"generator_cap": 4, "bogus_cap": 4}, "bogus_cap"),
    ({"positivity_scan_cap": 12}, "positivity_scan_cap"),
    ({"directed_scan_cap": 16}, "directed_scan_cap"),
    ([1, 2], "JSON object")])
def test_config_rejects_bad_fields(capsys, tmp_path, monkeypatch, body, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    monkeypatch.setenv("POINTFREE_CONFIG", str(cfg))
    code, out, err = run(capsys, "frame", "points", THY / "cantor1.pres")
    assert code == 1 and out == ""
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


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
    ["stone", "spectrum", str(THY / "bool4.lat")],
    ["evt", "max", "--expr", "max(abs(x), 1 - x^2)", "--domain", "[-1,2]",
     "--eps", "1/1000", "--trace"],
    ["evt", "validate", "--expr", "x*(1-x)", "--domain", "[0,1]",
     "--eps", "1/100", "--probes", "5"],
]


@pytest.mark.parametrize("cmd", DETERMINISM_CMDS,
                         ids=[" ".join(c[:2]) for c in DETERMINISM_CMDS])
def test_byte_identical_json_across_processes(cmd):
    def once():
        return subprocess.run(
            [sys.executable, "-m", "pointfree.cli"] + cmd + ["--json"],
            capture_output=True, cwd=ROOT)
    a, b = once(), once()
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and a.stdout
    json.loads(a.stdout)  # well-formed


# --- golden output -----------------------------------------------------------------

# --json stdout and exit codes recorded from the code before the bitmask
# frame engine: frame elements/points/compact and theory models on every
# file in theories/ (with the README's truncations, plus cantor N=3), stone
# spectrum/birkhoff, and evt max with a normal and two budget-exhausted
# payloads; outputs over 8 kB are pinned by their sha256.  frame hausdorff
# (recorded from the coproduct-search code): true with its witness on
# cantor1.pres, cantor.thy N=1 and surj.thy n=2,X=2 and n=1,X=2, false on
# sierpinski.thy, and the coproduct-cap refusals (exit 2, stderr pinned too)
# on free2.pres and cantor.thy N=2.  frame leq and frame overt (recorded
# from the rescanning saturate): bot, top and joins of meets, an unknown
# generator with its stderr, and accepted and rejected certificates on
# cantor1.pres, free2.pres, cantor.thy N=2 and N=3 and surj.thy n=2,X=2
GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[" ".join(g["argv"]) for g in GOLDEN])
def test_golden_json(capsys, case):
    argv = [str(ROOT / a) if a.startswith("theories/") else a
            for a in case["argv"]]
    code, out, err = run(capsys, *argv, "--json")
    assert code == case["exit"]
    if "stdout" in case:
        assert out == case["stdout"]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
    if "stderr" in case:
        assert err == case["stderr"]
