"""The span tracer of bench/tracing.py still finds every layer function it
wraps, so `bench/run.py --trace 1` keeps working after a refactor.  The
tracer is loaded from bench/ by path and installed on the package for the
duration of one test."""

import importlib
import importlib.util
import json
from pathlib import Path

import pointfree.cli

ROOT = Path(__file__).resolve().parents[1]
THY = ROOT / "theories"

QUERIES = [
    ["frame", "compact", THY / "cantor1.pres"],
    ["theory", "models", THY / "surj.thy", "--truncate", "n=2,X=2"],
    ["stone", "birkhoff", THY / "bool4.lat"],
    ["evt", "validate", "--expr", "x*(1-x)", "--domain", "[0,1]",
     "--probes", "3"],
]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_all(capsys):
    # each pass starts from a cold memo of parsed inputs, so the traced
    # pass parses, searches and builds what the plain pass did
    pointfree.cli.parsed_input.cache_clear()
    out = []
    for argv in QUERIES:
        # through the module attribute, which the tracer replaces
        code = pointfree.cli.main([str(a) for a in argv] + ["--json"])
        out.append((code, json.loads(capsys.readouterr().out)))
    return out


def test_bench_tracer_wraps_every_layer(capsys):
    tracing = load_tracing()
    mods = {layer: importlib.import_module(f"pointfree.{layer}")
            for layer in tracing.LAYERS}
    functions = {(layer, name): getattr(mods[layer], name)
                 for layer, funcs in tracing.LAYERS.items()
                 for name, _ in funcs}
    methods = {(cls, meth): getattr(mods[layer], cls).__dict__[meth]
               for layer, cls, meth, _, _ in tracing.METHODS}
    plain = run_all(capsys)
    tracer = tracing.Tracer()
    tracer.install("pointfree")
    try:
        for (layer, name), orig in functions.items():
            assert getattr(mods[layer], name).__wrapped__ is orig, name
        for layer, cls, meth, _, _ in tracing.METHODS:
            wrapped = getattr(mods[layer], cls).__dict__[meth]
            assert wrapped.__wrapped__ is methods[cls, meth], cls
        traced = run_all(capsys)
    finally:
        tracer.uninstall()
    assert traced == plain and all(code == 0 for code, _ in plain)
    recorded = tracer.layer_metrics()
    assert {name.split(".")[0] for name in recorded} == set(tracing.LAYERS)
    assert recorded["cli.main"]["calls"] == len(QUERIES)
    assert "order.DistLattice" in recorded
    for (layer, name), orig in functions.items():
        assert getattr(mods[layer], name) is orig
    for layer, cls, meth, _, _ in tracing.METHODS:
        assert getattr(mods[layer], cls).__dict__[meth] is methods[cls, meth]
