"""Benchmark of the `pointfree` CLI: seeded query streams, each answer
checked against an oracle that does not import the package.

    python3 bench/run.py --workload frames --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One client sends queries in a closed loop: each query is
`pointfree.cli.main([..., "--json"])` in this process with stdout and
stderr captured, and the next one goes out when it returns.  Whole rounds
of the workload run until --seconds have passed (see workloads.py).

Times are calibrated against the machine's speed (calibrate.py): a
reference time is taken before the first query and after each one, and
each query's wall time is scaled by REF_S over the mean of the reference
times around it; each set-up's by REF_S over the reference time its fresh
interpreter measures once it is ready.  The raw wall times are kept in the
bench/out record.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each query of
the first rounds twice, untraced and with a span around every call into
each layer (tracing.py), and reports per-layer self times and counts.  Either
way the last line of stdout is one JSON object; a fuller record goes to
bench/out/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")
SRC = os.path.join(ROOT, "src")

# Rounds every run executes, at least 100 queries: the digest covers them
# and the traced run replays them.
MIN_ROUNDS = {"frames": 2, "duality": 2, "evt": 2}
SETUP_SPAWNS = 15
# the child reports the median of three reference times taken once it is
# ready, on the CPU it ran on
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import pointfree.cli; pointfree.cli.build_parser(); "
              "sys.path.insert(0, sys.argv[2]); import calibrate; "
              "print(calibrate.median_reference(3))")

END_TO_END_UNITS = {"queries_per_s": "1/s", "query_s.p50": "s",
                    "query_s.p90": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_cli():
    """pointfree.cli from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "pointfree", "cli.py")):
        sys.exit(f"error: no pointfree sources under {SRC}")
    sys.path.insert(0, SRC)
    import pointfree.cli
    if not os.path.abspath(pointfree.cli.__file__).startswith(SRC + os.sep):
        sys.exit("error: pointfree was not imported from src/")
    return pointfree.cli


def measure_setup():
    """Medians, over fresh interpreters that import pointfree.cli and
    build its parser, of the calibrated and of the raw wall time."""
    times, raw = [], []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, BENCH],
                              cwd=ROOT, capture_output=True)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit("error: pointfree.cli does not import:\n"
                     + proc.stderr.decode(errors="replace"))
        ref = float(proc.stdout.decode().split()[-1])
        times.append(raw[-1] * calibrate.REF_S / ref)
    return statistics.median(times), statistics.median(raw)


class Loop:
    """Sends queries one at a time and records wall time and verdict,
    with a reference time (calibrate.py) before the first query and after
    each one."""

    def __init__(self, cli):
        self.cli = cli
        self.spans = []   # (start, end) of each query
        self.raw = []     # wall time of each query
        self.refs = calibrate.References()
        self.failures = []
        self.refused = 0
        self.repeats = 0
        self.seen = set()
        self.digest = hashlib.sha256()

    def send(self, k, query, tracer=None):
        if tracer is not None:
            tracer.query = k
        argv = query.argv + ["--json"]
        out, err = io.StringIO(), io.StringIO()
        rc, crash = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            crash = f"exit {exc.code}"
        except Exception:  # a traceback is a failed answer
            crash = traceback.format_exc()[-600:]
        t1 = time.perf_counter()
        self.refs.take()
        self.spans.append((t0, t1))
        self.raw.append(t1 - t0)
        text = out.getvalue()
        self.digest.update(text.encode() + b"\0")
        self.repeats += query.key in self.seen
        self.seen.add(query.key)
        error = crash or self._verdict(rc, text, query)
        if error == "refused":
            self.refused += 1
        elif error:
            self.failures.append({"query": k, "argv": argv, "error": error,
                                  "stderr": err.getvalue()[-300:]})

    @staticmethod
    def _verdict(rc, text, query):
        if rc in (2, 3):   # honest refusal: cap or budget
            return "refused"
        if rc != 0:
            return f"exit code {rc}"
        try:
            payload = json.loads(text)
        except ValueError:
            return "stdout is not JSON"
        try:
            return query.check(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed answer: {exc!r}"


def check_digest(workload, seed, digest):
    """Outputs of one workload and seed must be the same on every run in
    this checkout; returns False when an earlier run saw other bytes."""
    path = os.path.join(OUT, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    key = f"{workload}:{seed}"
    if known.setdefault(key, digest) != digest:
        return False
    with open(path, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return True


def timed_run(cli, workload, seed, seconds, files):
    loop = Loop(cli)
    digest = None
    start = time.perf_counter()
    r = 0
    ends = [0]   # query index at which each round ends
    while r < MIN_ROUNDS[workload] or time.perf_counter() - start < seconds:
        for query in workloads.round_queries(workload, seed, r, files):
            loop.send(len(loop.raw), query)
        ends.append(len(loop.raw))
        r += 1
        if r == MIN_ROUNDS[workload]:
            digest = loop.digest.hexdigest()
    lat = loop.refs.calibrate(loop.spans)
    raw = loop.raw
    per_round, per_round_raw = (
        [(b - a) / sum(times[a:b]) for a, b in zip(ends, ends[1:])]
        for times in (lat, raw))
    metrics = {
        # rounds have one structure, so the median round resists bursts
        # of load from outside the process
        "queries_per_s": statistics.median(per_round),
        "query_s.p50": statistics.median(lat),
        "query_s.p90": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    return loop, metrics, digest, {
        "rounds": r, "round_queries_per_s": per_round,
        "loop_wall_s": time.perf_counter() - start,
        "raw": {"queries_per_s": statistics.median(per_round_raw),
                "query_s.p50": statistics.median(raw),
                "query_s.p90": statistics.quantiles(raw, n=10)[8]}}


def traced_run(cli, workload, seed, files):
    queries = []
    for r in range(MIN_ROUNDS[workload]):
        queries += workloads.round_queries(workload, seed, r, files)
    plain, traced = Loop(cli), Loop(cli)
    tracer = tracing.Tracer()
    for k, query in enumerate(queries):
        # each query runs untraced and traced, in alternating order, so
        # warm-up and drift in machine speed fall on both sides alike
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                plain.send(k, query)
                continue
            tracer.install("pointfree")
            try:
                traced.send(k, query, tracer)
            finally:
                tracer.uninstall()
    layers = tracer.layer_metrics()
    metrics = per_layer_metrics(
        # raw wall times, as in the spans: the two sends of a query run
        # back to back, so a slow spell of the machine falls on both
        layers, sum(traced.raw) / sum(plain.raw) - 1,
        traced.refused / len(queries))
    digest = plain.digest.hexdigest()
    same = traced.digest.hexdigest() == digest
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}-{seed}.jsonl.gz"))
    return traced, metrics, digest, {"rounds": MIN_ROUNDS[workload],
                                     "passes_identical": same,
                                     "layers": layers}


PER_LAYER = [
    "cli.self_s", "cli.refused_frac",
    "theories.parse_theory.s", "theories.compile_theory.s",
    "theories.models.s",
    "presentations.parse_presentation_text.s", "presentations.stabilize.s",
    "presentations.stabilize.rules", "presentations.saturate.calls",
    "presentations.saturate.s",
    "frames.enumerate_frame.calls", "frames.enumerate_frame.s",
    "frames.enumerate_frame.elements", "frames.points.s",
    "frames.points.count", "frames.is_compact_presentation.s",
    "frames.coproduct.s", "frames.coproduct.tensor_elements",
    "frames.FrameHom.calls", "frames.FrameHom.s", "frames.is_hausdorff.s",
    "order.DistLattice.calls", "order.DistLattice.s",
    "order.DistLattice.table_entries", "order.parse_lattice_text.s",
    "order.prime_filters.s", "order.birkhoff_iso.s",
    "reals.parse_expr.s", "reals.eval_interval.calls", "reals.eval_interval.s",
    "reals.eval_point.calls", "reals.eval_point.s",
    "reals.denominator_bits.max",
    "evt.evt_maximize.calls", "evt.evt_maximize.s", "evt.evt_maximize.nodes",
    "evt.evt_maximize.cover_boxes", "evt.locate.s",
    "evt.positive_witness.calls", "evt.cover_certificate.calls",
    "evt.cut_validate.s",
    "trace.overhead_frac",
]


def layer_unit(name):
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("bits.max"):
        return "bits"
    return "count"


def per_layer_metrics(layers, overhead, refused_frac):
    """The PER_LAYER metrics from aggregated spans: `<span>.s` is self
    time, `<span>.calls` the number of calls, any other suffix an amount.
    A layer the workload never reaches reports 0."""
    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    special = {
        "cli.self_s": get("cli.main", "s"),
        "cli.refused_frac": refused_frac,
        "reals.denominator_bits.max": max(
            get("reals.eval_interval", "denominator_bits"),
            get("reals.eval_point", "denominator_bits")),
        "trace.overhead_frac": overhead,
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
        else:
            span, key = name.rsplit(".", 1)
            out[name] = get(span, key)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(MIN_ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    cli = import_cli()
    files = workloads.InputDir(os.path.join(
        "bench", "out", "inputs", f"{args.workload}-{args.seed}"))

    if args.trace:
        loop, metrics, digest, extra = traced_run(cli, args.workload,
                                                  args.seed, files)
        units = {name: layer_unit(name) for name in PER_LAYER}
        consistent = extra["passes_identical"]
    else:
        setup_s, setup_raw = measure_setup()
        loop, metrics, digest, extra = timed_run(cli, args.workload,
                                                 args.seed, args.seconds,
                                                 files)
        metrics["setup_s"] = setup_s
        extra["raw"]["setup_s"] = setup_raw
        units = END_TO_END_UNITS
        consistent = True
    consistent = check_digest(args.workload, args.seed, digest) and consistent
    attempted = len(loop.raw)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": len(loop.failures),
        "failed_frac": len(loop.failures) / attempted,
        "refused_frac": loop.refused / attempted,
        "repeat_share": loop.repeats / attempted,
        "digest_rounds": MIN_ROUNDS[args.workload],
        "output_sha256": digest, "digest_consistent": consistent,
        "metrics": metrics, "failures": loop.failures[:20],
        "python": platform.python_version(), **extra,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(
            OUT, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
            "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for f in loop.failures[:5]:
        print("FAILED", json.dumps(f))
    print(f"{args.workload} seed={args.seed}: {attempted} queries, "
          f"{len(loop.failures)} failed, refused_frac="
          f"{record['refused_frac']:.4f}, repeat_share="
          f"{record['repeat_share']:.4f}, sha256={digest}")
    print(json.dumps({
        "correct": not loop.failures and consistent,
        "attempted": attempted, "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
