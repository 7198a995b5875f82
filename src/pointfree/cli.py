"""Command-line frontend.

Subcommands: `frame` (inspection of presented frames), `theory` (the
geometric-theory compiler), `stone` (finite Stone/Birkhoff duality) and
`evt` (the certified maximizer).  Exit codes: 0 success, 1 parse or input
error, 2 desk-scale cap overflow, 3 search budget exhaustion.
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from . import evt as evtmod
from . import frames, order, presentations, reals, theories
from .config import load_limits
from .errors import (BudgetExhausted, CapExceeded, NotDistributive,
                     ParseError, PointfreeError)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_BUDGET = 3


def _emit(payload, args):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in _text_lines(payload):
            print(line)


def _text_lines(payload, prefix=""):
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            yield f"{prefix}{key}:"
            yield from _text_lines(value, prefix + "  ")
        elif isinstance(value, list):
            yield f"{prefix}{key}: ({len(value)})"
            for item in value:
                yield f"{prefix}  {_fmt(item)}"
        else:
            yield f"{prefix}{key}: {_fmt(value)}"


def _fmt(value):
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _parse_truncation(text):
    out = {}
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise ParseError(f"bad truncation binding {part!r}")
        name, _, num = part.partition("=")
        try:
            out[name.strip()] = int(num)
        except ValueError:
            raise ParseError(f"bad truncation bound {num!r}")
    return out


def _load_presentation(path, truncate, limits):
    """A stabilized presentation from either a presentation file or a
    theory file (detected from the first directive)."""
    with open(path) as fh:
        text = fh.read()
    first = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            first = line.split()[0]
            break
    if first in ("prop", "axiom"):
        ast = theories.parse_theory(text)
        return theories.compile_theory(ast, _parse_truncation(truncate),
                                       cap=limits.generator_cap)
    return presentations.stabilize(
        presentations.parse_presentation_text(text),
        cap=limits.generator_cap)


def _parse_element_expr(p, text):
    """Expressions over generators: joins (`|`) of formal meets (`&`),
    plus `bot` and `top`."""
    text = text.strip()
    if text == "bot":
        return presentations.cideal_bottom(p)
    parts = [part.strip() for part in text.split("|")]
    meets = []
    for part in parts:
        if part == "top":
            meets.append(presentations.TOP_MEET)
            continue
        names = [n.strip() for n in part.split("&")]
        for n in names:
            if n not in p.generators:
                raise ParseError(f"unknown generator {n!r}")
        meets.append(frozenset(names))
    return presentations.saturate(p, meets)


# --- frame --------------------------------------------------------------------

def cmd_frame(args, limits):
    p = _load_presentation(args.file, args.truncate, limits)
    if args.sub == "leq":
        if args.lhs is None or args.rhs is None:
            raise ParseError("leq needs two element expressions")
        a = _parse_element_expr(p, args.lhs)
        b = _parse_element_expr(p, args.rhs)
        _emit({"lhs": str(a), "rhs": str(b), "leq": bool(a <= b)}, args)
        return EXIT_OK
    if args.sub == "overt":
        if args.positive is None:
            raise ParseError("overt needs --positive with candidate meets")
        meets = []
        for part in args.positive.split(","):
            part = part.strip()
            meets.append(presentations.TOP_MEET if part == "top"
                         else frozenset(n.strip() for n in part.split("&")))
        verdict = presentations.check_positivity_certificate(p, meets)
        _emit({"certificate_accepted": verdict,
               "candidates": sorted(presentations.meet_str(m) for m in meets)},
              args)
        return EXIT_OK
    if args.sub == "compact":
        report = frames.is_compact_presentation(p, cap=limits.generator_cap)
        _emit(report, args)
        return EXIT_OK

    if args.sub == "elements":
        frame = frames.PresentedFrame(p, cap=limits.generator_cap)
        elems, edges = frame.elements()
        names = {e: str(presentations.CIdeal(p, frame.cideal(e)))
                 for e in elems}
        _emit({"count": len(elems),
               "hasse_edges": [[names[a], names[b]] for a, b in edges]},
              args)
        return EXIT_OK
    if args.sub == "points":
        pts = frames.PresentedFrame(p, cap=limits.generator_cap).points()
        _emit({"count": len(pts), "points": pts}, args)
        return EXIT_OK
    if args.sub == "hausdorff":
        frame = frames.PresentedFrame(p, cap=limits.generator_cap)
        # |f| = |D(J)|, counted before the elements are listed
        frames.diagonal_cap(frame.count_downsets(), limits.coproduct_cap)
        elems, _ = frame.elements()
        verdict, witness = frames.closed_diagonal(
            elems, frame.join_primes, frame.le, int.__and__, frame.bottom,
            cap=limits.coproduct_cap)
        payload = {"hausdorff": verdict}
        if witness is not None:
            names = {e: str(presentations.CIdeal(p, frame.cideal(e)))
                     for e in elems}
            payload["witness"] = sorted(f"{names[u]}*{names[v]}"
                                        for (u, v) in witness)
        _emit(payload, args)
        return EXIT_OK
    raise ParseError(f"unknown frame subcommand {args.sub!r}")


# --- theory -------------------------------------------------------------------

def cmd_theory(args, limits):
    with open(args.file) as fh:
        ast = theories.parse_theory(fh.read())
    if args.sub == "parse":
        _emit({"families": [f"{f.name}({', '.join(map(str, f.bounds))})"
                            for f in ast.families],
               "axioms": [str(ax) for ax in ast.axioms],
               "pretty": theories.pretty_print(ast)}, args)
        return EXIT_OK
    trunc = _parse_truncation(args.truncate)
    p = theories.compile_theory(ast, trunc, cap=limits.generator_cap)
    if args.sub == "compile":
        _emit({"generators": list(p.generators),
               "presentation": presentations.presentation_text(p)}, args)
        return EXIT_OK
    if args.sub == "models":
        frame = frames.PresentedFrame(p, cap=limits.generator_cap)
        ms = frame.points()
        _emit({"count": len(ms), "models": ms,
               "frame_nontrivial": frame.bottom != frame.top}, args)
        return EXIT_OK
    raise ParseError(f"unknown theory subcommand {args.sub!r}")


# --- stone --------------------------------------------------------------------

def cmd_stone(args, limits):
    with open(args.file) as fh:
        text = fh.read()
    # counted on the elements line, before the order and tables are built
    size = len(set(order.read_poset_text(text)[0]))
    if size > limits.poset_cap:
        raise CapExceeded("lattice", size, limits.poset_cap)
    lattice = order.parse_lattice_text(text)
    if args.sub == "spectrum":
        filters = order.prime_filters(lattice)
        _emit({"count": len(filters),
               "prime_filters": [sorted(map(str, f)) for f in filters]}, args)
        return EXIT_OK
    if args.sub == "birkhoff":
        irr, to_downset, _ = order.birkhoff_iso(lattice)
        _emit({"irreducibles": [str(e) for e in irr.elements],
               "irreducible_hasse": [[str(a), str(b)]
                                     for a, b in irr.hasse_edges()],
               "downsets": len(order.enumerate_downsets(irr)),
               "isomorphism_verified": True}, args)
        return EXIT_OK
    raise ParseError(f"unknown stone subcommand {args.sub!r}")


# --- evt ----------------------------------------------------------------------

def _interval_pair(i):
    return [reals.rat_str(i.lo), reals.rat_str(i.hi)]


def _enclosure_payload(enc, cover, args):
    payload = {"lower": reals.rat_str(enc.lower),
               "upper": reals.rat_str(enc.upper),
               "eps": reals.rat_str(enc.eps),
               "nodes_expanded": enc.nodes_expanded,
               "cover": [_interval_pair(b) for b in cover.intervals],
               "cover_width_bound": reals.rat_str(cover.delta)}
    if getattr(args, "trace", False):
        payload["trace"] = [[reals.rat_str(lo), reals.rat_str(hi)]
                            for lo, hi in enc.trace]
    if getattr(args, "decimal", None) is not None:
        k = args.decimal
        payload["approx_decimal"] = {
            "digits": k,
            "lower": reals.rat_decimal(enc.lower, k),
            "upper": reals.rat_decimal(enc.upper, k),
            "note": "decimal approximations; the rational fields are exact"}
    return payload


def cmd_evt(args, limits):
    e = reals.parse_expr(args.expr)
    d = reals.parse_domain(args.domain)
    budget = (args.budget if args.budget is not None
              else limits.bnb_node_budget)
    if args.sub == "max":
        eps = reals.parse_rat(args.eps)
        try:
            enc, cover = evtmod.evt_maximize(e, d, eps, node_budget=budget)
        except BudgetExhausted as exc:
            enc, cover = exc.partial
            payload = _enclosure_payload(enc, cover, args)
            payload["budget_exhausted"] = True
            _emit(payload, args)
            return EXIT_BUDGET
        _emit(_enclosure_payload(enc, cover, args), args)
        return EXIT_OK
    if args.sub == "locate":
        p, q = reals.parse_rat(args.p), reals.parse_rat(args.q)
        branch = evtmod.locate(e, d, p, q, max_budget=budget)
        if isinstance(branch, evtmod.LeftBranch):
            _emit({"branch": "left", "claim": f"{reals.rat_str(p)} < max",
                   "witness": _interval_pair(branch.witness),
                   "certified_bound": reals.rat_str(branch.bound)}, args)
        else:
            _emit({"branch": "right", "claim": f"max < {reals.rat_str(q)}",
                   "threshold": reals.rat_str(branch.threshold),
                   "pieces": [_interval_pair(b) for b in branch.pieces]},
                  args)
        return EXIT_OK
    if args.sub == "validate":
        eps = reals.parse_rat(args.eps)
        enc, cover = evtmod.evt_maximize(e, d, eps, node_budget=budget)
        rng = random.Random(args.seed)
        probes = []
        lo, hi = enc.lower - 1, enc.upper + 1
        for _ in range(args.probes):
            a = lo + (hi - lo) * Fraction(rng.randrange(0, 1000), 1000)
            b = a + Fraction(rng.randrange(1, 1000), 1000)
            probes.append((a, b))
        report = evtmod.cut_validate(enc, probes, e, d)
        _emit({"ok": report["ok"], "probes": report["probes"],
               "failures": [json.dumps(f, sort_keys=True)
                            for f in report["failures"]],
               "trace_monotone": report["trace_monotone"],
               "lower": reals.rat_str(enc.lower),
               "upper": reals.rat_str(enc.upper)}, args)
        return EXIT_OK
    raise ParseError(f"unknown evt subcommand {args.sub!r}")


# --- entry point ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as exit 2 means a cap
        raise ParseError(message)


def _non_negative(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser():
    top = _Parser(
        prog="pointfree",
        description="Exact pointfree topology and certified maximization.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
        sp.add_argument("--decimal", type=_non_negative, metavar="K",
                        help="also print K-digit decimal approximations")

    fr = sub.add_parser("frame", help="inspect a presented frame")
    fr.add_argument("sub", choices=["elements", "leq", "points", "hausdorff",
                                    "overt", "compact"])
    fr.add_argument("file", help="presentation (.pres) or theory (.thy) file")
    fr.add_argument("lhs", nargs="?", help="left expression for leq")
    fr.add_argument("rhs", nargs="?", help="right expression for leq")
    fr.add_argument("--truncate", default="",
                    help="truncation bounds for theory files, e.g. N=2")
    fr.add_argument("--positive", help="candidate positive meets for overt, "
                    "e.g. 'top,z0,u0'")
    common(fr)

    th = sub.add_parser("theory", help="parse or compile a geometric theory")
    th.add_argument("sub", choices=["parse", "compile", "models"])
    th.add_argument("file")
    th.add_argument("--truncate", default="",
                    help="truncation bounds, e.g. N=2 or n=1,X=2")
    common(th)

    st = sub.add_parser("stone", help="finite Stone / Birkhoff duality")
    st.add_argument("sub", choices=["spectrum", "birkhoff"])
    st.add_argument("file", help="lattice file (elements:/leq: format)")
    common(st)

    ev = sub.add_parser("evt", help="certified global maximization")
    ev.add_argument("sub", choices=["max", "locate", "validate"])
    ev.add_argument("--expr", required=True,
                    help="expression in x, e.g. 'x*(1-x)'")
    ev.add_argument("--domain", required=True, help="e.g. '[0,1] u [2,3]'")
    ev.add_argument("--eps", default="1/1000",
                    help="enclosure width target (exact rational)")
    ev.add_argument("--p", help="lower probe for locate")
    ev.add_argument("--q", help="upper probe for locate")
    ev.add_argument("--trace", action="store_true",
                    help="include the monotone bound trace")
    ev.add_argument("--probes", type=_non_negative, default=20,
                    help="number of random probes for validate")
    ev.add_argument("--seed", type=int, default=0,
                    help="probe generator seed for validate")
    ev.add_argument("--budget", type=int,
                    help="node budget override")
    common(ev)
    return top


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        limits = load_limits()
        if args.command == "frame":
            return cmd_frame(args, limits)
        if args.command == "theory":
            return cmd_theory(args, limits)
        if args.command == "stone":
            return cmd_stone(args, limits)
        if args.command == "evt":
            if args.sub == "locate" and (args.p is None or args.q is None):
                raise ParseError("locate needs --p and --q")
            return cmd_evt(args, limits)
        raise ParseError(f"unknown command {args.command!r}")
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, NotDistributive, PointfreeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
