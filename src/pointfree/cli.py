"""Command-line frontend.

Subcommands: `frame` (inspection of presented frames), `theory` (the
geometric-theory compiler), `stone` (finite Stone/Birkhoff duality) and
`evt` (the certified maximizer).  Exit codes: 0 success, 1 parse or input
error, 2 desk-scale cap overflow, 3 search budget exhaustion.  A subcommand
imports the engine modules it reads when it runs, and only those.
"""

import argparse
import functools
import json
import sys

from .config import load_limits, read_input
from .errors import (MAX_INT_DIGITS, BudgetExhausted, CapExceeded,
                     ParseError, PointfreeError)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_BUDGET = 3


def _emit(payload, args):
    if args.json:
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
        elif isinstance(value, str) and "\n" in value:  # a block of lines
            yield f"{prefix}{key}:"
            yield from (f"{prefix}  {line}" for line in value.splitlines())
        elif isinstance(value, list):
            yield f"{prefix}{key}: ({len(value)})"
            for item in value:
                yield f"{prefix}  {_fmt(item)}"
        else:
            yield f"{prefix}{key}: {_fmt(value)}"


def _fmt(value):
    if isinstance(value, (list, tuple)):
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
        if name.strip() in out:
            raise ParseError(f"truncation binding {name.strip()!r} is repeated")
        try:
            if not num.isascii() or "_" in num:  # int() takes both
                raise ValueError
            out[name.strip()] = int(num)
        except ValueError:
            raise ParseError(f"bad truncation bound {num!r}")
    return out


# --- parsed inputs ----------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def parsed_input(kind, text, truncate, limits):
    """The input file of this text: the DistLattice of a lattice ("lat"),
    else the presentation, not stabilized, of a theory ("thy") or a
    presentation file ("pres"), within generator_cap.

    The input parsed last is kept, so that the next query on it skips the
    parse; a presentation also carries its PresentedFrame once a query has
    built it (p.frame), so the model search and the J masks run once per
    input.  The frame holds nothing that depends on the query.  The memo
    is keyed by the file's text, so an edited file is parsed again, and a
    call that raises keeps nothing new, so a refusal redoes its work and
    refuses again.  One input is kept, as a session asks its questions of
    one file in a row: an input kept longer is cold when it is dropped,
    and freeing it slowed the queries on fresh files.  A one-shot process
    sees only misses."""
    if kind == "lat":
        from . import order
        return order.parse_lattice_text(text, limits=limits)
    if kind == "thy":  # the theory is parsed before the truncation
        from . import theories
        p = None if truncate else theories.flat_presentation(text, limits)
        return p if p is not None else theories.instantiate(
            theories.parse_theory(text), _parse_truncation(truncate),
            limits=limits)
    from . import presentations
    return presentations.parse_presentation_text(text, limits)


def _load_presentation(path, truncate, limits):
    """The presentation of either a presentation file or a theory file
    (detected from the first directive), within generator_cap."""
    text = read_input(path)
    first = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            first = line.split()[0]
            break
    theory = first in ("prop", "axiom")
    trunc = _parse_truncation(truncate)  # reported before a bad theory
    if trunc and not theory:
        raise ParseError(f"truncation binding {next(iter(trunc))!r} needs a "
                         "theory file, not a presentation")
    return parsed_input("thy" if theory else "pres", text, truncate, limits)


# --- frame --------------------------------------------------------------------

def cmd_frame(args, limits):
    from . import frames, presentations
    p = _load_presentation(args.file, args.truncate, limits)
    if args.sub == "leq":
        join, saturate = presentations.parse_join, presentations.saturate
        a = saturate(p, join(args.lhs), limits)
        b = saturate(p, join(args.rhs), limits)
        _emit({"lhs": str(a), "rhs": str(b), "leq": bool(a <= b)}, args)
        return EXIT_OK
    if args.sub == "overt":
        meets = list(map(presentations.parse_meet, args.positive.split(",")))
        verdict = presentations.check_positivity_certificate(p, meets,
                                                             limits)
        _emit({"certificate_accepted": verdict,
               "candidates": sorted(set(map(presentations.meet_str, meets)))},
              args)
        return EXIT_OK
    if args.sub == "compact":
        _emit(frames.is_compact_presentation(p, limits=limits), args)
        return EXIT_OK

    frame = p.frame
    if args.sub == "elements":
        elems, edges = frame.elements(limits)
        _emit({"count": len(elems), "elements": frame.names(elems),
               "hasse_edges": edges}, args)
        return EXIT_OK
    if args.sub == "points":
        pts = frame.points()
        _emit({"count": len(pts), "points": pts}, args)
        return EXIT_OK
    # hausdorff: |f| = |D(J)|, counted once, before the elements are listed
    frames.carrier_cap(frame.count_downsets(limits) ** 2, limits)
    elems, _ = frame.elements(limits)
    verdict, witness = frames.closed_diagonal(
        elems, frame.join_primes, frame.le, int.__and__, frame.bottom)
    payload = {"hausdorff": verdict}
    if witness is not None:
        payload["witness"] = sorted(
            f"{frame.name(u)}*{frame.name(v)}" for (u, v) in witness)
    _emit(payload, args)
    return EXIT_OK


# --- theory -------------------------------------------------------------------

def cmd_theory(args, limits):
    text = read_input(args.file)
    if args.sub == "parse":
        from . import theories
        ast = theories.parse_theory(text)
        _emit({"families": [f"{f.name}({', '.join(map(str, f.bounds))})"
                            for f in ast.families],
               "axioms": [str(ax) for ax in ast.axioms],
               "pretty": theories.pretty_print(ast)}, args)
        return EXIT_OK
    p = parsed_input("thy", text, args.truncate, limits)
    if args.sub == "compile":  # the covers as instantiated present the frame
        from . import presentations
        _emit({"generators": list(p.generators),
               "presentation": presentations.presentation_text(p)}, args)
        return EXIT_OK
    ms = p.frame.points()
    # a finite frame is spatial: it is nontrivial when it has a point
    _emit({"count": len(ms), "models": ms, "frame_nontrivial": bool(ms)},
          args)
    return EXIT_OK


# --- stone --------------------------------------------------------------------

def cmd_stone(args, limits):
    from . import order
    text = read_input(args.file)
    lattice = parsed_input("lat", text, "", limits)
    if args.sub == "spectrum":
        filters = order.prime_filters(lattice)
        _emit({"count": len(filters),
               "prime_filters": [sorted(map(str, f)) for f in filters]}, args)
        return EXIT_OK
    # birkhoff
    irr, to_downset, _ = order.birkhoff_iso(lattice)
    _emit({"irreducibles": [str(e) for e in irr.elements],
           "irreducible_hasse": [[str(a), str(b)]
                                 for a, b in irr.hasse_edges()],
           # every j is join-prime, so a ↦ J ∩ ↓a is onto D(J)
           "downsets": len(lattice.elements),
           "isomorphism_verified": True}, args)
    return EXIT_OK


# --- evt ----------------------------------------------------------------------

def _pairs(intervals):
    from . import reals
    return [[reals.rat_str(i.lo), reals.rat_str(i.hi)] for i in intervals]


def _enclosure_payload(enc, cover, args):
    from . import reals
    payload = {"lower": reals.rat_str(enc.lower),
               "upper": reals.rat_str(enc.upper),
               "eps": reals.rat_str(enc.eps),
               "nodes_expanded": enc.nodes_expanded,
               "cover": _pairs(cover.intervals),
               "cover_width_bound": reals.rat_str(cover.delta)}
    if args.trace:
        payload["trace"] = [[reals.rat_str(lo), reals.rat_str(hi)]
                            for lo, hi in enc.trace]
    if args.decimal is not None:
        k = args.decimal
        payload["approx_decimal"] = {
            "digits": k,
            "lower": reals.rat_decimal(enc.lower, k),
            "upper": reals.rat_decimal(enc.upper, k),
            "note": "decimal approximations; the rational fields are exact"}
    return payload


def cmd_evt(args, limits):
    from . import evt as evtmod, reals
    if args.budget is not None:
        import dataclasses
        limits = dataclasses.replace(limits, bnb_node_budget=args.budget)
    e = reals.parse_expr(args.expr)
    d = reals.parse_domain(args.domain)
    if args.sub == "max":
        eps = reals.parse_rat(args.eps)
        try:
            enc, cover = evtmod.evt_maximize(e, d, eps, limits=limits)
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
        branch = evtmod.locate(e, d, p, q, limits=limits)
        if isinstance(branch, evtmod.LeftBranch):
            _emit({"branch": "left", "claim": f"{reals.rat_str(p)} < max",
                   "witness": _pairs([branch.witness])[0],
                   "certified_bound": reals.rat_str(branch.bound)}, args)
        else:
            _emit({"branch": "right", "claim": f"max < {reals.rat_str(q)}",
                   "threshold": reals.rat_str(branch.threshold),
                   "pieces": _pairs(branch.pieces)},
                  args)
        return EXIT_OK
    # validate
    import random
    from fractions import Fraction
    eps = reals.parse_rat(args.eps)
    enc, cover = evtmod.evt_maximize(e, d, eps, limits=limits)
    rng = random.Random(args.seed)
    probes = []
    lo, hi = enc.lower - 1, enc.upper + 1
    for _ in range(args.probes):
        a = lo + (hi - lo) * Fraction(rng.randrange(0, 1000), 1000)
        b = a + Fraction(rng.randrange(1, 1000), 1000)
        probes.append((a, b))
    report = evtmod.cut_validate(enc, probes, e, d, limits=limits)
    _emit({"ok": report["ok"], "probes": report["probes"],
           "failures": [json.dumps(f, sort_keys=True)
                        for f in report["failures"]],
           "trace_monotone": report["trace_monotone"],
           "lower": reals.rat_str(enc.lower),
           "upper": reals.rat_str(enc.upper)}, args)
    return EXIT_OK


# --- entry point ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a prefix of a flag is not that flag
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # a usage error exits 1, as exit 2 means a cap
        raise ParseError(message)


class _Once(argparse.Action):
    """Stores a value or a flag's const, refusing a second occurrence."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("given_", set())
        if self.dest in given:
            parser.error(f"argument {option_string}: given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, self.const or values)


def _non_negative(text):
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return _int(text)


def _integer(text):  # int() also takes other Unicode digits and `_`
    if not text.isascii() or "_" in text:
        raise argparse.ArgumentTypeError(
            f"expected an integer in ASCII digits, got {text!r}")
    try:
        return _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _int(text):  # int() of ASCII text, within MAX_INT_DIGITS
    digits = sum(map(str.isdigit, text))
    if digits > MAX_INT_DIGITS:  # int() would raise a ValueError, echoed
        raise argparse.ArgumentTypeError(
            f"expected an integer of at most {MAX_INT_DIGITS} digits, got "
            f"{digits} digits")
    return int(text)


def _at_most(bound, unit):
    def at_most(text):  # a non-negative integer of at most bound
        value = _non_negative(text)
        if value > bound:
            raise argparse.ArgumentTypeError(
                f"expected at most {bound} {unit}, got {text!r}")
        return value
    return at_most


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args returns a
    fresh namespace each call and leaves the parser as it was.  Each
    subcommand takes exactly the arguments it reads and names its `run`."""
    top = _Parser(
        prog="pointfree",
        description="Exact pointfree topology and certified maximization.")
    top.leaves = {}  # (group, leaf) -> the leaf's parser, for parse_argv
    groups = top.add_subparsers(dest="command", required=True)

    def group(name, help, run, leaves, file=None):
        subs = groups.add_parser(name, help=help).add_subparsers(
            dest="sub", required=True)
        out = {leaf: subs.add_parser(leaf) for leaf in leaves.split()}
        for leaf, sp in out.items():
            top.leaves[name, leaf] = sp
            sp.register("action", None, _Once)  # every argument with a value
            sp.register("action", "store_true", functools.partial(
                _Once, nargs=0, const=True, default=False))
            sp.set_defaults(run=run, command=name, sub=leaf)
            sp.add_argument("--json", action="store_true",
                            help="machine-readable JSON output")
            if file:
                sp.add_argument("file", help=file)
        return out

    fr = group("frame", "inspect a presented frame", cmd_frame,
               "elements leq points hausdorff overt compact",
               file="presentation (.pres) or theory (.thy) file")
    for sp in fr.values():
        sp.add_argument("--truncate", default="",
                        help="truncation bounds for theory files, e.g. N=2")
    fr["leq"].add_argument("lhs", help="join of meets, e.g. 'z0 & u0 | top'")
    fr["leq"].add_argument("rhs", help="join of meets, or bot")
    fr["overt"].add_argument("--positive", required=True,
                             help="candidate positive meets, e.g. 'top,z0,u0'")

    th = group("theory", "parse or compile a geometric theory", cmd_theory,
               "parse compile models", file="theory (.thy) file")
    for sp in (th["compile"], th["models"]):
        sp.add_argument("--truncate", default="",
                        help="truncation bounds, e.g. N=2 or n=1,X=2")

    group("stone", "finite Stone / Birkhoff duality", cmd_stone,
          "spectrum birkhoff", file="lattice (.lat) file")

    ev = group("evt", "certified global maximization", cmd_evt,
               "max locate validate")
    for sp in ev.values():
        sp.add_argument("--expr", required=True,
                        help="expression in x, e.g. 'x*(1-x)'")
        sp.add_argument("--domain", required=True, help="e.g. '[0,1] u [2,3]'")
        sp.add_argument("--budget", type=_non_negative,
                        help="node budget override")
    for sp in (ev["max"], ev["validate"]):
        sp.add_argument("--eps", default="1/1000",
                        help="enclosure width target (exact rational)")
    ev["max"].add_argument("--trace", action="store_true",
                           help="include the monotone bound trace")
    ev["max"].add_argument("--decimal", metavar="K",
                           type=_at_most(MAX_INT_DIGITS, "digits"),
                           help="also print K-digit decimal approximations, "
                           f"K at most {MAX_INT_DIGITS}")
    ev["locate"].add_argument("--p", required=True, help="lower probe")
    ev["locate"].add_argument("--q", required=True, help="upper probe")
    ev["validate"].add_argument("--probes", type=_at_most(10000, "probes"),
                                default=20,
                                help="number of random probes, at most "
                                "10000")
    ev["validate"].add_argument("--seed", type=_integer, default=0,
                                help="probe generator seed")
    for sp in top.leaves.values():  # the leaf's actions, --help left out
        acts = [a for a in sp._actions if a.default is not argparse.SUPPRESS]
        sp.table = ({s: a for a in acts for s in a.option_strings},
                    [a for a in acts if not a.option_strings],
                    {a.dest for a in acts if a.required},
                    {**{a.dest: a.default for a in acts}, **sp._defaults})
    return top


def _read(table, words):
    """The namespace the leaf's parser gives words, read off its action
    table, when each is a positional, a bare store_true flag, or a flag
    with its value after `=` or in the next word; else None, as for a word
    or spaced value that starts with `-`, a repeated option, a type that
    raises or a missing argument."""
    flags, positionals, required, defaults = table
    args, given = argparse.Namespace(), set()
    ns = vars(args)
    ns.update(defaults)
    words, left = iter(words), iter(positionals)
    for word in words:
        if word[:1] != "-":
            action, value = next(left, None), word
        else:
            flag, eq, value = word.partition("=")
            action = flags.get(flag)
            if action is not None and action.nargs == 0:  # a bare flag
                value = None if eq else action.const
            elif not eq and (value := next(words, "-"))[:1] == "-":
                return None
        if action is None or value is None or action.dest in given:
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        ns[action.dest] = value
        given.add(action.dest)  # as _Once records it
    if not required <= given:
        return None
    if given:
        ns["given_"] = given
    return args


def parse_argv(argv):
    """argv read off the action table of the leaf its first two words
    name, as that leaf's parser would read it; any other argv (help, a
    usage error, an odd spelling) takes the walk down the tree."""
    leaf = build_parser().leaves.get(tuple(argv[:2]))
    args = None if leaf is None else _read(leaf.table, argv[2:])
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        sys.set_int_max_str_digits(MAX_INT_DIGITS)  # not PYTHONINTMAXSTRDIGITS
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        return args.run(args, load_limits())
    except (PointfreeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_CAP if isinstance(exc, CapExceeded) else EXIT_BUDGET
                if isinstance(exc, BudgetExhausted) else EXIT_PARSE)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
