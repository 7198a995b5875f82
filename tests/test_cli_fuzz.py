"""Fuzz test of the command line.

Each case is a subcommand drawn from `build_parser()`'s own tree, its own
arguments with random values, and small random `.pres`, `.thy`, `.lat` and
POINTFREE_CONFIG bodies, random bytes included.  Every run must exit 0-3
without a traceback within the deadline, a refusal must say so in one
`error:` line, and an argument owned by another subcommand must be a usage
error.  Each drawn argv, and each golden one, must parse the same on the
route `main` takes, through the leaf its first two words name, as on the
walk down the whole tree.  Drawn sizes stay small (at most four
generators, degree at most 27, node budgets at most 300), because a run in
this process that hangs cannot be stopped.

A second fuzz puts a huge integer, of 4,299 to 5,001 digits, into each
integer channel in turn: an integer option, a `.thy` bound, index or side
condition, an evt constant, or a config value.  One channel per case, so
that a huge cap never meets a huge input.  A node budget gets only values
past 4,300 digits, which its readers refuse: one that parsed would let
`evt max` refine a plateau's cover without end.
"""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from datetime import timedelta
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pointfree.cli import build_parser, main, parse_argv
from pointfree.errors import ParseError

ROOT = Path(__file__).resolve().parents[1]
THY = ROOT / "theories"
GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def leaves():
    """The parser of every subcommand by (group, leaf), read off the
    tree."""
    return {(group, leaf): sp
            for group, gp in _subparsers(build_parser()).items()
            for leaf, sp in _subparsers(gp).items()}


def owned(parser):
    """A leaf's arguments by name (the flag, or a positional's dest),
    --help left out."""
    return {(a.option_strings[0] if a.option_strings else a.dest): a
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)}


LEAVES = leaves()
ARGUMENTS = {name: action for sp in LEAVES.values()  # all, by name
             for name, action in owned(sp).items()}
VALUED = {name for name, action in ARGUMENTS.items()  # flags with a value
          if action.option_strings and action.nargs != 0}

# one well-formed value per argument name, for arguments passed to a
# subcommand that does not own them
SAMPLE = {"file": "in.pres", "lhs": "a", "rhs": "top", "--truncate": "N=1",
          "--positive": "top", "--expr": "x", "--domain": "[0,1]",
          "--budget": "5", "--eps": "1/10", "--decimal": "2", "--p": "0",
          "--q": "1", "--probes": "1", "--seed": "1"}


def tokens(name, value=None):
    action = ARGUMENTS[name]
    if not action.option_strings:
        return [SAMPLE[name] if value is None else value]
    if action.nargs == 0:
        return [name]
    return [name, SAMPLE[name] if value is None else value]


def foreign(group, parser):
    """The arguments of the leaf's siblings that it does not own, or of
    the whole tree when its siblings own none."""
    own = owned(parser)
    siblings = {n for (g, _), sp in LEAVES.items() if g == group
                for n in owned(sp)} - set(own)
    return sorted(siblings or set(ARGUMENTS) - set(own))


# --- random inputs -----------------------------------------------------------
# Each part is well formed but for a junk value once in a few draws, so that
# a good share of the cases gets past the parsers to the engines.

def mostly(good, bad, one_in=6):
    return st.integers(0, one_in - 1).flatmap(
        lambda k: bad if k == one_in - 1 else good)


junk = st.text(max_size=8)
dashed = st.sampled_from(["-1/2", "-x", "- x", "-5"])  # `-` first
GENS = ["z0", "u0", "z1", "u1"]  # also the generators of a theory at N=2


@st.composite
def huge(draw, fewest=4299):
    """An integer of `fewest` to 5,001 digits, leading zeros counted (as
    Python's int() counts them), signed, some with leading zeros."""
    n = draw(st.integers(fewest, 5001))
    zeros = draw(st.sampled_from([0, 0, 0, 2]))
    return (draw(st.sampled_from(["", "", "-"])) + "0" * zeros
            + draw(st.sampled_from("123456789"))
            + draw(st.sampled_from("0123456789")) * (n - zeros - 1))


@st.composite
def meet(draw):
    names = draw(st.lists(st.sampled_from(GENS), min_size=1, max_size=2,
                          unique=True))
    return draw(mostly(st.just(" & ".join(names)), st.just("top"), 4))


joins = st.lists(meet(), min_size=1, max_size=2).map(" | ".join)


@st.composite
def pres_text(draw):
    lines = ["gen " + " ".join(GENS)]
    for _ in range(draw(st.integers(0, 3))):
        rhs = draw(st.lists(meet(), max_size=2))
        lines.append(f"rel {draw(meet())} <= {' | '.join(rhs) or 'bot'}")
    return "\n".join(lines)


@st.composite
def thy_text(draw, huge_in=None):
    """A theory; with huge_in, a huge integer as the bound of a family of
    its own (so that a truncation still binds N), as an index or in a
    side condition."""
    fams = draw(st.lists(st.sampled_from(["z", "u"]), min_size=1,
                         max_size=2, unique=True))
    bound = draw(mostly(st.just("N"), st.just("2"), 4))
    lines = ["prop " + ", ".join(f"{f}[i]" for f in fams)
             + f" for i<{bound};"]
    if huge_in == "thy bound":
        lines.append(f"prop w[i] for i<{draw(huge())};")
    atoms = [f"{f}[i]" for f in fams]
    for _ in range(draw(st.integers(0, 2))):
        lhs = " & ".join(draw(st.lists(st.sampled_from(atoms), max_size=2,
                                       unique=True))) or "true"
        rhs = " | ".join(draw(st.lists(st.sampled_from(atoms),
                                       max_size=2))) or "false"
        lines.append(f"axiom {lhs} |- {rhs} for i<{bound};")
    if huge_in == "thy index":
        lines.append(f"axiom {fams[0]}[{draw(huge())}] |- false;")
    if huge_in == "thy condition":
        op = draw(st.sampled_from(["!=", "==", "<", "<="]))
        lines.append(f"axiom {fams[0]}[i] |- false for i<{bound} "
                     f"if i{op}{draw(huge())};")
    return "\n".join(lines)


LATTICES = ["elements: 0\nleq:\n", "elements: 0 m 1\nleq: 0<m m<1\n",
            "elements: 0 a b 1\nleq: 0<a 0<b a<1 b<1\n",
            "elements: 0 a b c 1\nleq: 0<a 0<b 0<c a<1 b<1 c<1\n",
            "elements: 0 a b c 1\nleq: 0<a a<b 0<c b<1 c<1\n"]


@st.composite
def lat_text(draw):
    names = draw(st.lists(st.sampled_from("01abc"), min_size=1, max_size=5,
                          unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names),
                                    st.sampled_from(names)), max_size=6))
    return (f"elements: {' '.join(names)}\n"
            f"leq: {' '.join(f'{x}<{y}' for x, y in pairs)}\n")


def body(text):
    """A file body: well-formed text with a junk line, or random bytes."""
    @st.composite
    def lines(draw):
        out = draw(text).split("\n")
        if draw(st.integers(0, 5)) == 5:
            out.insert(draw(st.integers(0, len(out))), draw(junk))
        return "\n".join(out).encode()
    return mostly(lines(), st.binary(max_size=24))


FILES = {".pres": body(pres_text()), ".thy": body(thy_text()),
         ".lat": body(mostly(st.sampled_from(LATTICES), lat_text(), 3))}
FILE_KINDS = {"frame": [".pres", ".thy"], "theory": [".thy"],
              "stone": [".lat"]}

# every config bounds the node budget: a run in this process cannot be
# stopped, and the default budget is a million nodes
CONFIG_FIELDS = {"poset_cap": 16, "generator_cap": 8, "coproduct_cap": 16,
                 "degree_cap": 64, "axiom_instance_cap": 64,
                 "element_cap": 4096, "constant_bit_cap": 4096}
config = mostly(st.fixed_dictionaries(
    {"bnb_node_budget": st.integers(0, 300)},
    optional={k: st.integers(0, v) for k, v in CONFIG_FIELDS.items()}
).map(lambda d: json.dumps(d).encode()), st.binary(max_size=24))


@st.composite
def huge_config(draw, budget):
    """A config with one huge value, written out by hand, as json.dumps
    refuses an int past 4,300 digits: the node budget, past 4,300 digits,
    or another field beside a small budget."""
    if budget:
        members = {"bnb_node_budget": draw(huge(4301))}
    else:
        members = {"bnb_node_budget": draw(st.integers(0, 300)),
                   draw(st.sampled_from(sorted(CONFIG_FIELDS))): draw(huge())}
    return ("{" + ", ".join(f'"{k}": {v}' for k, v in members.items())
            + "}").encode()


@st.composite
def expr(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(["x", "x", "1", "1/2", "3", "0"]))
    op = draw(st.sampled_from(["+", "-", "*", "^", "neg", "abs", "min",
                               "max"]))
    a = draw(expr(depth - 1))
    if op == "^":
        return f"({a})^{draw(st.integers(0, 3))}"
    if op == "neg":
        return f"-({a})"
    if op == "abs":
        return f"abs({a})"
    b = draw(expr(depth - 1))
    return f"{op}({a}, {b})" if op in ("min", "max") else f"({a}){op}({b})"


@st.composite
def domain(draw):
    ends = sorted(draw(st.lists(st.fractions(-2, 2, max_denominator=4),
                                min_size=2, max_size=4, unique=True)))
    return " u ".join(f"[{lo},{hi}]" for lo, hi in zip(ends[::2],
                                                        ends[1::2]))


VALUES = {  # by argument name; mostly p < q, and eps and decimal in range
    "lhs": joins, "rhs": mostly(joins, st.just("bot"), 4),
    "--positive": st.lists(meet(), min_size=1, max_size=3).map(",".join),
    "--truncate": mostly(st.sampled_from(["N=1", "N=2"]),
                         st.text("NnX=,10-", max_size=8), 4),
    "--expr": expr(), "--domain": domain(),
    "--eps": mostly(st.sampled_from(["1", "1/2", "1/10", "1/100", "1/1000"]),
                    st.sampled_from(["0", "-1", "1/" + "1" * 50])),
    "--p": st.sampled_from(["-1", "0", "1/3", "1/2"]),
    "--q": st.sampled_from(["0", "1/2", "1", "3"]),
    "--seed": st.integers(-5, 5).map(str),
    "--budget": st.integers(0, 300).map(str),
    "--probes": st.integers(0, 3).map(str),
    "--decimal": mostly(st.sampled_from(["0", "3", "4300"]),
                        st.sampled_from(["4301", "-1", "9" * 5000]))}


@st.composite
def huge_expr(draw):
    """An expression with a huge constant: a factor, an exponent, a
    denominator or a numerator."""
    form = draw(st.sampled_from(["({e})*{h}", "({e})^{h}", "({e})+1/{h}",
                                 "{h}/3*({e})"]))
    return form.format(e=draw(expr()), h=draw(huge()))


# the huge value of each integer channel; a node budget only past 4,300
# digits
HUGE = {"--seed": huge(), "--probes": huge(), "--decimal": huge(),
        "--budget": huge(4301), "--truncate": huge().map("N={}".format),
        "--expr": huge_expr()}
THY_CHANNELS = ["thy bound", "thy index", "thy condition"]
CONFIG_CHANNELS = ["config", "config bnb_node_budget"]
HUGE_CHANNELS = sorted(HUGE) + THY_CHANNELS + CONFIG_CHANNELS


def carries(leaf, channel):
    """Whether a leaf reads the channel."""
    group, _ = leaf
    if channel in THY_CHANNELS:
        return ".thy" in FILE_KINDS.get(group, [])
    return channel in CONFIG_CHANNELS or channel in owned(LEAVES[leaf])


class Case(NamedTuple):
    argv: list     # an argv word that names a key of files is its path
    files: dict    # file name -> bytes
    config: bytes  # the POINTFREE_CONFIG body, or None for no config
    want: int      # the exit code a case must give, or None for any of 0-3


@st.composite
def cases(draw, huge_in=None):
    """A case; with huge_in, one that gives that channel a huge integer."""
    group, leaf = draw(st.sampled_from(
        sorted(k for k in LEAVES if huge_in is None or carries(k, huge_in))))
    parser = LEAVES[group, leaf]
    files = {}
    positionals, options = [], []  # the words of each argument
    odd = st.one_of(junk, dashed)
    for name, action in owned(parser).items():
        if name == "file":
            if huge_in in THY_CHANNELS:
                ext, text = ".thy", thy_text(huge_in).map(str.encode)
            else:
                ext = draw(st.sampled_from(FILE_KINDS[group]))
                text = FILES[ext]
            files["in" + ext] = draw(text)
            positionals.append(["in" + ext])
        elif not action.option_strings:
            positionals.append([draw(mostly(VALUES[name], odd))])
        elif action.nargs == 0:
            if draw(st.booleans()):
                options.append([name])
        elif name == huge_in:
            options.append(tokens(name, draw(HUGE[name])))
        elif action.required or draw(st.booleans()) or (
                name == "--truncate" and "in.thy" in files):
            options.append(tokens(name, draw(mostly(VALUES[name], odd))))
    want = None
    if huge_in is None:  # `--flag=value`, and once in a few a repeat
        options = [[f"{ws[0]}={ws[1]}"] if len(ws) == 2
                   and draw(st.booleans()) else ws for ws in options]
        if options and draw(st.integers(0, 4)) == 4:
            again = draw(st.sampled_from(options))
            options.append(again)
            want = 1  # a repeated option, store_true flags too
    words = draw(st.permutations(options))
    at = 0  # the positionals in their order, among the options
    for ws in positionals:
        at = draw(st.integers(at, len(words)))
        words.insert(at, ws)
        at += 1
    if huge_in is None and draw(st.integers(0, 4)) == 4:
        # one argument of another subcommand
        name = draw(st.sampled_from(foreign(group, parser)))
        words.insert(draw(st.integers(0, len(words))), tokens(name))
        want = 1
    argv = [group, leaf] + [w for ws in words for w in ws]
    cfg = draw(huge_config(huge_in == CONFIG_CHANNELS[1])
               if huge_in in CONFIG_CHANNELS else config)
    return Case(argv, files, cfg, want)


# --- the run -----------------------------------------------------------------

def run_case(case):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in case.files.items():
            paths[name] = os.path.join(tmp, name)
            Path(paths[name]).write_bytes(data)
        env = {}
        if case.config is not None:
            env["POINTFREE_CONFIG"] = os.path.join(tmp, "config.json")
            Path(env["POINTFREE_CONFIG"]).write_bytes(case.config)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            if case.config is None:
                os.environ.pop("POINTFREE_CONFIG", None)
            code = main([paths.get(w, w) for w in case.argv])
    return code, out.getvalue(), err.getvalue()


def read(name):
    return (THY / name).read_bytes()


def free(n):
    return ("gen " + " ".join(f"g{i}" for i in range(n)) + "\n").encode()


def balanced_product(factor, depth):
    if depth == 0:
        return factor
    half = balanced_product(factor, depth - 1)
    return f"({half})*({half})"


def evt_max(expr_text, *rest, domain_text="[0,1]"):
    return ["evt", "max", "--expr", expr_text, "--domain", domain_text,
            *rest]


CANTOR1 = {"cantor1.pres": read("cantor1.pres")}
CAP10 = b'{"generator_cap": 10}'

# Inputs that once gave a traceback, ran unbounded or were answered while
# an argument was dropped, with the exit code each gives now.
EXAMPLES = [
    # the Dedekind count recursed once per element of J, or ran past 10 s
    Case(["frame", "hausdorff", "free.pres"], {"free.pres": free(10)},
         CAP10, 2),
    # refused while the points were ordered by that count: they are the
    # models, listed with no count
    Case(["frame", "points", "free.pres"], {"free.pres": free(10)},
         CAP10, 0),
    Case(["frame", "points", "free.pres"], {"free.pres": free(7)}, None, 0),
    # 65,536 elements listed with no cap
    Case(["frame", "elements", "cantor.thy", "--truncate", "N=4"],
         {"cantor.thy": read("cantor.thy")}, None, 2),
    # constants past Python's int-to-str limit, or a second to compute
    Case(evt_max("(1/3)^10000*x"), {}, None, 2),
    Case(evt_max("(1/3)^3000000*x"), {}, None, 2),
    Case(evt_max(balanced_product("(1/3)^64", 8) + "*x"), {}, None, 2),
    Case(evt_max("(x + 1/" + "7" * 80 + ")^64"), {}, None, 2),
    # bytes that are not UTF-8, in an input file and in the config
    Case(["frame", "points", "bad.pres"], {"bad.pres": b"\x00\xff\xfe"},
         None, 1),
    Case(["frame", "points", "cantor1.pres"], CANTOR1,
         b'{"degree_cap": 3}\xff', 1),
    # a `some` bound past any range (an OverflowError)
    Case(["theory", "models", "big.thy"],
         {"big.thy": b"prop a; axiom a |- some i<99999999999999999999. a;"},
         None, 2),
    # --decimal past the int-to-str limit: a traceback, or past 10 s
    Case(evt_max("x", "--decimal", "5000", domain_text="[0,1/3]"), {},
         None, 1),
    Case(evt_max("x", "--decimal", "100000000", domain_text="[0,1/3]"), {},
         None, 1),
    # value bits set by an 80-digit endpoint or a 4,000-digit eps
    Case(evt_max("x^64", "--eps", "1/1000",
                 domain_text="[0,1/" + "7" * 80 + "]"), {}, None, 2),
    Case(evt_max("x^64", "--eps", "1/1" + "0" * 4000), {}, None, 2),
    # truncations that did nothing
    Case(["frame", "points", "cantor1.pres", "--truncate", "N=2"], CANTOR1,
         None, 1),
    Case(["theory", "models", "surj.thy", "--truncate", "n=2,X=2,Q=9"],
         {"surj.thy": read("surj.thy")}, None, 1),
    # arguments the subcommand does not read, once dropped without a word
    Case(["frame", "points", "cantor1.pres", "foo", "bar", "--decimal", "3",
          "--positive", "zz"], CANTOR1, None, 1),
    Case(["evt", "locate", "--expr", "x*(1-x)", "--domain", "[0,1]", "--p",
          "1/5", "--q", "1/3", "--eps", "7", "--trace", "--probes", "3",
          "--decimal", "2"], {}, None, 1),
    Case(["frame", "--json", "points", "cantor1.pres"], CANTOR1, None, 1),
    # a repeated option or truncation name, once answered as the last value
    Case(evt_max("x", "--eps", "1/10", "--eps", "1/1000"), {}, None, 1),
    Case(["theory", "models", "surj.thy", "--truncate", "n=2,X=2",
          "--truncate", "n=1,X=2"], {"surj.thy": read("surj.thy")}, None, 1),
    Case(["theory", "models", "surj.thy", "--truncate", "n=2,n=1,X=2"],
         {"surj.thy": read("surj.thy")}, None, 1),
    # digits other than ASCII 0-9 (here Arabic-Indic, \u0660 is 0), and `_`,
    # once read as integers
    Case(["theory", "models", "arabic.thy"],
         {"arabic.thy": "prop p[i] for i<\u0663;\naxiom p[\u0660] |- false;\n"
          .encode()}, None, 1),
    Case(evt_max("x*(\u0661-x)"), {}, None, 1),
    Case(evt_max("x", "--eps", "1/\u0661\u0660\u0660"), {}, None, 1),
    Case(evt_max("x", "--eps", "1_000"), {}, None, 1),
    Case(evt_max("x", "--budget", "\u0661\u0660"), {}, None, 1),
    Case(["evt", "validate", "--expr", "x", "--domain", "[0,1]", "--seed",
          "\u0663"], {}, None, 1),
    Case(["theory", "models", "surj.thy", "--truncate", "n=\u0661,X=2"],
         {"surj.thy": read("surj.thy")}, None, 1),
]


def parsed(parse, argv):
    """What parse makes of argv: the namespace as a dict, the message of
    its usage error, or the exit code of its help."""
    try:
        return vars(parse(argv))
    except ParseError as exc:
        return f"error: {exc}"
    except SystemExit as exc:
        return exc.code


def check_dispatch(argv):
    assert parsed(parse_argv, argv) == parsed(build_parser().parse_args,
                                              argv), argv


def check(case):
    check_dispatch(case.argv)
    code, out, err = run_case(case)
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if case.want is not None:
        assert code == case.want, (code, err)
    if code in (1, 2):
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1, err
    return err


def with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=300, derandomize=True,
          deadline=timedelta(seconds=1))
@with_examples
@given(cases())
def test_cli_fuzz(case):
    """Exit 0-3, no traceback, within the deadline; an argument owned by
    another subcommand, or an example above, gives the exit code it
    names, and a refusal says so in one `error:` line."""
    check(case)


HUGE_RUN = re.compile(r"[0-9]{4299}")
# argparse's wording when a type function raises a ValueError, such as
# int() past 4,300 digits: it echoes the whole value
ARGPARSE_INVALID = re.compile(r"^error: .*invalid \S+ value", re.M)


def huge_words(case):
    """Where the case holds a run of 4,299 digits or more: the argv words
    (options by their flag), the file and the config."""
    out = {w for w, v in zip(case.argv, case.argv[1:]) if HUGE_RUN.search(v)}
    out |= {"file" for b in case.files.values()
            if HUGE_RUN.search(b.decode(errors="replace"))}
    if case.config and HUGE_RUN.search(case.config.decode(errors="replace")):
        out.add("config")
    return out


@pytest.mark.parametrize("channel", HUGE_CHANNELS)
def test_cli_fuzz_reaches_each_channel_with_a_huge_integer(channel):
    """The checks of test_cli_fuzz on cases that give one integer channel
    a huge value, which each case is seen to hold in that channel (an
    option may hold another, such as --decimal's 5,000 nines); a refusal
    names the digit limit, not argparse's `invalid ... value`."""
    where = ("file" if channel in THY_CHANNELS else "config"
             if channel in CONFIG_CHANNELS else channel)

    @settings(max_examples=6, derandomize=True, database=None,
              deadline=timedelta(seconds=1))
    @given(cases(channel))
    def run(case):
        assert where in huge_words(case)
        assert not ARGPARSE_INVALID.search(check(case))

    run()


def test_main_dispatches_on_each_leaf_of_the_tree():
    assert build_parser().leaves == LEAVES and len(LEAVES) == 14


# usage errors, which take the walk down the tree on both routes, and odd
# spellings, which the table must read as the walk does or leave to it
EVT = ["evt", "max", "--expr", "x", "--domain", "[0,1]"]
USAGE = [[], ["frame"], ["nope", "points"], ["frame", "nope", "in.pres"],
         ["frame", "--json", "points", "in.pres"], ["evt", "--eps", "1"],
         EVT + ["--eps="], EVT + ["--eps=1=2"], EVT + ["--eps", "-1/2"],
         EVT + ["--eps=-1/2"], EVT + ["--budget", "-5"], EVT + ["--json=1"],
         ["evt", "max", "--expr", "-x", "--domain", "[0,1]"],
         ["evt", "max", "--expr", "- x", "--domain", "[0,1]"],
         ["frame", "points", "in.pres", "--json=1"],
         ["frame", "points", "in.pres", "--json", "--json"],
         EVT + ["--trace", "--json", "--trace"],
         ["frame", "leq", "in.pres", "--", "a", "top"],
         ["frame", "leq", "in.pres", "a", "--", "top"],
         ["frame", "points", "-h"], ["frame", "points", "in.pres", "-h"],
         ["frame", "leq", "in.pres", "", "top"],
         ["frame", "leq", "in.pres", "-", "top"],
         ["frame", "leq", "in.pres", "a", "top", "bot"],
         ["frame", "leq", "in.pres", "a"]]


@pytest.mark.parametrize("argv", [g["argv"] + ["--json"] for g in GOLDEN]
                         + USAGE, ids=" ".join)
def test_golden_argv_parse_the_same_on_both_routes(argv):
    check_dispatch(argv)


def joined(argv):
    """argv with each option's value after `=` in the option's word."""
    out, words = [], iter(argv)
    for word in words:
        out.append(f"{word}={next(words)}" if word in VALUED else word)
    return out


WELL_FORMED = [g["argv"] + ["--json"] for g in GOLDEN if g["exit"] == 0]


@pytest.mark.parametrize(
    "argv", WELL_FORMED + [joined(a) for a in WELL_FORMED
                           if joined(a) != a], ids=" ".join)
def test_well_formed_argv_is_read_without_argparse(argv):
    """Each golden argv that exits 0, spaced or with `=`, is read off its
    leaf's action table: with argparse's parse_args made to raise, it
    still parses, to the namespace of the walk."""
    want = build_parser().parse_args(argv)
    with mock.patch.object(argparse.ArgumentParser, "parse_args",
                           side_effect=AssertionError("took the walk")):
        assert parse_argv(argv) == want


def test_the_module_entry_point_reads_sys_argv():
    """`python -m pointfree.cli` calls main() with no argv, which reads
    sys.argv: its answer is the golden one."""
    argv = ["frame", "points", "theories/cantor1.pres"]
    (want,) = [g["stdout"] for g in GOLDEN if g["argv"] == argv]
    done = subprocess.run([sys.executable, "-m", "pointfree.cli", *argv,
                           "--json"], capture_output=True, text=True,
                          cwd=ROOT, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


@pytest.mark.parametrize(
    "group, leaf, name",
    [(g, leaf, n) for (g, leaf), sp in sorted(LEAVES.items())
     for n in sorted(set(ARGUMENTS) - set(owned(sp)))],
    ids=lambda v: v)
def test_each_subcommand_refuses_every_argument_it_does_not_own(group, leaf,
                                                                name):
    """Every leaf of the tree gets each argument another leaf owns, after
    the arguments it needs: the parser refuses it in one `error:` line
    before any input is read."""
    argv = [group, leaf]
    for own, action in owned(LEAVES[group, leaf]).items():
        if action.required or not action.option_strings:
            argv += tokens(own)
    check(Case(argv + tokens(name), {"in.pres": read("cantor1.pres")},
               None, 1))
