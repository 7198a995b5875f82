"""Geometric-theory language: parsing, rejection of non-geometric syntax,
compilation to presentations, models, and the builtin theories."""

import contextlib
import io
import json
import re
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cantor_presentation, three_chain, boolean4
from pointfree.cli import _parse_truncation, main, parsed_input
from pointfree.config import Limits
from pointfree.errors import CapExceeded, ParseError, PointfreeError
from pointfree.frames import FrameHom, enumerate_frame
from pointfree.order import prime_filters
from pointfree.presentations import (find_models, parse_presentation_text,
                                     presentation_text, saturate, stabilize)
from pointfree import theories
from pointfree.theories import (Atom, Axiom, PropFamily, _line_col, _Parser,
                                _tokenize, builtin, compile_theory,
                                generator_name, instantiate, models,
                                parse_theory, pretty_print, stone_prop_name)
from theory_oracles import oracle_parse_theory, tokenize as oracle_tokenize

CANTOR_SRC = """\
# binary sequences
prop z[i], u[i] for i<N;
axiom z[i] & u[i] |- false;
axiom true |- z[i] | u[i];
"""

SURJ_SRC = """\
prop p[i][v] for i<n, v<X;
axiom p[i][v] & p[i][w] |- false if v != w;
axiom true |- some v<X. p[i][v];
axiom true |- some i<n. p[i][v] for v<X;
"""


# --- parsing -------------------------------------------------------------------

def test_parse_cantor_source():
    ast = parse_theory(CANTOR_SRC)
    assert [f.name for f in ast.families] == ["z", "u"]
    assert ast.families[0].bounds == ("N",)
    ax0, ax1 = ast.axioms
    assert ax0.lhs == (Atom("z", ("i",)), Atom("u", ("i",)))
    assert ax0.rhs == () and ax0.binders == (("i", "N"),)
    assert ax1.lhs == () and ax1.rhs == ((Atom("z", ("i",)),),
                                         (Atom("u", ("i",)),))


def test_parse_infers_universal_binders():
    ast = parse_theory(CANTOR_SRC)
    for ax in ast.axioms:
        assert ax.binders == (("i", "N"),)


def test_parse_join_binders():
    ast = parse_theory(SURJ_SRC)
    totality = ast.axioms[1]
    assert totality.joins == (("v", "X"),)
    assert totality.binders == (("i", "n"),)
    surjectivity = ast.axioms[2]
    assert surjectivity.joins == (("i", "n"),)
    assert surjectivity.binders == (("v", "X"),)


def test_parse_side_conditions():
    ast = parse_theory(SURJ_SRC)
    assert ast.axioms[0].conds == (("v", "!=", "w"),)


def test_pretty_print_round_trip():
    for src in (CANTOR_SRC, SURJ_SRC, "prop a;\naxiom a |- false;\n"):
        ast = parse_theory(src)
        assert parse_theory(pretty_print(ast)) == ast


def test_negation_and_implication_rejected_with_location():
    with pytest.raises(ParseError) as err:
        parse_theory("prop a;\naxiom ~a |- false;\n")
    assert "negation" in str(err.value)
    assert err.value.line == 2 and err.value.col == 7
    with pytest.raises(ParseError) as err:
        parse_theory("prop a, b;\naxiom a -> b |- b;\n")
    assert "geometric fragment" in str(err.value)
    with pytest.raises(ParseError):
        parse_theory("prop a;\naxiom !a |- false;\n")
    with pytest.raises(ParseError):
        parse_theory("prop a, b;\naxiom a => b |- b;\n")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_theory("prop a\n")  # missing semicolon
    with pytest.raises(ParseError):
        parse_theory("prop a;\naxiom true |- a | true;\n")


def test_a_family_may_be_declared_after_the_axioms_that_use_it():
    ast = parse_theory("axiom a |- false; prop a;")
    assert ast.axioms[0].lhs == (Atom("a", ()),)


# every semantic error, at the token it names: (text, message, line, col)
POSITIONED = [
    ("prop a;\naxiom b |- a;\n", "unknown proposition 'b'", 2, 7),
    ("prop a[i] for i<2;\naxiom a |- false;\n",
     "wrong index count on 'a'", 2, 7),
    ("prop a[i] for i<2;\naxiom a[0] & a[v] |- some v<2. a[v];\n",
     "unbound index 'v'", 2, 14),
    ("prop a[i] for i<2;\nprop b[i] for i<3;\naxiom a[k] & b[k] |- false;\n",
     "index 'k' used with conflicting bounds 2 and 3", 3, 14),
    ("prop a[i] for i<2;\nprop b[i] for i<3;\n"
     "axiom a[k] & a[k] |- some j<3. b[j] | b[k];\n",
     "index 'k' used with conflicting bounds 2 and 3", 3, 39),
    ("prop a[i] for i<2;\naxiom true |- some i<2. a[i] for j<2, i<2;\n",
     "duplicate index binder", 2, 39),
    # j appears only in a side condition, so it has no inferable bound
    ("prop a[i] for i<2;\naxiom a[i] |- false if j<i;\n",
     "unbound index 'j' in side condition", 2, 24),
    ("prop a[i] for i<2;\naxiom a[i] |- false for i<2 if i<i, 0<j;\n",
     "unbound index 'j' in side condition", 2, 37),
    ("prop a;\nprop b, a;\n", "duplicate proposition family 'a'", 2, 9),
    ("prop some[i] for i<2;\naxiom some[0] |- some v<2. some[v] & b;\n",
     "unknown proposition 'b'", 2, 38),
    ("prop a[i], b[j] for i<2;\naxiom a[0] |- false;\n",
     "unbound index 'j' in prop declaration", 1, 14),
    ("prop a[i];\n", "unbound index 'i' in prop declaration", 1, 8),
    # a repeated binder was once resolved to its last bound
    ("prop a[i] for i<2, i<3;\n",
     "duplicate index binder in prop declaration", 1, 20),
]


@pytest.mark.parametrize("text, message, line, col", POSITIONED)
def test_semantic_errors_name_their_token(text, message, line, col):
    for parse in (parse_theory, oracle_parse_theory):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.message, err.value.line, err.value.col) == \
            (message, line, col)


# --- tokenizer and error positions against the oracle ----------------------------

THY_PATHS = sorted(
    (Path(__file__).resolve().parents[1] / "theories").glob("*.thy"))
THY_TEXTS = [p.read_text() for p in THY_PATHS]
BASES = THY_TEXTS + [CANTOR_SRC, SURJ_SRC, pretty_print(
    builtin("stone", lattice=three_chain()))]
# characters and pieces a mutation inserts: the rejected connectives,
# comments, CRLF, tabs, other whitespace and non-ASCII characters
PIECES = list("~-!>=#;,.[]&|< \t\nai0_") + [
    "\r\n", "->", "=>", "|-", "<=", "!=", "==", "# c", "\u00e9", "\u03bb",
    "\u0663", "\u2028", "\x0b", "\x00", "true", "some", "for", "if"]
WORDS = ["prop", "axiom", "true", "false", "some", "for", "if", "a", "b",
         "p", "i", "N", "0", "2", "|-", "&", "|", ";", ",", ".", "[", "]",
         "<", "<=", "!=", "==", " ", "\n", "\r\n", "\t", "# c\n"]


def mutate(text, edits):
    for op, pos, piece in edits:
        pos %= len(text) + 1
        if op == "insert":
            text = text[:pos] + piece + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + len(piece):]
        elif pos + 1 < len(text):  # swap two neighbours
            text = text[:pos] + text[pos + 1] + text[pos] + text[pos + 2:]
    return text


# texts on which an edit of their meaning below is likely to meet one of the
# checks: several families, inferred, explicit and `some` binders, and side
# conditions
MEANING_BASES = [
    "prop r[i][j] for i<N, j<N;\nprop s[i] for i<N;\naxiom r[i][j] & s[i] |- "
    "some k<N. s[k] for j<N if i != j, j != i;\n",
    "prop r[i][j] for i<N, j<N;\nprop s[i] for i<N;\nprop t;\n"
    "axiom r[i][j] & s[j] |- some k<N. s[k] for i<N if i != j;\n"]
KEYWORDS = {"prop", "axiom", "true", "false", "some", "for", "if"}
NAME = r"\b(?!(?:%s)\b)[A-Za-z_][A-Za-z0-9_]*" % "|".join(KEYWORDS)
ATOM = r"(?<![\[<])(?<!= )" + NAME + r"(?=\s*[\[&|;,]|\s*\|-)"
# an index of an atom in an axiom (one followed by `&`, `|`, `|-` or `;`)
# or of a side condition
INDEX = (r"(?<=\[)" + NAME + r"(?=\](?:\[[^\]]*\])*\s*[&|;])|(?<=!= )" + NAME
         + "|" + NAME + "(?= !=)")
BOUND = r"(?<=<)[A-Za-z0-9_]+"
SOME = r"(?<=some )" + NAME
# edits that keep the syntax and change what a theory says, so that the
# checking pass sees the text: op -> (the pattern whose match m it rewrites,
# the pattern of the words w it may draw or None, the rewrite of m with w)
MEANINGS = {
    "rename atom": (ATOM, ATOM, lambda m, w: w),
    "rename index": (INDEX, SOME, lambda m, w: w),
    "drop prop": (r"(?m)^prop[^\n]*\n", None, lambda m, w: ""),
    "add index": (ATOM, INDEX + "|" + SOME, lambda m, w: f"{m[0]}[{w}]"),
    "drop index": (r"\[[^\[\]]*\]", None, lambda m, w: ""),
    "repeat binder": (NAME + r"<[A-Za-z0-9_]+", None,
                      lambda m, w: f"{m[0]}, {m[0]}"),
    "change bound": (BOUND, BOUND + "|" + INDEX, lambda m, w: w),
}


def change_meaning(text, op, k, j):
    """Rewrite the k-th match of op's pattern with the j-th of the distinct
    words op draws from the text, other than the match."""
    pattern, draw, rewrite = MEANINGS[op]
    spans = list(re.finditer(pattern, text))
    m = spans[k % len(spans)]
    words = [None]
    if draw:
        words = sorted({w[0] for w in re.finditer(draw, text)} - {m[0]})
    if not words:
        return text
    w = words[j % len(words)]
    return text[:m.start()] + rewrite(m, w) + text[m.end():]


theory_texts = st.one_of(
    st.builds(mutate, st.sampled_from(BASES), st.lists(st.tuples(
        st.sampled_from(["insert", "delete", "swap"]),
        st.integers(0, 10 ** 4), st.sampled_from(PIECES)), max_size=4)),
    st.lists(st.sampled_from(WORDS + PIECES), max_size=40).map(" ".join),
    *[st.builds(change_meaning, st.just(base),
                st.sampled_from(sorted(MEANINGS)), st.integers(0, 59),
                st.integers(0, 59)) for base in MEANING_BASES])


def outcome(f, text):
    try:
        return f(text)
    except ParseError as exc:
        return ("ParseError", exc.message, exc.line, exc.col)


@settings(max_examples=400, derandomize=True, deadline=None)
@example("prop a;\naxiom a |- a   \n\t ")
@example("prop a;\naxiom a |- a # no semicolon\r\n# end")
@example("prop a;\r\n\taxiom a -> a;")
@example("prop a\u00e9;")
@example("prop a[i] for i<2, i<3;\naxiom a[0] |- false;\n")
@given(theory_texts)
def test_tokenizer_and_parse_errors_agree_with_the_oracle(text):
    """Equal kinds, texts and (line, col) where both tokenizers accept a
    text, and the same ParseError (message, line, col) where either
    refuses; parse_theory gives the oracle parser's AST or its error."""
    assert outcome(lambda t: [(k, s, _line_col(t, off))
                              for k, s, off in _tokenize(t)], text) == \
        outcome(lambda t: [(tok.kind, tok.text, (tok.line, tok.col))
                           for tok in oracle_tokenize(t)], text)
    assert outcome(parse_theory, text) == outcome(oracle_parse_theory, text)


@settings(max_examples=400, derandomize=True, deadline=None)
@example("prop a;\naxiom a |- b;\n")
@given(theory_texts)
def test_every_parse_error_has_a_line_and_column(text):
    try:
        parse_theory(text)
    except ParseError as exc:
        assert exc.line is not None and exc.col is not None, exc.message


def test_error_at_end_of_input_after_trailing_comment():
    with pytest.raises(ParseError) as err:
        parse_theory("prop a;\naxiom a |- a # no semicolon\n")
    assert err.value.message == "expected ';', found 'end of input'"
    assert (err.value.line, err.value.col) == (3, 1)


# every message of the checking pass, as a pattern of the whole message
SEMANTIC = [r"unknown proposition '\w+'", r"wrong index count on '\w+'",
            r"unbound index '\w+'", r"index '\w+' used with conflicting "
            r"bounds '?\w+'? and '?\w+'?", r"duplicate index binder",
            r"unbound index '\w+' in side condition",
            r"duplicate proposition family '\w+'",
            r"unbound index '\w+' in prop declaration",
            r"duplicate index binder in prop declaration"]


def test_the_corpus_reaches_every_check():
    """The oracle tests above see each message of the checking pass at
    least once among their 400 derandomized examples of theory_texts."""
    seen = set()

    @settings(max_examples=400, derandomize=True, deadline=None,
              database=None)
    @given(theory_texts)
    def tally(text):
        try:
            parse_theory(text)
        except ParseError as exc:
            seen.update(p for p in SEMANTIC if re.fullmatch(p, exc.message))

    tally()
    assert sorted(seen) == sorted(SEMANTIC)


def assert_parser_reads_the_tokenizers_texts(text):
    try:
        want = [s for _, s, _ in _tokenize(text)]
    except ParseError:
        return
    texts = _Parser(text).toks
    assert texts[:len(want)] == want and set(texts[len(want):]) <= {""}


@pytest.mark.parametrize("text", THY_TEXTS + MEANING_BASES, ids=[
    p.name for p in THY_PATHS] + ["meaning0", "meaning1"])
def test_the_parser_reads_the_tokenizers_texts_of_the_theories(text):
    assert_parser_reads_the_tokenizers_texts(text)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(theory_texts)
def test_the_parser_reads_the_tokenizers_texts(text):
    """One findall gives the parser the texts of _tokenize's tokens, the
    first empty one included, and after it only empty texts (trailing
    whitespace gives a second), wherever _tokenize accepts the text."""
    assert_parser_reads_the_tokenizers_texts(text)


def test_parse_builds_one_atom_per_distinct_proposition(monkeypatch):
    """A Stone theory names each proposition in many axioms; the parser
    builds one Atom per proposition and shares it among them."""
    text = pretty_print(builtin("stone", lattice=boolean4()))
    built = []

    def counting_atom(*args):
        built.append(args)
        return Atom(*args)

    monkeypatch.setattr(theories, "Atom", counting_atom)
    ast = parse_theory(text)
    occurrences = [a for ax in ast.axioms for a in chain(ax.lhs, *ax.rhs)]
    assert len(occurrences) > 10 * len(ast.families)
    assert len(built) == len({id(a) for a in occurrences}) == \
        len(ast.families)
    assert ast == oracle_parse_theory(text)


# --- compilation ----------------------------------------------------------------

@pytest.mark.parametrize("make", [three_chain, boolean4])
def test_binder_free_axioms_instantiate_as_with_a_dummy_binder(make):
    """A binder-free axiom has one instance: the same covers as when a
    `for` binder of range 1 sends it through the general path."""
    text = pretty_print(builtin("stone", lattice=make()))
    bound = "".join(line[:-1] + " for k_<1;\n" if line.startswith("axiom")
                    else line + "\n" for line in text.splitlines())
    assert "for k_<1" in bound
    assert presentation_text(instantiate(parse_theory(text))) == \
        presentation_text(instantiate(parse_theory(bound)))


def test_binder_free_axiom_with_a_false_condition_has_no_instance():
    p = instantiate(parse_theory("prop a, b;\naxiom a |- b if 1 < 0;\n"
                                 "axiom b |- a if 0 < 1;\n"))
    assert p.covers == {(frozenset({"b"}), frozenset({frozenset({"a"})}))}


def test_compile_cantor_matches_hand_presentation():
    ast = parse_theory(CANTOR_SRC)
    for n in (1, 2):
        assert compile_theory(ast, trunc={"N": n}) == \
            stabilize(cantor_presentation(n))


def test_compile_cantor_two_has_four_generators():
    p = compile_theory(parse_theory(CANTOR_SRC), trunc={"N": 2})
    assert set(p.generators) == {"z0", "z1", "u0", "u1"}


def test_generator_naming():
    assert generator_name("z", [0]) == "z0"
    assert generator_name("p", [0, 1]) == "p0_1"
    assert generator_name("a", []) == "a"


def test_generator_name_collision_detected():
    src = ("prop p[i][v] for i<11, v<2;\n"
           "prop p1_1;\n")
    with pytest.raises(ParseError) as err:
        compile_theory(parse_theory(src), limits=Limits(generator_cap=32))
    assert "collide" in str(err.value)


def test_compile_missing_truncation_bound():
    with pytest.raises(ParseError):
        compile_theory(parse_theory(CANTOR_SRC))


def test_compile_generator_cap():
    with pytest.raises(CapExceeded):
        compile_theory(parse_theory(CANTOR_SRC), trunc={"N": 9})


def test_a_binding_that_names_no_bound_is_a_parse_error():
    with pytest.raises(ParseError, match="'Q' names no bound"):
        models(parse_theory(SURJ_SRC), trunc={"n": 2, "X": 2, "Q": 9})


def test_axiom_instance_cap_counts_for_and_some_binders():
    """surj n=2, X=2: functionality has 2·2·2 instances (the side
    condition is not counted), totality 2 with 2 right sides each and
    surjectivity the same, 16 in all."""
    ast = parse_theory(SURJ_SRC)
    trunc = {"n": 2, "X": 2}
    assert models(ast, trunc, limits=Limits(axiom_instance_cap=16))
    with pytest.raises(CapExceeded, match="^axiom instances has size 16, "
                       "exceeding cap 15 \\(axiom_instance_cap\\)$"):
        compile_theory(ast, trunc, limits=Limits(axiom_instance_cap=15))


def test_an_index_outside_its_family_names_the_generator():
    """z[i] for i<5 instantiates z2, z3 and z4, which z[i] for i<2 does not
    declare; the least such name is the one reported."""
    ast = parse_theory("prop z[i] for i<2;\naxiom z[i] |- false for i<5;\n")
    with pytest.raises(ParseError, match="^cover rule mentions undeclared "
                       "generator 'z2'$"):
        models(ast)


def test_compile_side_conditions_filter_instances():
    p = compile_theory(parse_theory(SURJ_SRC), trunc={"n": 1, "X": 2})
    # functionality fires only for v != w, in both orders
    empties = [lhs for lhs, rhs in p.covers if rhs == frozenset()
               and len(lhs) == 2]
    assert frozenset({"p0_0", "p0_1"}) in empties


def test_truncation_embeds_monotonically():
    """The frame at a smaller Cantor truncation embeds in the larger one:
    mapping each saturated set through the larger presentation's saturation
    is an injective frame homomorphism."""
    ast = parse_theory(CANTOR_SRC)
    for n_small, n_big in [(1, 2), (2, 3)]:
        p_small = compile_theory(ast, trunc={"N": n_small})
        p_big = compile_theory(ast, trunc={"N": n_big})
        f_small, _ = enumerate_frame(p_small)
        f_big, _ = enumerate_frame(p_big)
        mapping = {e: saturate(p_big, e).members for e in f_small.elements}
        hom = FrameHom(f_small, f_big, mapping)
        assert len(set(mapping.values())) == len(mapping)
        assert hom.mapping[f_small.top] == f_big.top


# --- index-free theories read to masks -------------------------------------------

FLAT = {"sierpinski.thy", "stone_chain3.thy"}  # the index-free files
FLAT_BASES = [THY_TEXTS[[p.name for p in THY_PATHS].index(n)]
              for n in sorted(FLAT)] + [
    "prop a, b, c;\naxiom a & b |- c | a & c;\naxiom true |- a | b & c;\n"
    "axiom c & c |- false;\n"]
# one token or phrase put into an index-free text, each outside the shape
# the mask loop reads: an index, binders, `true` in a disjunction, an
# undeclared name, a second or a late `prop`, a reserved name, a rejected
# connective, a keyword out of place
FLAT_PIECES = ["[0]", "some v<2.", "| true", "true |", "& zz", "zz", "prop a;",
               "prop f_m;", "prop top;", "prop bot;", "~", "for k<1", "if 0<1",
               ",", "false", "|-", "axiom", "prop"]


def flat_mutant(base, piece, k):
    """base with piece put before its k-th token, or cut there (None)."""
    starts = [m.start() for m in re.finditer(r"\|-|\w+|\S", base)]
    at = [*starts, len(base)][k % (len(starts) + 1)]
    return base[:at] if piece is None else f"{base[:at]}{piece} {base[at:]}"


flat_texts = st.one_of(st.sampled_from(FLAT_BASES), st.builds(
    flat_mutant, st.sampled_from(FLAT_BASES),
    st.sampled_from([*FLAT_PIECES, None]), st.integers(0, 10 ** 3)))
# stone_chain3.thy has 3 generators and 36 axioms: each cap once at its
# size and once just below it
MASK_LIMITS = [Limits(), Limits(generator_cap=3, axiom_instance_cap=36),
               Limits(generator_cap=2), Limits(axiom_instance_cap=35),
               Limits(generator_cap=1, axiom_instance_cap=2)]


def presentation_outcome(f):
    """f(), or the type, text, line and column of the error it raises."""
    try:
        return f()
    except PointfreeError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "col", None))


@settings(max_examples=600, derandomize=True, deadline=None)
@example("prop a, b;\naxiom a & b |- a | b & a;\n", Limits())
@example("prop top;\naxiom top |- false;\n", Limits())
@example("prop a;\naxiom a |- false;\nprop b;\n", Limits())
@example("axiom a |- false;\nprop a;\n", Limits())
@given(st.one_of(theory_texts, flat_texts), st.sampled_from(MASK_LIMITS))
def test_masks_agree_with_the_general_path(text, limits):
    """The mask loop declines a text (None) or gives the presentation that
    parse_theory and instantiate give, and `parsed_input` answers or
    refuses as they do, with the same error type, message, line and
    column, under default and under small caps."""
    general = presentation_outcome(
        lambda: instantiate(parse_theory(text), {}, limits))
    masks = presentation_outcome(lambda: _Parser(text).masks(limits))
    assert masks is None or masks == general
    assert presentation_outcome(lambda: parsed_input.__wrapped__(
        "thy", text, "", limits)) == general


def test_masks_read_and_decline_the_flat_corpus():
    """The flat texts above reach every side of the mask loop: it reads
    some to a presentation, declines some that the general path reads and
    some that it refuses, and the tokenizer refuses some first."""
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None,
              database=None)
    @given(flat_texts)
    def tally(text):
        general = presentation_outcome(lambda: instantiate(parse_theory(text)))
        masks = presentation_outcome(lambda: _Parser(text).masks())
        seen.add((type(masks).__name__, type(general).__name__))

    tally()
    assert seen == {("FramePresentation", "FramePresentation"),
                    ("NoneType", "FramePresentation"),
                    ("NoneType", "tuple"), ("tuple", "tuple")}


@pytest.mark.parametrize("path", THY_PATHS, ids=[p.name for p in THY_PATHS])
def test_masks_decline_every_indexed_theory_file(path):
    """The loop reads the index-free files of theories/, also with each cap
    at the file's size, and declines every other one."""
    text = path.read_text()
    p = _Parser(text).masks()
    if path.name in FLAT:
        assert p == instantiate(parse_theory(text))
        assert p == _Parser(text).masks(Limits(
            generator_cap=len(p.generators),
            axiom_instance_cap=len(parse_theory(text).axioms)))
    else:
        assert p is None


# --- theory compile: the covers as instantiated ----------------------------------

# the theory files with small truncations, as `--truncate` strings
COMPILE_CASES = [(THY_TEXTS[[p.name for p in THY_PATHS].index(name)], trunc)
                 for name, truncs in [
                     ("cantor.thy", ["N=1", "N=2", "N=3"]),
                     ("repeat.thy", ["N=1", "N=3"]),
                     ("sierpinski.thy", [""]), ("stone_chain3.thy", [""]),
                     ("surj.thy", ["n=1,X=1", "n=1,X=2", "n=2,X=1",
                                   "n=2,X=2", "n=3,X=2"])]
                 for trunc in truncs]


def run_cli(tmp, name, text, *argv):
    """main on text saved as tmp/name: the exit code, stdout and stderr."""
    path = tmp / name
    path.write_bytes(text.encode())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], argv[1], str(path), *argv[2:], "--json"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@example(("axiom true |- false;", ""))
@given(st.one_of(flat_texts.map(lambda text: (text, "")),
                 st.sampled_from(COMPILE_CASES)))
def test_compile_prints_covers_that_present_the_stabilized_frame(
        tmp_path_factory, case):
    """`theory compile` prints the covers as instantiate gives them; read
    back, they have the models and the `frame elements` answer of the
    stabilized presentation.  A theory that does not compile is refused
    with compile_theory's error."""
    text, truncate = case
    tmp = tmp_path_factory.mktemp("compile")
    code, out, err = run_cli(tmp, "t.thy", text, "theory", "compile",
                             "--truncate", truncate)
    trunc = _parse_truncation(truncate)
    stable = presentation_outcome(
        lambda: compile_theory(parse_theory(text), trunc))
    if isinstance(stable, tuple):  # refused: its type, text, line and column
        assert code in (1, 2)
        assert (out, err) == ("", f"error: {stable[1]}\n")
        return
    assert code == 0 and err == ""
    printed = json.loads(out)["presentation"]
    q = parse_presentation_text(printed)
    assert q == instantiate(parse_theory(text), trunc)
    assert find_models(q) == find_models(stable)
    assert run_cli(tmp, "q.pres", printed, "frame", "elements") == run_cli(
        tmp, "s.pres", presentation_text(stable), "frame", "elements")


# --- models ----------------------------------------------------------------------

def test_cantor_models_are_the_binary_sequences():
    ast = parse_theory(CANTOR_SRC)
    for n in (1, 2):
        ms = models(ast, trunc={"N": n})
        assert len(ms) == 2 ** n
        for m in ms:
            for i in range(n):
                assert m[f"z{i}"] != m[f"u{i}"]


def test_surjection_models():
    ast = parse_theory(SURJ_SRC)
    ms = models(ast, trunc={"n": 2, "X": 2})
    assert len(ms) == 2  # the two bijections [2] -> [2]
    for m in ms:
        for v in range(2):
            assert any(m[f"p{i}_{v}"] for i in range(2))
    assert models(ast, trunc={"n": 1, "X": 2}) == []


def test_surjection_one_onto_two_compiles_to_trivial_frame():
    p = compile_theory(parse_theory(SURJ_SRC), trunc={"n": 1, "X": 2})
    frame, _ = enumerate_frame(p)
    assert len(frame.elements) == 1  # finitely inconsistent theory


# --- builtins --------------------------------------------------------------------

def test_builtin_sierpinski():
    ast = builtin("sierpinski")
    assert [f.name for f in ast.families] == ["a"]
    assert len(models(ast)) == 2
    frame, _ = enumerate_frame(compile_theory(ast))
    assert len(frame.elements) == 3


def test_builtin_cantor_matches_source():
    assert builtin("cantor") == parse_theory(CANTOR_SRC)


def test_builtin_surjection_matches_source():
    got = builtin("surjection", n=1, x=2)
    want = parse_theory(SURJ_SRC.replace("i<n", "i<1").replace("v<X", "v<2")
                        .replace("w<X", "w<2").replace("some i<n", "some i<1")
                        .replace("some v<X", "some v<2"))
    assert compile_theory(got) == compile_theory(want)


def test_stone_prop_name_sanitizes():
    assert stone_prop_name("a") == "f_a"
    assert stone_prop_name("x-y") == "f_x_y"


@pytest.mark.parametrize("make", [three_chain, boolean4])
def test_builtin_stone_models_are_prime_filters(make):
    lat = make()
    ast = builtin("stone", lattice=lat)
    ms = models(ast, limits=Limits(generator_cap=16))
    got = {frozenset(e for e in lat.elements if m[stone_prop_name(e)])
           for m in ms}
    assert got == set(prime_filters(lat))


def test_builtin_unknown_rejected():
    with pytest.raises(ParseError):
        builtin("torus")
