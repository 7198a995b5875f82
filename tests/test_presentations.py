"""Presented frames: stabilization, saturation, C-ideal algebra, positivity
certificates, and the presentation text format."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import frame_oracles
from conftest import cantor_presentation, free_presentation
from pointfree.config import Limits
from pointfree.errors import CapExceeded, MixedPresentations, ParseError
from pointfree.presentations import (TOP_MEET, CIdeal, FramePresentation,
                                     check_positivity_certificate,
                                     parse_join, parse_meet,
                                     parse_presentation_text,
                                     presentation_text, saturate, stabilize)


def all_cideals(p):
    """Brute force: every downset of formal meets that is saturated, each
    checked to be the C-ideal that saturating it gives."""
    meets = p.all_meets()
    out = []
    for n in range(len(meets) + 1):
        for sub in combinations(meets, n):
            d = frozenset(sub)
            if any(m | {g} not in d for m in d for g in p.generators):
                continue
            if any(lhs not in d and rhs <= d for lhs, rhs in p.covers):
                continue
            c = saturate(p, d)
            assert isinstance(c, CIdeal) and c.members == d
            out.append(c)
    return out


# --- stabilization --------------------------------------------------------------

def test_stabilize_no_covers_unchanged():
    p = stabilize(free_presentation(2))
    assert p.covers == frozenset()


def test_stabilize_is_idempotent():
    p = stabilize(cantor_presentation(1))
    assert stabilize(p).covers == p.covers


def test_stabilize_single_top_cover():
    p = stabilize(FramePresentation.make(["g"], [((), [("g",)])]))
    g = frozenset(["g"])
    assert p.covers == frozenset([(TOP_MEET, frozenset([g])),
                                  (g, frozenset([g]))])


def test_stabilize_cantor_adds_meet_closed_rules():
    p = stabilize(cantor_presentation(1))
    z, u = frozenset(["z0"]), frozenset(["u0"])
    # the top cover meeted with z0 must be present
    assert (z, frozenset([z, z | u])) in p.covers
    # the nullary cover meeted with anything keeps an empty right side
    assert (z | u, frozenset()) in p.covers


def test_stabilize_generator_cap():
    with pytest.raises(CapExceeded):
        stabilize(free_presentation(9))


# --- saturation -----------------------------------------------------------------

def test_saturate_empty_is_bottom_when_no_nullary_covers():
    p = stabilize(free_presentation(2))
    assert saturate(p, []).members == frozenset()


def test_saturate_cantor_both_bits_is_top():
    p = stabilize(cantor_presentation(1))
    top = saturate(p, [frozenset(["z0"]), frozenset(["u0"])])
    assert top.members == frozenset(p.all_meets())


def test_saturate_free_downward_closure_only():
    p = stabilize(free_presentation(2))
    got = saturate(p, [frozenset(["g0"])])
    assert got.members == {frozenset(["g0"]), frozenset(["g0", "g1"])}


def test_saturate_reads_the_covers_as_given():
    """A model of the covers is one of their meet-stabilization, so
    neither saturation nor the positivity certificate needs stabilizing:
    each gives the same answer on the covers as given and stabilized."""
    p = cantor_presentation(1)
    q = stabilize(p)
    for seed in ([], [frozenset(["z0"])],
                 [frozenset(["z0"]), frozenset(["u0"])]):
        assert saturate(p, seed).members == saturate(q, seed).members
    z, u = frozenset(["z0"]), frozenset(["u0"])
    verdicts = []
    for cand in ([TOP_MEET], [TOP_MEET, z], [TOP_MEET, z, u],
                 [TOP_MEET, z, u, z | u], [z, u], p.all_meets()):
        verdicts.append(check_positivity_certificate(p, cand))
        assert check_positivity_certificate(q, cand) == verdicts[-1]
    assert verdicts == [False, False, True, False, False, False]


def test_cideals_keep_the_generator_cap():
    """A presentation is checked against the generator_cap of the limits
    given before its 2^g formal meets are built (30 generators: 2^30-bit
    masks), whatever limits it was stabilized under."""
    with pytest.raises(CapExceeded, match="generators has size 30"):
        saturate(free_presentation(30), [])
    p = free_presentation(9)
    with pytest.raises(CapExceeded, match="generators has size 9"):
        saturate(p, [])
    q = stabilize(p, limits=Limits(generator_cap=9))
    with pytest.raises(CapExceeded, match="generators has size 9"):
        saturate(q, [])
    assert saturate(q, [], Limits(generator_cap=9)).presentation is q


def random_presentations():
    gens = st.integers(min_value=1, max_value=3).map(
        lambda n: tuple(f"g{i}" for i in range(n)))

    def build(gen_names, seeds):
        covers = []
        for lhs_bits, rhs_list in seeds:
            lhs = frozenset(g for i, g in enumerate(gen_names)
                            if lhs_bits >> i & 1)
            rhs = [frozenset(g for i, g in enumerate(gen_names)
                             if bits >> i & 1) for bits in rhs_list]
            covers.append((lhs, rhs))
        return stabilize(FramePresentation.make(gen_names, covers))

    seeds = st.lists(st.tuples(st.integers(0, 7),
                               st.lists(st.integers(0, 7), max_size=2)),
                     max_size=3)
    return st.builds(build, gens, seeds)


@settings(max_examples=60, deadline=None)
@given(random_presentations(), st.integers(0, 255), st.integers(0, 255))
def test_saturate_is_a_closure_operator(p, bits_a, bits_b):
    meets = p.all_meets()
    seed_a = [m for i, m in enumerate(meets) if bits_a >> i & 1]
    seed_b = [m for i, m in enumerate(meets) if bits_b >> i & 1]
    sa, sb = saturate(p, seed_a), saturate(p, seed_b)
    assert set(seed_a) <= sa.members                      # extensive
    if set(seed_a) <= set(seed_b):
        assert sa.members <= sb.members                   # monotone
    assert saturate(p, sa.members).members == sa.members  # idempotent


# --- C-ideal algebra --------------------------------------------------------------

def test_cideal_leq_top():
    p = stabilize(cantor_presentation(1))
    for c in all_cideals(p):
        assert c <= saturate(p, [TOP_MEET])


def test_cantor_join_and_meet_of_the_two_bits():
    p = stabilize(cantor_presentation(1))
    z = saturate(p, [frozenset(["z0"])])
    u = saturate(p, [frozenset(["u0"])])
    both = saturate(p, [frozenset(["z0"]), frozenset(["u0"])])
    assert z <= both and u <= both
    assert both.members == saturate(p, [TOP_MEET]).members
    assert saturate(p, [frozenset(["z0", "u0"])]).members == \
        saturate(p, []).members


def test_mixed_presentations_rejected():
    p1 = stabilize(cantor_presentation(1))
    p2 = stabilize(free_presentation(1))
    with pytest.raises(MixedPresentations):
        saturate(p1, [TOP_MEET]) <= saturate(p2, [TOP_MEET])


# --- positivity certificates --------------------------------------------------------

def cantor_certificate(n):
    p = stabilize(cantor_presentation(n))
    return p, {m for m in p.all_meets()
               if not any({f"z{i}", f"u{i}"} <= m for i in range(n))}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cantor_certificate_accepted(n):
    p, pos = cantor_certificate(n)
    assert check_positivity_certificate(p, pos)


def test_free_presentation_all_meets_positive():
    p = stabilize(free_presentation(2))
    assert check_positivity_certificate(p, p.all_meets())


def test_top_only_certificate_rejected():
    p = stabilize(cantor_presentation(1))
    assert not check_positivity_certificate(p, [TOP_MEET])


def test_certificate_single_condition_mutants_rejected():
    p, pos = cantor_certificate(2)
    mutants = []
    for m in sorted(pos, key=lambda s: (len(s), sorted(s))):
        mutants.append(pos - {m})
    negatives = [m for m in p.all_meets() if m not in pos]
    for m in sorted(negatives, key=lambda s: (len(s), sorted(s))):
        mutants.append(pos | {m})
    assert len(mutants) >= 10
    for mutant in mutants:
        assert not check_positivity_certificate(p, mutant)


# --- text format ----------------------------------------------------------------------

def test_presentation_text_round_trip():
    p = cantor_presentation(2)
    text = presentation_text(p)
    assert parse_presentation_text(text) == p


def test_parse_presentation_examples():
    p = parse_presentation_text(
        "# a comment\n"
        "gen z0 u0\n"
        "rel z0 & u0 <= bot\n"
        "rel top <= z0 | u0\n")
    assert p == cantor_presentation(1)


def test_parse_presentation_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_presentation_text("gen a\nrel a b\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_presentation_text("huh a\n")
    with pytest.raises(ParseError):
        parse_presentation_text("gen a\nrel & <= a\n")
    with pytest.raises(ParseError, match="^cover rule mentions undeclared "
                       "generator 'b'$"):
        parse_presentation_text("gen a\nrel b <= a\n")
    with pytest.raises(ParseError, match="^cover rule mentions undeclared "
                       "generator 'b'$"):  # the least undeclared name
        FramePresentation.make(["a"], [({"a"}, [{"c"}, {"b"}])])


def test_one_reader_for_meets_and_joins():
    """`rel` lines and the command line read formal meets and joins alike:
    names joined by `&`, meets joined by `|`, `top` and `bot` alone."""
    assert parse_meet(" top ") == TOP_MEET
    assert parse_meet("b&a") == parse_meet(" a & b ") == frozenset("ab")
    assert parse_join(" bot ") == []
    assert parse_join("a | top|b & c") == [frozenset("a"), TOP_MEET,
                                           frozenset("bc")]
    for text, message in [("a &", "bad formal meet 'a &'"),
                          ("", "bad formal meet ''"),
                          ("a | x-y", "bad formal meet 'x-y'"),
                          ("a | top & b", "reserved word 'top' must stand "
                           "alone: 'top' as a whole meet, 'bot' as a whole "
                           "join"),
                          ("bot | a", "reserved word 'bot' must stand "
                           "alone: 'top' as a whole meet, 'bot' as a whole "
                           "join")]:
        with pytest.raises(ParseError) as err:
            parse_join(text, 7)
        assert (err.value.message, err.value.line) == (message, 7)


@pytest.mark.parametrize("rule, word", [
    ("a <= a | bot", "bot"), ("bot <= a", "bot"), ("top & a <= a", "top"),
    ("a <= a | top & a", "top"), ("a <= bot & a", "bot")])
def test_a_reserved_word_in_a_rule_is_refused_at_its_line(rule, word):
    """Inside a compound meet or join, `top` or `bot` was read as a name,
    and refused as an undeclared generator."""
    with pytest.raises(ParseError) as err:
        parse_presentation_text(f"gen a\nrel {rule}\n")
    assert (err.value.message, err.value.line) == (
        f"reserved word {word!r} must stand alone: 'top' as a whole meet, "
        "'bot' as a whole join", 2)


def test_an_unknown_generator_is_refused_by_its_least_name():
    """saturate and the positivity certificate read a query's meets
    through one conversion, which names the least unknown generator."""
    p = cantor_presentation(1)
    meets = [frozenset({"z0"}), frozenset({"w", "q", "p"}), frozenset("o")]
    for check in (saturate, check_positivity_certificate):
        with pytest.raises(ParseError, match="^unknown generator 'o'$"):
            check(p, meets)


def test_directive_word_ends_at_any_whitespace():
    """`gen` and `rel` may be followed by a tab, as the rest of a line may
    be spaced by any whitespace; a bare word is refused by what it lacks."""
    assert parse_presentation_text("gen\tz0  u0\nrel\tz0 & u0 <= bot\n"
                                   "rel top\t<= z0 | u0\n") == \
        cantor_presentation(1)
    for text, message, line in [("gen a\ngen # none\n",
                                  "gen needs a generator name", 2),
                                 ("gen a\nrel\n", "relation needs '<='", 2),
                                 ("gen a\ngenerator a\n",
                                  "unknown directive 'generator'", 2)]:
        with pytest.raises(ParseError) as err:
            parse_presentation_text(text)
        assert (err.value.message, err.value.line) == (message, line)


@pytest.mark.parametrize("text, name, line", [
    ("gen a&b c|d x-y\n", "a&b", 1),
    ("gen a b_2\ngen c x-y\nrel a <= c\n", "x-y", 2),
    ("rel a <= top\ngen a\ngen b.\n", "b.", 3)])
def test_generator_names_follow_the_meet_name_rule(text, name, line):
    """A `gen` name is letters, digits and underscores, as in a formal
    meet, so that every printed meet reads back as the same meet."""
    with pytest.raises(ParseError) as err:
        parse_presentation_text(text)
    assert (err.value.message, err.value.line) == \
        (f"bad generator name {name!r}", line)
    p = parse_presentation_text("gen a_1 B2 _x\nrel a_1 & _x <= B2\n")
    assert p.generators == ("B2", "_x", "a_1")


def test_generators_are_counted_before_any_mask_is_built(monkeypatch):
    """A cover mask has a bit per generator, so the parser refuses past
    generator_cap before it calls make: the masks of a 794 KB file of
    100,000 generators and 5,000 rules take about 800 MB.  The count
    comes before the undeclared generator on the rel line."""
    text = "gen " + " ".join(f"g{i}" for i in range(9)) + "\nrel z <= g0\n"
    with monkeypatch.context() as m:
        m.setattr(FramePresentation, "make", None)
        with pytest.raises(CapExceeded, match=r"^generators has size 9, "
                           r"exceeding cap 8 \(generator_cap\)$"):
            parse_presentation_text(text)
    with pytest.raises(ParseError, match="undeclared generator 'z'"):
        parse_presentation_text(text, Limits(generator_cap=9))


@st.composite
def name_covers(draw):
    """0 to 5 generator names, unsorted, and covers on them as name
    collections: top left sides, bot right sides and repeated covers."""
    names = draw(st.permutations(["b", "a_1", "z", "c2", "A"]))
    gens = names[:draw(st.integers(0, 5))]
    meet = st.frozensets(st.sampled_from(gens), max_size=3) if gens \
        else st.just(frozenset())
    covers = draw(st.lists(st.tuples(meet, st.lists(meet, max_size=3)),
                           max_size=6))
    if covers:
        covers += draw(st.lists(st.sampled_from(covers), max_size=2))
    return gens, covers


@settings(max_examples=300, deadline=None)
@given(name_covers())
def test_cover_masks_match_the_name_set_oracles(gens_covers):
    """make's masks read back as the covers given; stabilize and
    presentation_text on the masks equal the name-set oracles, and the
    text parses back to the presentation, with no generators too."""
    gens, covers = gens_covers
    p = FramePresentation.make(gens, covers)
    assert p.covers == {(frozenset(lhs), frozenset(map(frozenset, rhs)))
                        for lhs, rhs in covers}
    s = stabilize(p)
    assert s == frame_oracles.stabilize(p)
    for q in (p, s):
        assert presentation_text(q) == frame_oracles.presentation_text(q)
        assert parse_presentation_text(presentation_text(q)) == q
