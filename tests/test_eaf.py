"""Text format parsing, canonical serialization, and total rejection."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effalg import (
    EafDocument,
    EffectAlgebraError,
    MissingElement,
    MissingHeader,
    NegativeDenominator,
    ParseError,
    SizeLimit,
    State,
    UnknownName,
    boolean_algebra,
    build_effect_algebra,
    extract_sharp,
    find_state,
    mv_chain,
    parse_eaf,
    parse_state,
    serialize_eaf,
    serialize_state,
)
from effalg.constructions import FIXTURE_FILES, fixture_text

from oracles import parse_eaf_by_line

CHAIN3 = "ea v1\nelements 4\nnames 0 a 2a 1\nzero 0\none 1\nsum a a = 2a\nsum a 2a = 1\n"


def test_parse_and_rebuild_chain():
    E = build_effect_algebra(parse_eaf(CHAIN3))
    assert E.names == ("0", "a", "2a", "1")
    assert serialize_eaf(E) == CHAIN3


def test_serialization_is_canonical_for_generated_algebras(corpus):
    for name, E in corpus:
        text = serialize_eaf(E)
        again = build_effect_algebra(parse_eaf(text))
        assert serialize_eaf(again) == text, name
        assert again.names == E.names
        assert again.table == E.table


def test_comments_and_blanks_are_ignored():
    text = (
        "# chain of three\nea v1\n\nelements 4 # with a comment\n"
        "names 0 a 2a 1\nzero 0\none 1\n\nsum a a = 2a\nsum a 2a = 1\n"
    )
    E = build_effect_algebra(parse_eaf(text))
    assert serialize_eaf(E) == CHAIN3


def test_missing_header():
    with pytest.raises(MissingHeader):
        parse_eaf("")
    with pytest.raises(MissingHeader):
        parse_eaf("elements 2\n")


def test_parse_errors_carry_line_numbers():
    bad = "ea v1\nelements x\n"
    with pytest.raises(ParseError) as err:
        parse_eaf(bad)
    assert err.value.lineno == 2

    bad = CHAIN3.replace("sum a a = 2a", "sum a a 2a")
    with pytest.raises(ParseError) as err:
        parse_eaf(bad)
    assert err.value.lineno == 6


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "ea v1\nelements 2\n",
            "line 2: unexpected end of file, expected 'names ...'",
        ),
        (
            "ea v1\nelements 2\nzero 0\none 1\n",
            "line 3: expected 'names <name...>'",
        ),
        ("ea v1\nelements 3\nnames 0 1\n", "line 3: expected 3 names, found 2"),
        (
            "ea v1\nelements 2\nnames 0 1\none 1\n",
            "line 4: expected 'zero <name>'",
        ),
        (
            "ea v1\nelements 2\nnames 0 1\nzero 0\nsum 0 0 = 0\n",
            "line 5: expected 'one <name>'",
        ),
    ],
    ids=["end-of-file", "no-names", "name-count", "no-zero", "no-one"],
)
def test_each_missing_section_is_named(text, message):
    with pytest.raises(ParseError) as err:
        parse_eaf(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", MissingHeader, "line 1: missing 'state v1' header"),
        ("state v1\nvalue 0\n", ParseError, "line 2: expected 'value <name> <p>/<q>'"),
        (
            "state v1\nvalue 0 1/2/3\n",
            ParseError,
            "line 2: value '1/2/3' is not of the form p/q",
        ),
    ],
    ids=["empty", "short-line", "two-slashes"],
)
def test_each_bad_state_line_is_named(text, error, message):
    with pytest.raises(error) as err:
        parse_state(text, mv_chain(1))
    assert str(err.value) == message


def test_sections_must_come_in_order():
    shuffled = (
        "ea v1\nnames 0 1\nelements 2\nzero 0\none 1\n"
    )
    with pytest.raises(ParseError):
        parse_eaf(shuffled)


def test_name_constraints():
    with pytest.raises(ParseError):
        parse_eaf("ea v1\nelements 2\nnames 0 0\nzero 0\none 0\n")
    with pytest.raises(ParseError):
        parse_eaf("ea v1\nelements 2\nnames 0 a=b\nzero 0\none a=b\n")
    with pytest.raises(ParseError):
        parse_eaf("ea v1\nelements 2\nnames 0 café\nzero 0\none café\n")


def test_too_few_elements_rejected():
    with pytest.raises(ParseError):
        parse_eaf("ea v1\nelements 1\nnames 0\nzero 0\none 0\n")


@pytest.mark.parametrize(
    "count",
    ["1_0", "+10", "-3", "\u0661\u0660"],
    ids=["underscore", "plus-sign", "negative", "arabic-indic"],
)
def test_element_count_outside_the_grammar_is_a_parse_error(count):
    # the count is [0-9]+, ASCII digits only; int() alone takes all four
    text = serialize_eaf(mv_chain(9))
    assert "\nelements 10\n" in text
    assert len(parse_eaf(text).names) == 10
    with pytest.raises(ParseError, match="is not an integer"):
        parse_eaf(text.replace("\nelements 10\n", f"\nelements {count}\n"))


def test_element_count_above_the_cap_raises_size_limit():
    names = " ".join(f"e{i}" for i in range(255))
    doc = parse_eaf(f"ea v1\nelements 255\nnames {names}\nzero e0\none e254\n")
    assert len(doc.names) == 255
    with pytest.raises(
        SizeLimit, match="^line 2: algebras are read up to 255 elements, not 256$"
    ):
        parse_eaf(f"ea v1\nelements 256\nnames {names} e255\nzero e0\none e1\n")
    # refused from the count alone, before the names line is read
    with pytest.raises(SizeLimit, match="not 20000$"):
        parse_eaf("ea v1\nelements 20000\n")


# 5,000 digits, past the 4,300 that CPython's int() reads from a string
LONG = "1" + "0" * 4999


def test_numerals_past_the_digit_cap_raise_size_limit():
    message = "^line {}: numbers are read up to 4300 digits, not 5000$"
    with pytest.raises(SizeLimit, match=message.format(2)):
        parse_eaf(f"ea v1\nelements {LONG}\n")
    # 4,300 digits are read, and then meet the element cap
    with pytest.raises(SizeLimit, match="up to 255 elements, not 256$"):
        parse_eaf(f"ea v1\nelements {'0' * 4297}256\n")
    E = mv_chain(2)
    for value in (f"{LONG}/3", f"-{LONG}/3", f"1/{LONG}"):
        with pytest.raises(SizeLimit, match=message.format(3)):
            parse_state(f"state v1\nvalue 0 0/1\nvalue a {value}\nvalue 1 1/1\n", E)
    q = "7" * 4300
    values = parse_state(f"state v1\nvalue 0 0\nvalue a -1/{q}\nvalue 1 1\n", E)
    assert values[E.index("a")] == F(-1, int(q))


def test_sum_lines_past_the_ordered_pairs_raise_size_limit():
    head = "ea v1\nelements 2\nnames 0 1\nzero 0\none 1\n"
    # 2 elements have 4 ordered pairs, so a fifth sum line repeats one
    assert len(parse_eaf(head + "sum 0 0 = 0\n" * 4).sums) == 4
    message = "^line 10: sum lines are read up to 4, the ordered pairs of 2 elements, not 5$"
    with pytest.raises(SizeLimit, match=message):
        parse_eaf(head + "sum 0 0 = 0\n" * 5)
    # named from the first sum line past the cap, here after a comment line,
    # however many follow it; an error before the cap is named first
    with pytest.raises(SizeLimit, match="^line 11: .*, not 7$"):
        parse_eaf(head + "sum 0 0 = 0\n" * 4 + "# past\nsum 0 0 = 0\nbad\nsum q 0 = 0\n")
    with pytest.raises(ParseError, match="^line 7: expected 'sum <x> <y> = <z>'$"):
        parse_eaf(head + "sum 0 0 = 0\nbad\n" + "sum 0 0 = 0\n" * 5)


def test_a_sum_line_error_names_its_first_fault():
    head = "ea v1\nelements 2\nnames 0 1\nzero 0\none 1\n"
    for sums, message in [
        ("sum 0 0 = 0\nsum q 0 = 0\nsum 0 0 0\n", "line 7: unknown element name 'q'"),
        ("sum 0 0 = 0\nsum 0 0 0\nsum q 0 = 0\n", "line 7: expected 'sum <x> <y> = <z>'"),
        ("sum q r = s\n", "line 6: unknown element name 'q'"),
        ("sum 0 r = s\n", "line 6: unknown element name 'r'"),
        ("sum 0 0 = s\n", "line 6: unknown element name 's'"),
        ("sum q r s\n", "line 6: expected 'sum <x> <y> = <z>'"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_eaf(head + sums)
        assert str(err.value) == message


def _parsed(parse, text):
    """``parse(text)``, or the type, line number and message it raised."""
    try:
        return parse(text)
    except EffectAlgebraError as err:
        return type(err), getattr(err, "lineno", None), str(err)


_BASES = [serialize_eaf(E) for E in (mv_chain(1), mv_chain(4), boolean_algebra(2))]
_BASES += [fixture_text(name) for name in sorted(set(FIXTURE_FILES.values()))]
# tokens to insert: names of the bases, keywords, a stranger and a comment
_TOKENS = ["0", "1", "a", "b", "2a", "sum", "=", "zero", "one", "names", "q", "#", "x#y"]


@st.composite
def _mutated_documents(draw):
    """A valid document with tokens dropped, added, swapped or replaced by
    a stranger, blank or comment lines inserted and comments appended."""
    lines = [line.split() for line in draw(st.sampled_from(_BASES)).splitlines()]
    row = st.integers(min_value=0, max_value=len(lines) - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["drop", "add", "swap", "stranger", "blank",
                                     "comment", "trailing"]))
        tokens = lines[draw(row)]
        spot = draw(st.integers(min_value=0, max_value=len(tokens)))
        if kind == "drop" and tokens:
            del tokens[min(spot, len(tokens) - 1)]
        elif kind == "add":
            tokens.insert(spot, draw(st.sampled_from(_TOKENS)))
        elif kind == "swap" and len(tokens) > 1:
            i = min(spot, len(tokens) - 2)
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        elif kind == "stranger" and tokens:
            tokens[min(spot, len(tokens) - 1)] = "stranger"
        elif kind == "blank":
            lines.insert(spot % (len(lines) + 1), [])
        elif kind == "comment":
            lines.insert(spot % (len(lines) + 1), ["#", "sum", "a", "a", "=", "q"])
        elif kind == "trailing":
            tokens += ["#", "sum", "q"]
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@st.composite
def _two_faults(draw):
    """A valid document with a misshapen sum line and a sum line naming a
    stranger, in either order."""
    text = draw(st.sampled_from([b for b in _BASES if b.count("\nsum ") >= 2]))
    lines = text.splitlines()
    first, second = sorted(draw(st.lists(
        st.sampled_from([i for i, line in enumerate(lines) if line.startswith("sum ")]),
        min_size=2, max_size=2, unique=True,
    )))
    if draw(st.booleans()):
        first, second = second, first
    lines[first] = lines[first].replace(" = ", " ")
    tokens = lines[second].split()
    tokens[draw(st.sampled_from([1, 2, 4]))] = "stranger"
    lines[second] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@given(st.one_of(_mutated_documents(), _two_faults()))
@settings(max_examples=400, deadline=None)
def test_the_bulk_reader_agrees_with_the_line_by_line_reader(text):
    # an equal document, or the same error type, line number and message
    assert _parsed(parse_eaf, text) == _parsed(parse_eaf_by_line, text)


def test_building_reports_the_first_unknown_name_in_declaration_order():
    doc = EafDocument(("0", "a", "1"), "0", "1", (("a", "a", "1"), ("a", "p", "q")))
    with pytest.raises(UnknownName, match="^unknown element name 'p'$"):
        build_effect_algebra(doc)
    # zero and one come before the sums
    doc = EafDocument(("0", "a", "1"), "0", "one", (("a", "a", "1"), ("a", "p", "q")))
    with pytest.raises(UnknownName, match="^unknown element name 'one'$"):
        build_effect_algebra(doc)
    doc = EafDocument(("0", "a", "1"), "zero", "1", (("a", "q", "1"),))
    with pytest.raises(UnknownName, match="^unknown element name 'zero'$"):
        build_effect_algebra(doc)


def test_unknown_zero_or_one():
    with pytest.raises(ParseError):
        parse_eaf("ea v1\nelements 2\nnames 0 1\nzero q\none 1\n")


def test_unknown_sum_operand():
    text = CHAIN3.replace("sum a 2a = 1", "sum a q = 1")
    with pytest.raises(ParseError):
        parse_eaf(text)


def test_state_round_trip():
    E = mv_chain(2)
    found = find_state(E)
    assert isinstance(found, State)
    text = serialize_state(found)
    values = parse_state(text, E)
    assert values == {x: found(x) for x in range(E.size)}
    again = serialize_state(State(E, tuple(values[i] for i in range(E.size))))
    assert again == text


def test_state_values_allow_shorthand():
    E = mv_chain(2)
    text = "state v1\nvalue 0 0\nvalue a +3/6\nvalue 1 1\n"
    values = parse_state(text, E)
    assert values[E.index("a")] == F(1, 2)
    assert values[E.zero] == 0
    assert values[E.one] == 1


def test_state_rejects_nonpositive_denominator():
    E = mv_chain(2)
    with pytest.raises(NegativeDenominator):
        parse_state("state v1\nvalue 0 0/1\nvalue a 1/-2\nvalue 1 1/1\n", E)
    with pytest.raises(NegativeDenominator):
        parse_state("state v1\nvalue 0 0/0\nvalue a 1/2\nvalue 1 1/1\n", E)


@pytest.mark.parametrize(
    "value",
    ["1_0/20", "1/2_0", "1/+2", "\u0660/1", "1/\u0662", "+/2", "1/", "0x1/2"],
    ids=["underscore-in-p", "underscore-in-q", "sign-on-q", "arabic-indic-p",
         "arabic-indic-q", "sign-alone", "empty-q", "hex-p"],
)
def test_state_values_outside_the_grammar_are_parse_errors(value):
    # p is [+-]?[0-9]+ and q is [0-9]+, ASCII digits only
    E = mv_chain(2)
    with pytest.raises(ParseError):
        parse_state(f"state v1\nvalue 0 0/1\nvalue a {value}\nvalue 1 1/1\n", E)


def test_state_requires_every_element():
    E = mv_chain(2)
    with pytest.raises(MissingElement):
        parse_state("state v1\nvalue 0 0/1\nvalue 1 1/1\n", E)


def test_state_rejects_duplicates_and_strangers():
    E = mv_chain(2)
    with pytest.raises(ParseError):
        parse_state(
            "state v1\nvalue 0 0/1\nvalue 0 0/1\nvalue a 1/2\nvalue 1 1/1\n", E
        )
    with pytest.raises(ParseError):
        parse_state("state v1\nvalue q 1/2\n", E)


def test_state_header_is_required():
    E = mv_chain(2)
    with pytest.raises(MissingHeader):
        parse_state("value 0 0/1\n", E)


def test_state_serialization_shows_explicit_denominators():
    E = boolean_algebra(1)
    sub = extract_sharp(E)
    text = serialize_state(State(sub.algebra, (F(0), F(1))))
    assert text == "state v1\nvalue 0 0/1\nvalue 1 1/1\n"


@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=120))
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_never_builds_a_partial_algebra(text):
    try:
        doc = parse_eaf(text)
    except ParseError:
        return
    # if parsing succeeded, the document must be structurally complete
    assert len(doc.names) >= 2
    assert doc.zero in doc.names and doc.one in doc.names


@given(st.integers(min_value=1, max_value=8))
def test_chain_fixtures_round_trip(n):
    E = mv_chain(n)
    assert build_effect_algebra(parse_eaf(serialize_eaf(E))).table == E.table
