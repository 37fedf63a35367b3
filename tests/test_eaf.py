"""Text format parsing, canonical serialization, and total rejection."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effalg import (
    MissingElement,
    MissingHeader,
    NegativeDenominator,
    ParseError,
    SizeLimit,
    State,
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
