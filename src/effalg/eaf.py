"""Plain-text exchange formats for algebras and states.

Algebra files (``.eaf``)::

    ea v1
    elements 6
    names 0 a b ab 2a 1
    zero 0
    one 1
    sum a a = 2a
    sum a b = ab

Sections appear in exactly that order.  Blank lines and ``#`` comments
(whole-line or trailing) are ignored.  Names are whitespace-free tokens and
must be pairwise distinct; ``names`` lists all of them on one line.  Sums
involving the zero element are legal input but redundant.  A file of n
elements has at most n² sum lines, one per ordered pair; a line past
that cap can only repeat a pair, and raises :class:`SizeLimit`.

The sum lines are read in bulk: one pass keeps the operands and result of
every well-formed line and one set test checks the names they use.  Only
a file that fails either is walked again line by line, to name its first
error exactly as a line-by-line reader would: shape before names on each
line, and x before y before z.

Canonical serialization omits zero-involving sums, writes the smaller
operand index first, sorts sum lines by operand index pair, writes no
comments, and ends with a trailing newline.  Parsing a serialized document
returns an equal document, and serialization is deterministic, so files can
be compared bytewise.

State files (``.state``)::

    state v1
    value 0 0/1
    value a 1/2

Every element of the intended domain gets exactly one line.  Values are
rationals ``p/q`` in ASCII digits, with an optional sign on ``p`` and a
positive ``q`` (no sign, no ``_``); a bare integer abbreviates ``p/1``.
Out-of-range values parse fine and are reported by state verification,
not here.  Canonical serialization lists every element in index order as
explicit reduced ``p/q``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import TYPE_CHECKING

from .core import _MAX_ELEMENTS
from .errors import (
    MissingElement,
    MissingHeader,
    NegativeDenominator,
    ParseError,
    SizeLimit,
)

if TYPE_CHECKING:  # pragma: no cover
    from .core import EffectAlgebra
    from .states import State

_EA_HEADER = "ea v1"
_STATE_HEADER = "state v1"
_COUNT = re.compile(r"[0-9]+")
# The most digits a numeral may have: CPython's default cap on int() of a
# string, checked first so that a longer numeral raises SizeLimit.
_MAX_DIGITS = 4300


@dataclass(frozen=True)
class EafDocument:
    """A parsed algebra file: names plus declared sums, nothing derived.

    ``sums`` keeps the declarations in file order and by name; resolution
    against indices and all validation happen when an algebra is built.
    """

    names: tuple[str, ...]
    zero: str
    one: str
    sums: tuple[tuple[str, str, str], ...]


def _logical_lines(text: str) -> tuple[list[int], list[list[str]]]:
    """The non-empty lines, comments gone: their 1-based line numbers and,
    in step, their token lists.

    Built in C: names cannot contain ``#``, so comments are split off only
    when the text has one.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    tokens = list(map(str.split, lines))
    numbers = list(compress(range(1, len(tokens) + 1), tokens))
    return numbers, list(filter(None, tokens))


def parse_eaf(text: str) -> EafDocument:
    """Parse an algebra file into an :class:`EafDocument`.

    Enforces the fixed section order and every lexical rule of the format;
    all errors carry the offending line number.  Raises :class:`SizeLimit`
    as soon as the element count exceeds ``_MAX_ELEMENTS``, before the
    names are read, and from the first sum line past ``count * count``.
    The sum lines are checked in one pass and one set test, and walked
    line by line only when one is bad, to raise the first error in file
    order.  Semantic validation (axiom checking) is not done here.
    """
    numbers, lines = _logical_lines(text)
    if not lines:
        raise MissingHeader(1, f"missing {_EA_HEADER!r} header")
    pos = 0

    def take(expect: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(numbers[-1], f"unexpected end of file, expected {expect}")
        item = numbers[pos], lines[pos]
        pos += 1
        return item

    lineno, tokens = take("header")
    if tokens != [_EA_HEADER.split()[0], _EA_HEADER.split()[1]]:
        raise MissingHeader(lineno, f"expected {_EA_HEADER!r} header")

    lineno, tokens = take("'elements <n>'")
    if len(tokens) != 2 or tokens[0] != "elements":
        raise ParseError(lineno, "expected 'elements <n>'")
    # int() alone would also take "1_0", "+10" and non-ASCII digits
    if not _COUNT.fullmatch(tokens[1]):
        raise ParseError(lineno, f"element count {tokens[1]!r} is not an integer")
    count = _int(tokens[1], lineno)
    if count < 2:
        raise ParseError(lineno, "an effect algebra needs at least 2 elements")
    if count > _MAX_ELEMENTS:
        raise SizeLimit(
            f"line {lineno}: algebras are read up to {_MAX_ELEMENTS} elements, "
            f"not {count}"
        )

    lineno, tokens = take("'names ...'")
    if not tokens or tokens[0] != "names":
        raise ParseError(lineno, "expected 'names <name...>'")
    names = tuple(tokens[1:])
    if len(names) != count:
        raise ParseError(
            lineno, f"expected {count} names, found {len(names)}"
        )
    name_set = set(names)
    if len(name_set) != len(names):
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        raise ParseError(lineno, f"duplicate element name {dup!r}")
    for name in names:
        if not name.isascii() or "#" in name or "=" in name:
            raise ParseError(
                lineno,
                f"element name {name!r} must be ASCII without '#' or '='",
            )

    def known(name: str, lineno: int) -> str:
        if name not in name_set:
            raise ParseError(lineno, f"unknown element name {name!r}")
        return name

    lineno, tokens = take("'zero <name>'")
    if len(tokens) != 2 or tokens[0] != "zero":
        raise ParseError(lineno, "expected 'zero <name>'")
    zero = known(tokens[1], lineno)

    lineno, tokens = take("'one <name>'")
    if len(tokens) != 2 or tokens[0] != "one":
        raise ParseError(lineno, "expected 'one <name>'")
    one = known(tokens[1], lineno)

    # Every sum line in one pass and the names they use in one set test.
    # Lines past the cap are left out of the pass, so the count test fails
    # for them too; a document that fails either test is walked again,
    # only to name its first error.
    body = lines[pos:]
    cap = count * count
    sums = [
        (t[1], t[2], t[4])
        for t in body[:cap]
        if len(t) == 5 and t[0] == "sum" and t[3] == "="
    ]
    if (
        len(sums) != len(body)
        or not name_set.issuperset(chain.from_iterable(sums))
    ):
        for i, (lineno, tokens) in enumerate(zip(numbers[pos:], body)):
            if i == cap:
                raise SizeLimit(
                    f"line {lineno}: sum lines are read up to {cap}, the ordered "
                    f"pairs of {count} elements, not {len(body)}"
                )
            if len(tokens) != 5 or tokens[0] != "sum" or tokens[3] != "=":
                raise ParseError(lineno, "expected 'sum <x> <y> = <z>'")
            for name in (tokens[1], tokens[2], tokens[4]):
                if name not in name_set:
                    raise ParseError(lineno, f"unknown element name {name!r}")

    return EafDocument(names, zero, one, tuple(sums))


def serialize_eaf(E: "EffectAlgebra") -> str:
    """Canonical text form of an algebra; stable under round trips."""
    lines = [
        _EA_HEADER,
        f"elements {E.size}",
        "names " + " ".join(E.names),
        f"zero {E.names[E.zero]}",
        f"one {E.names[E.one]}",
    ]
    for x, y, z in E.canonical_sums():
        lines.append(f"sum {E.names[x]} {E.names[y]} = {E.names[z]}")
    return "\n".join(lines) + "\n"


# a minus sign on q parses, so that it is reported as a nonpositive denominator
_NUMERATOR = re.compile(r"[+-]?[0-9]+")
_DENOMINATOR = re.compile(r"-?[0-9]+")


def _int(numeral: str, lineno: int) -> int:
    """``int(numeral)`` for an ASCII numeral with an optional sign, once
    it has at most ``_MAX_DIGITS`` digits; :class:`SizeLimit` otherwise."""
    digits = len(numeral.lstrip("+-"))
    if digits > _MAX_DIGITS:
        raise SizeLimit(
            f"line {lineno}: numbers are read up to {_MAX_DIGITS} digits, "
            f"not {digits}"
        )
    return int(numeral)


def _parse_rational(token: str, lineno: int) -> Fraction:
    parts = token.split("/")
    if len(parts) == 1:
        num, den = parts[0], "1"
    elif len(parts) == 2:
        num, den = parts
    else:
        raise ParseError(lineno, f"value {token!r} is not of the form p/q")
    # int() alone would also take "1_0", "+2" and non-ASCII digits
    if not (_NUMERATOR.fullmatch(num) and _DENOMINATOR.fullmatch(den)):
        raise ParseError(lineno, f"value {token!r} is not of the form p/q")
    p, q = _int(num, lineno), _int(den, lineno)
    if q <= 0:
        raise NegativeDenominator(
            f"line {lineno}: value {token!r} has nonpositive denominator"
        )
    return Fraction(p, q)


def parse_state(text: str, E: "EffectAlgebra") -> dict[int, Fraction]:
    """Parse a state file against an intended domain algebra.

    Returns a total element-index-to-value mapping.  Whether the values
    form a state (endpoints, range, additivity) is the state engine's
    business; this only enforces the grammar and totality.
    """
    numbers, lines = _logical_lines(text)
    if not lines:
        raise MissingHeader(1, f"missing {_STATE_HEADER!r} header")
    if lines[0] != _STATE_HEADER.split():
        raise MissingHeader(numbers[0], f"expected {_STATE_HEADER!r} header")
    index = {name: i for i, name in enumerate(E.names)}
    values: dict[int, Fraction] = {}
    for lineno, tokens in zip(numbers[1:], lines[1:]):
        if len(tokens) != 3 or tokens[0] != "value":
            raise ParseError(lineno, "expected 'value <name> <p>/<q>'")
        name = tokens[1]
        idx = index.get(name)
        if idx is None:
            raise ParseError(lineno, f"unknown element name {name!r}")
        if idx in values:
            raise ParseError(lineno, f"duplicate value for {name!r}")
        values[idx] = _parse_rational(tokens[2], lineno)
    missing = [E.names[i] for i in range(E.size) if i not in values]
    if missing:
        raise MissingElement(
            "no value for element(s): " + " ".join(missing)
        )
    return values


def serialize_state(state: "State") -> str:
    """Canonical text form of a state, one line per element in index order."""
    lines = [_STATE_HEADER]
    for i, name in enumerate(state.domain.names):
        v = state.values[i]
        lines.append(f"value {name} {v.numerator}/{v.denominator}")
    return "\n".join(lines) + "\n"
