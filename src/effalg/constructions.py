"""Generators for standard finite effect algebras and bundled fixtures.

Every constructor builds its byte rows directly, with no table of declared
sums, and hands them to the same axiom check as parsed input, which also
tests these rows, unlike rows closed from declared sums, for symmetry
and the identity as zero row.  So a buggy generator fails loudly rather
than producing a quietly broken structure.
Results have at most ``core._MAX_ELEMENTS`` (255) elements; a larger one
raises :class:`SizeLimit` before its rows are built.
"""

from __future__ import annotations

from operator import itemgetter
from string import ascii_lowercase

from .core import (
    _ALL_UNDEF,
    _EVERY_BYTE,
    _MAX_ELEMENTS,
    _UNDEF,
    EffectAlgebra,
    Witnesses,
    _algebra,
    build_effect_algebra,
)
from .eaf import parse_eaf
from .errors import DegenerateBlock, SizeLimit

_MAX_BOOLEAN_EXPONENT = 6
_MAX_CHAIN_LENGTH = _MAX_ELEMENTS - 1
_MAX_BLOCKS = len(ascii_lowercase)

FIXTURE_FILES = {
    "example-2.5": "example-2.5.eaf",
    "example-3.7": "example-2.5.eaf",  # same table published under two names
    "example-4.4": "example-4.4.eaf",
}


def mv_chain(n: int) -> EffectAlgebra:
    """The (n+1)-element chain 0 < a < 2a < ... < na = 1.

    ``k*a + l*a`` is defined exactly when ``k + l <= n``; the generator has
    isotropic index n.  ``mv_chain(1)`` is the 2-element Boolean algebra.
    Chains are provided for ``1 <= n <= 254``, up to 255 elements.
    """
    if not 1 <= n <= _MAX_CHAIN_LENGTH:
        raise SizeLimit(f"chains are provided for 1 <= n <= {_MAX_CHAIN_LENGTH}")
    names = ["0"]
    if n >= 2:
        names.append("a")
        names.extend(f"{k}a" for k in range(2, n))
    names.append("1")
    # row k holds k + l at index l while k + l <= n, then undefined
    rows = [_EVERY_BYTE[k : n + 1] + _ALL_UNDEF[:k] for k in range(n + 1)]
    return _algebra(names, 0, n, rows, Witnesses())


def _subset_name(mask: int, k: int) -> str:
    if mask == 0:
        return "0"
    if mask == (1 << k) - 1:
        return "1"
    return "s" + "".join(str(i) for i in range(k) if mask >> i & 1)


def boolean_algebra(k: int) -> EffectAlgebra:
    """The Boolean algebra of subsets of a k-element set, 1 <= k <= 6.

    Element index is the subset bitmask; the sum of disjoint subsets is
    their union and is undefined otherwise.  Every element is sharp.
    """
    if not 1 <= k <= _MAX_BOOLEAN_EXPONENT:
        raise SizeLimit(
            f"subset algebras are provided for 1 <= k <= {_MAX_BOOLEAN_EXPONENT}"
        )
    n = 1 << k
    names = [_subset_name(m, k) for m in range(n)]
    rows = [bytes(_UNDEF if x & y else x | y for y in range(n)) for x in range(n)]
    return _algebra(names, 0, n - 1, rows, Witnesses())


def horizontal_sum(parts: list[EffectAlgebra]) -> EffectAlgebra:
    """Glue algebras at a shared zero and one; sums stay within one block.

    Interior elements of block p are renamed positionally to ``a, 2a, ...``
    with the letter advancing per block, so the result is independent of
    the parts' own labels.  A single part is returned unchanged.  The
    sum may have at most 255 elements.
    """
    if not parts:
        raise ValueError("horizontal sum needs at least one part")
    if len(parts) == 1:
        return parts[0]
    if len(parts) > _MAX_BLOCKS:
        raise SizeLimit(f"at most {_MAX_BLOCKS} blocks supported")
    if min(part.size for part in parts) < 3:
        raise DegenerateBlock("every block needs an interior element (size >= 3)")
    n = 2 + sum(part.size - 2 for part in parts)
    _check_size("horizontal sums", n)
    one = n - 1

    names = ["0"]
    rows = [_EVERY_BYTE[:n]]
    for p, part in enumerate(parts):
        letter = ascii_lowercase[p]
        interior = [x for x in range(part.size) if x not in (part.zero, part.one)]
        start, stop = len(names), len(names) + len(interior)
        names += [letter] + [f"{k}{letter}" for k in range(2, len(interior) + 1)]
        # the part's elements as elements of the sum
        elements = (part.zero, part.one, *interior)
        glue = bytes.maketrans(bytes(elements), bytes((0, one, *range(start, stop))))
        # the part's columns in the sum's order; index part.size, an _UNDEF
        # padded onto each row, stands for the columns outside the block
        out = [part.size]
        pick = itemgetter(
            part.zero, *out * (start - 1), *interior, *out * (one - stop), part.one
        )
        for x in interior:
            rows.append(bytes(pick(part.rows[x] + _ALL_UNDEF[:1])).translate(glue))
    names.append("1")
    rows.append(bytes((one,)) + _ALL_UNDEF[: n - 1])
    return _algebra(names, 0, one, rows, Witnesses())


def direct_product(E1: EffectAlgebra, E2: EffectAlgebra) -> EffectAlgebra:
    """Componentwise product: a pair is summable iff both components are.

    Row (x1, x2) joins, for each s in E1's row x1, E2's row x2 translated
    by s·n2, or an undefined stretch where s is ``_UNDEF``.  The product
    may have at most 255 elements.
    """
    n1, n2 = E1.size, E2.size
    _check_size("products", n1 * n2)
    names = [f"{name1},{name2}" for name1 in E1.names for name2 in E2.names]
    # shift[s] sends x2 to (s, x2), and everything to _UNDEF for s = _UNDEF
    shift = [_EVERY_BYTE[s * n2 : (s + 1) * n2] + _ALL_UNDEF[n2:] for s in range(n1)]
    shift += [_ALL_UNDEF] * (256 - n1)
    rows = [
        b"".join(map(row2.translate, map(shift.__getitem__, row1)))
        for row1 in E1.rows
        for row2 in E2.rows
    ]
    zero = E1.zero * n2 + E2.zero
    one = E1.one * n2 + E2.one
    return _algebra(names, zero, one, rows, Witnesses())


def _check_size(kind: str, n: int) -> None:
    """Refuse, before building it, a result of more than the cap's elements."""
    if n > _MAX_ELEMENTS:
        raise SizeLimit(
            f"{kind} are provided up to {_MAX_ELEMENTS} elements, not {n}"
        )


def bundled_fixture(name: str) -> EffectAlgebra:
    """One of the bundled counterexample tables, by its stable id.

    ``example-2.5`` and ``example-3.7`` share one table (a 6-element
    non-lattice algebra whose only sharp elements are the extremes);
    ``example-4.4`` is the 9-element algebra admitting no states.
    """
    if name not in FIXTURE_FILES:
        known = ", ".join(sorted(FIXTURE_FILES))
        raise KeyError(f"unknown fixture {name!r} (known: {known})")
    return build_effect_algebra(parse_eaf(fixture_text(FIXTURE_FILES[name])))


def fixture_text(filename: str) -> str:
    """Raw text of a bundled fixture file."""
    # imported here: importlib.resources pulls in pathlib, tempfile and
    # inspect, which no construction but this one needs
    from importlib.resources import files

    return (files("effalg") / "fixtures" / filename).read_text(encoding="utf-8")
