"""Generators for standard finite effect algebras and bundled fixtures.

Every constructor returns a fully validated algebra: the tables go through
the same closure and axiom checks as parsed input, so a buggy generator
fails loudly rather than producing a quietly broken structure.  Results
have at most ``core._MAX_ELEMENTS`` (255) elements; a larger one raises
:class:`SizeLimit` before its table is built.
"""

from __future__ import annotations

from importlib.resources import files
from string import ascii_lowercase

from .core import (
    _MAX_ELEMENTS,
    _UNDEF,
    EffectAlgebra,
    build_effect_algebra,
    make_algebra,
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
    sums = {
        (k, l): k + l
        for k in range(1, n + 1)
        for l in range(k, n + 1)
        if k + l <= n
    }
    return make_algebra(names, 0, n, sums)


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
    sums = {
        (x, y): x | y
        for x in range(1, n)
        for y in range(x, n)
        if x & y == 0
    }
    return make_algebra(names, 0, n - 1, sums)


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
    for part in parts:
        if part.size < 3:
            raise DegenerateBlock(
                "every block needs an interior element (size >= 3)"
            )
    _check_size("horizontal sums", 2 + sum(part.size - 2 for part in parts))

    names = ["0"]
    maps: list[dict[int, int]] = []  # per part: part index -> glued index
    for p, part in enumerate(parts):
        letter = ascii_lowercase[p]
        mapping = {part.zero: 0}
        position = 0
        for x in range(part.size):
            if x in (part.zero, part.one):
                continue
            position += 1
            mapping[x] = len(names)
            names.append(letter if position == 1 else f"{position}{letter}")
        maps.append(mapping)
    one = len(names)
    names.append("1")
    for p, part in enumerate(parts):
        maps[p][part.one] = one

    sums: dict[tuple[int, int], int] = {}
    for p, part in enumerate(parts):
        mapping = maps[p]
        for x, y, z in part.canonical_sums():
            sums[(mapping[x], mapping[y])] = mapping[z]
    return make_algebra(names, 0, one, sums)


def direct_product(E1: EffectAlgebra, E2: EffectAlgebra) -> EffectAlgebra:
    """Componentwise product: a pair is summable iff both components are.

    The product may have at most 255 elements.
    """
    n1, n2 = E1.size, E2.size
    _check_size("products", n1 * n2)
    names = [
        f"{E1.names[x1]},{E2.names[x2]}"
        for x1 in range(n1)
        for x2 in range(n2)
    ]
    sums: dict[tuple[int, int], int] = {}
    for x1, row1 in enumerate(E1.rows):
        for x2, row2 in enumerate(E2.rows):
            x = x1 * n2 + x2
            for y1, s1 in enumerate(row1):
                if s1 == _UNDEF:
                    continue
                for y2, s2 in enumerate(row2):
                    y = y1 * n2 + y2
                    if y >= x and s2 != _UNDEF:
                        sums[(x, y)] = s1 * n2 + s2
    zero = E1.zero * n2 + E2.zero
    one = E1.one * n2 + E2.one
    return make_algebra(names, zero, one, sums)


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
        known = ", ".join(sorted(set(FIXTURE_FILES)))
        raise KeyError(f"unknown fixture {name!r}; known: {known}")
    return build_effect_algebra(parse_eaf(fixture_text(FIXTURE_FILES[name])))


def fixture_text(filename: str) -> str:
    """Raw text of a bundled fixture file."""
    return (files("effalg") / "fixtures" / filename).read_text(encoding="utf-8")
