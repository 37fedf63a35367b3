"""Atom-multiple decompositions and the sharp/meager basic decomposition.

Every nonzero element of a finite algebra sits above an atom, so the
greedy loop always makes progress: take the least-indexed atom below the
residual, absorb it with maximal multiplicity, repeat.  Maximality means
the same atom can never be picked twice (if the atom still fit below the
residual, the multiplicity was not maximal), so parts carry pairwise
distinct atoms in ascending index order.

The *basic decomposition* of an element in a lattice-ordered algebra is
its sharp kernel (the greatest sharp element below it) plus atom
multiples whose multiplicities all stay strictly below the atoms'
isotropic indices, which sum to a meager element.  It is read off one
greedy decomposition: the parts must sum to the element, the parts at
full index to the kernel and the others to a meager element, and all
three are checked.  In a lattice this form is unique, which the law
suite (T2.6, T3.4) checks.  Outside lattice order that shape is not
guaranteed to exist, so the operation refuses such algebras instead of
returning something unprincipled.

Both forms are read from one table per algebra, built on first use in a
single pass by walk order (:func:`~effalg.core._walk`): the greedy parts
of x are its first part (a, k) followed by those of x minus k·a, which
is tabled already, and the three sums fold along the same recurrence.  The
table stores the sums; x's checks run on them when x is asked for, so a
broken element fails alone and nothing is stored for a failure.
:func:`_validate` and :func:`split_atomic_decomposition` check
decompositions that a caller supplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    _BYTE_VALUE,
    _UNDEF,
    EffectAlgebra,
    _check_index,
    _multiple_masks,
    _padded,
    _walk,
    derived,
    multiples,
)
from .errors import InvalidDecomposition, PreconditionFailed
from .order import derive_order
from .structure import structure_profile


@dataclass(frozen=True)
class AtomMultiple:
    atom: int
    multiplicity: int


@dataclass(frozen=True)
class AtomicDecomposition:
    """An element written as an orthogonal sum of atom multiples.

    ``unique_guaranteed`` is set for lattice-ordered algebras, where any
    two such decompositions agree on all parts with multiplicity below the
    atom's isotropic index.  Elsewhere the parts are still a correct sum
    but other sums may exist.
    """

    element: int
    parts: tuple[AtomMultiple, ...]
    unique_guaranteed: bool


@dataclass(frozen=True)
class SplitDecomposition:
    full: tuple[AtomMultiple, ...]
    partial: tuple[AtomMultiple, ...]


@dataclass(frozen=True)
class BasicDecomposition:
    """Sharp kernel plus meager remainder, as atom multiples."""

    sharp_part: int
    meager_parts: tuple[AtomMultiple, ...]


def atomic_decomposition(E: EffectAlgebra, x: int) -> AtomicDecomposition:
    """Greedy decomposition of x into multiples of distinct atoms.

    Deterministic: atoms are consumed in ascending index order, each with
    the largest multiplicity that still fits below the residual.  The
    parts are read from the algebra's decomposition table.
    """
    _check_index(E, x)
    return AtomicDecomposition(x, _table(E).parts[x], derive_order(E).is_lattice)


def _validate(E: EffectAlgebra, d: AtomicDecomposition) -> None:
    """Check the element of ``d`` (:func:`_check_index`), that its parts
    are a tuple or list of :class:`AtomMultiple`, then the parts one at a
    time, summing them as they go, then check that their sum is defined
    and is the element."""
    _check_index(E, d.element)
    if not isinstance(d.parts, (tuple, list)):
        raise InvalidDecomposition(f"parts {d.parts!r} are not a tuple or list")
    profile = structure_profile(E)
    ms = multiples(E)
    seen: set[int] = set()
    acc = E.zero
    for part in d.parts:
        if type(part) is not AtomMultiple:
            raise InvalidDecomposition(f"part {part!r} is not an AtomMultiple")
        if type(part.atom) is not int or type(part.multiplicity) is not int:
            raise InvalidDecomposition(f"{part!r} does not hold two ints")
        if part.atom not in profile.atoms:
            raise InvalidDecomposition(f"element {part.atom} is not an atom")
        if part.atom in seen:
            raise InvalidDecomposition(f"atom {part.atom} appears twice")
        seen.add(part.atom)
        ord_a = profile.isotropic[part.atom]
        if not 1 <= part.multiplicity <= ord_a:
            raise InvalidDecomposition(
                f"multiplicity {part.multiplicity} of atom {part.atom} "
                f"is outside 1..{ord_a}"
            )
        if acc != _UNDEF:
            acc = E.rows[acc][ms[part.atom][part.multiplicity - 1]]
    if acc == _UNDEF:
        raise InvalidDecomposition("parts are not summable in the given order")
    if acc != d.element:
        raise InvalidDecomposition(
            f"parts sum to {acc}, not to the decomposed element {d.element}"
        )


def split_atomic_decomposition(
    E: EffectAlgebra, d: AtomicDecomposition
) -> SplitDecomposition:
    """Split parts into those at full isotropic index and the rest.

    Validates the decomposition first: :class:`IndexOutOfRange` when its
    element is not an index, :class:`InvalidDecomposition` when a part is
    not two ints or the parts are wrong.  In lattice-ordered algebras the
    full parts sum to the greatest sharp element below the decomposed
    element and the partial parts sum to a meager one; the law suite
    asserts that and this function does not depend on it.
    """
    _validate(E, d)
    profile = structure_profile(E)
    full = tuple(
        p for p in d.parts if p.multiplicity == profile.isotropic[p.atom]
    )
    partial = tuple(
        p for p in d.parts if p.multiplicity != profile.isotropic[p.atom]
    )
    return SplitDecomposition(full, partial)


def basic_decomposition(E: EffectAlgebra, x: int) -> BasicDecomposition:
    """Write x as (greatest sharp element below x) + (meager remainder).

    Only available in lattice-ordered algebras; raises
    :class:`PreconditionFailed` otherwise, or when x has no sharp kernel.
    The greedy parts of x are split: its full multiples must sum to the
    sharp kernel of x and its proper ones to a meager element, which
    become the meager parts.  The sums are read from the algebra's
    decomposition table and checked here, for x alone, on each call:
    :class:`InvalidDecomposition` when the parts do not sum to x, and
    ``RuntimeError`` when a block misses its kernel or the meager set.
    """
    _check_index(E, x)
    if not derive_order(E).is_lattice:
        raise PreconditionFailed(
            "basic decomposition needs a lattice-ordered algebra"
        )
    profile = structure_profile(E)
    kernel = profile.sharp_kernel[x]
    if kernel is None:
        raise PreconditionFailed(
            f"element {x} has no greatest sharp element below it"
        )
    table = _table(E)
    total, proper = table.total[x], table.proper[x]
    if total == _UNDEF:
        raise InvalidDecomposition("parts are not summable in the given order")
    if total != x:
        raise InvalidDecomposition(
            f"parts sum to {total}, not to the decomposed element {x}"
        )
    if table.full[x] != kernel:
        raise RuntimeError(f"full parts of {x} do not sum to its sharp kernel")
    if proper not in profile.meager:
        raise RuntimeError(
            f"proper parts of {x} sum to non-meager {_BYTE_VALUE[proper]}"
        )
    return BasicDecomposition(kernel, table.proper_parts[x])


class _Table(NamedTuple):
    """Each element's greedy parts; the sums of all of them, of its full
    ones and of its proper ones, ``_UNDEF`` where undefined; and its
    proper parts."""

    parts: list[tuple[AtomMultiple, ...]]
    total: list[int]
    full: list[int]
    proper: list[int]
    proper_parts: list[tuple[AtomMultiple, ...]]


def _greedy(E: EffectAlgebra) -> list[tuple[int, int, int]]:
    """``[x]`` is (a, k, r): the least-indexed atom a below x, the largest
    k with k·a below x, and the residual r = x minus k·a, for x nonzero.

    Multiples of an atom strictly increase, so those below x are a prefix
    of them and k counts them in x's down-set; r is where x stands in the
    row of sums of k·a, found in C.
    """
    ms = multiples(E)
    multiple_mask = _multiple_masks(E)
    atom_mask = sum(1 << a for a in multiple_mask)
    out = [(E.zero, 0, E.zero)] * E.size
    for x, dx in enumerate(derive_order(E).down):
        if x != E.zero:
            below = dx & atom_mask
            a = (below & -below).bit_length() - 1
            k = (dx & multiple_mask[a]).bit_count()
            out[x] = (a, k, E.rows[ms[a][k - 1]].index(x))
    return out


@derived
def _table(E: EffectAlgebra) -> _Table:
    """The decomposition table, built in one pass over the elements by
    walk order: the greedy parts of x are (a, k) followed by those of its
    residual x minus k·a, which lies strictly below x and so comes before
    it in the walk.

    The sums of all parts, of the full ones and of the proper ones fold
    along the same recurrence, as k·a plus the residual's sums; by
    associativity (Eii) each equals the sum of its parts in order, and is
    defined exactly when that is.  No sum is checked here:
    :func:`basic_decomposition` checks those of the element it is asked
    for.
    """
    ms = multiples(E)
    iso = structure_profile(E).isotropic
    n = E.size
    # Row r padded to 256 bytes, so that r + _UNDEF reads as _UNDEF.
    plus = _padded(E.rows)
    parts: list[tuple[AtomMultiple, ...]] = [()] * n
    proper_parts = parts.copy()
    total, full, proper = [E.zero] * n, [E.zero] * n, [E.zero] * n
    made: dict[tuple[int, int], AtomMultiple] = {}
    steps = _greedy(E)
    for x in _walk(E).order[1:]:  # zero first
        a, k, r = steps[x]
        head = made.get((a, k))
        if head is None:
            head = made[a, k] = AtomMultiple(a, k)
        parts[x] = (head,) + parts[r]
        m = plus[ms[a][k - 1]]
        total[x] = m[total[r]]
        if k == iso[a]:
            full[x], proper[x] = m[full[r]], proper[r]
            proper_parts[x] = proper_parts[r]
        else:
            full[x], proper[x] = full[r], m[proper[r]]
            proper_parts[x] = (head,) + proper_parts[r]
    return _Table(parts, total, full, proper, proper_parts)
