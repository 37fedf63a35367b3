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
greedy decomposition: the parts at full index must sum to the kernel and
the others to a meager element, and both are checked.  In a lattice this
form is unique, which the law suite (T2.6, T3.4) checks.  Outside lattice
order that shape is not guaranteed to exist, so the operation refuses
such algebras instead of returning something unprincipled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .core import EffectAlgebra, iterated_sum, multiples
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
    the largest multiplicity that still fits below the residual.
    """
    profile = structure_profile(E)
    os = derive_order(E)
    ordered_atoms = sorted(profile.atoms)
    parts: list[AtomMultiple] = []
    r = x
    while r != E.zero:
        # A nonzero residual sits above an atom (finite carrier).
        atom = next(a for a in ordered_atoms if os.down[r] >> a & 1)
        # Multiples of an atom strictly increase, so those below r are a prefix.
        ms = multiples(E)[atom]
        k = 1
        while k < len(ms) and os.down[r] >> ms[k] & 1:
            k += 1
        parts.append(AtomMultiple(atom, k))
        # ms[k - 1] is below r, so the difference is defined.
        r = E.diff(r, ms[k - 1])
    return AtomicDecomposition(x, tuple(parts), os.is_lattice)


def _parts_sum(E: EffectAlgebra, parts: Iterable[AtomMultiple]) -> Optional[int]:
    """The iterated sum of the parts' multiples, None where undefined.

    Every multiplicity must lie in ``1..ord`` of its atom.
    """
    ms = multiples(E)
    return iterated_sum(E, (ms[p.atom][p.multiplicity - 1] for p in parts))


def _validate(E: EffectAlgebra, d: AtomicDecomposition) -> None:
    profile = structure_profile(E)
    seen: set[int] = set()
    for part in d.parts:
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
    acc = _parts_sum(E, d.parts)
    if acc is None:
        raise InvalidDecomposition("parts are not summable in the given order")
    if acc != d.element:
        raise InvalidDecomposition(
            f"parts sum to {acc}, not to the decomposed element {d.element}"
        )


def split_atomic_decomposition(
    E: EffectAlgebra, d: AtomicDecomposition
) -> SplitDecomposition:
    """Split parts into those at full isotropic index and the rest.

    Validates the decomposition first.  In lattice-ordered algebras the
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
    One greedy decomposition of x is validated and split: its full
    multiples must sum to the sharp kernel of x and its proper ones to a
    meager element, which become the meager parts.  A failed check
    raises ``RuntimeError``.
    """
    os = derive_order(E)
    if not os.is_lattice:
        raise PreconditionFailed(
            "basic decomposition needs a lattice-ordered algebra"
        )
    profile = structure_profile(E)
    kernel = profile.sharp_kernel[x]
    if kernel is None:
        raise PreconditionFailed(
            f"element {x} has no greatest sharp element below it"
        )
    split = split_atomic_decomposition(E, atomic_decomposition(E, x))
    if _parts_sum(E, split.full) != kernel:
        raise RuntimeError(f"full parts of {x} do not sum to its sharp kernel")
    remainder = _parts_sum(E, split.partial)
    if remainder not in profile.meager:
        raise RuntimeError(f"proper parts of {x} sum to non-meager {remainder}")
    return BasicDecomposition(kernel, split.partial)
