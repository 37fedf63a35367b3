"""Atom-multiple decompositions and the sharp/meager basic decomposition.

Every nonzero element of a finite algebra sits above an atom, so the
greedy loop always makes progress: take the least-indexed atom below the
residual, absorb it with maximal multiplicity, repeat.  Maximality means
the same atom can never be picked twice (if the atom still fit below the
residual, the multiplicity was not maximal), so parts carry pairwise
distinct atoms in ascending index order.

The *basic decomposition* of an element in a lattice-ordered algebra peels
off the greatest sharp element below it and decomposes the remainder into
atom multiples whose multiplicities all stay strictly below the atoms'
isotropic indices; the remainder is then meager.  Outside lattice order
that shape is not guaranteed to exist, so the operation refuses such
algebras instead of returning something unprincipled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EffectAlgebra, iterated_sum, multiple, multiples
from .errors import InvalidDecomposition, NotDecomposable, PreconditionFailed
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
        atom = next((a for a in ordered_atoms if os.down[r] >> a & 1), None)
        if atom is None:
            raise NotDecomposable(
                f"residual {r} has no atom below it"
            )
        # Multiples of an atom strictly increase, so those below r are a prefix.
        ms = multiples(E)[atom]
        k = 1
        while k < len(ms) and os.down[r] >> ms[k] & 1:
            k += 1
        parts.append(AtomMultiple(atom, k))
        nr = E.diff(r, ms[k - 1])
        if nr is None:
            raise NotDecomposable(
                f"residual {r} does not absorb {k} copies of atom {atom}"
            )
        r = nr
    return AtomicDecomposition(x, tuple(parts), os.is_lattice)


def _validate(E: EffectAlgebra, d: AtomicDecomposition) -> None:
    profile = structure_profile(E)
    seen: set[int] = set()
    terms: list[int] = []
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
        m = multiple(E, part.atom, part.multiplicity)
        if m is None:
            raise InvalidDecomposition(
                f"{part.multiplicity}-fold sum of atom {part.atom} is undefined"
            )
        terms.append(m)
    acc = iterated_sum(E, terms)
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


def _reassemble(E: EffectAlgebra, parts: tuple[AtomMultiple, ...]) -> int:
    elements = [multiple(E, p.atom, p.multiplicity) for p in parts]
    if None in elements:
        raise RuntimeError("validated part has an undefined multiple")
    total = iterated_sum(E, elements)
    if total is None:
        raise RuntimeError("validated parts stopped being summable")
    return total


def basic_decomposition(E: EffectAlgebra, x: int) -> BasicDecomposition:
    """Write x as (greatest sharp element below x) + (meager remainder).

    Only available in lattice-ordered algebras; raises
    :class:`PreconditionFailed` otherwise.  The remainder is decomposed
    greedily and every multiplicity is checked to sit strictly below the
    atom's isotropic index, which makes the remainder meager.
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
    remainder = E.diff(x, kernel)
    if remainder is None:
        raise RuntimeError("sharp kernel is not below its element")
    meager = atomic_decomposition(E, remainder)
    for part in meager.parts:
        if part.multiplicity == profile.isotropic[part.atom]:
            raise RuntimeError(
                f"remainder of {x} contains atom {part.atom} at full index; "
                "the kernel was not greatest"
            )
    total = _reassemble(E, meager.parts)
    if total != remainder:
        raise RuntimeError("meager parts do not reassemble the remainder")
    if total not in profile.meager:
        raise RuntimeError(f"remainder {total} of {x} is not meager")
    if E.table[kernel][total] != x:
        raise RuntimeError("kernel plus remainder does not reassemble x")

    # Independent cross-check: splitting a greedy decomposition of x itself
    # must yield the same meager parts and a full block summing to the kernel.
    whole = split_atomic_decomposition(E, atomic_decomposition(E, x))
    if whole.partial != meager.parts:
        raise RuntimeError(
            "splitting a direct decomposition disagrees on the meager parts"
        )
    if _reassemble(E, whole.full) != kernel:
        raise RuntimeError(
            "full parts of a direct decomposition do not sum to the kernel"
        )
    return BasicDecomposition(kernel, meager.parts)
