"""Sharpness, atoms, isotropic indices, and domination properties.

An element is *sharp* when the only common lower bound it shares with its
orthosupplement is zero (the usual meet condition, phrased so it also works
when the meet does not exist), and *meager* when its only sharp lower bound
is zero.  The isotropic index of a nonzero element is the largest number of
times it can be summed with itself; it is read from the per-instance table
:func:`~effalg.core.multiples`.  The sharp elements carry an induced
algebra of their own, extracted here with an index map back to the parent.
The profile, which also tables every element's sharp cover and kernel,
each one dict lookup of the sharp part of its up- or down-set, and the
sharp subalgebra are computed once per algebra instance, kept in the
instance's memo and released with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .core import (
    _ALL_UNDEF,
    _EVERY_BYTE,
    _UNDEF,
    EffectAlgebra,
    Witnesses,
    _algebra,
    _walk,
    derived,
    multiples,
)
from .order import derive_order


@dataclass(frozen=True)
class StructureProfile:
    """Atoms, sharp/meager split, indices, the domination flags, and each
    element's sharp cover (least sharp element above it) and sharp kernel
    (greatest sharp element below it), ``None`` where none exists.

    ``sharply_dominating`` holds when every element has a sharp cover;
    ``s_dominating`` asks further that every element have a meet with
    every sharp element.  ``isotropic[x]`` is the largest k with the
    k-fold sum of x defined.

    ``atomic`` and ``archimedean`` always hold, by finiteness of the
    carrier.  A nonzero element's down-set is finite and holds an element
    other than zero, so a minimal such element is an atom below it.  The
    indices are finite, so no index fails to terminate.
    """

    atoms: frozenset[int]
    sharp: frozenset[int]
    meager: frozenset[int]
    isotropic: tuple[int, ...]
    atomic: bool
    archimedean: bool
    sharply_dominating: bool
    s_dominating: bool
    sharp_cover: tuple[Optional[int], ...]
    sharp_kernel: tuple[Optional[int], ...]


@derived
def structure_profile(E: EffectAlgebra) -> StructureProfile:
    os = derive_order(E)
    n = E.size
    zero_bit = 1 << E.zero

    # sorted: where hashes collide, a set iterates in insertion order
    atoms = frozenset(sorted(_walk(E).atoms))
    sharp = frozenset(
        x for x, s in enumerate(E.supplement) if os.down[x] & os.down[s] == zero_bit
    )
    smask = sum(1 << x for x in sharp)
    meager = frozenset(x for x in range(n) if os.down[x] & smask == zero_bit)
    iso = tuple(len(ms) for ms in multiples(E))

    # The least sharp element above x is the sharp g whose sharp up-set
    # is x's, and the greatest below x dually; on an antisymmetric order
    # no two sharp elements share one, so each is one lookup.
    least = {os.up[g] & smask: g for g in sharp}
    greatest = {os.down[g] & smask: g for g in sharp}
    cover = tuple([least.get(u & smask) for u in os.up])
    kernel = tuple([greatest.get(d & smask) for d in os.down])
    dominating = None not in cover
    # In a lattice every meet exists, so only other orders are scanned;
    # meets are symmetric, so row p holds p's meet with every element.
    s_dom = dominating and (
        os.is_lattice or all(_UNDEF not in os.meet_rows[p] for p in sharp)
    )
    # atomic and archimedean hold by finiteness (see StructureProfile)
    return StructureProfile(
        atoms, sharp, meager, iso, True, True, dominating, s_dom, cover, kernel
    )


@dataclass(frozen=True)
class SharpSubalgebra:
    """The algebra of sharp elements with index maps to and from the parent.

    ``to_parent[i]`` is the parent index of sharp element ``i``;
    ``from_parent[x]`` is the sharp index of parent element ``x`` or
    ``None`` when ``x`` is not sharp.
    """

    algebra: EffectAlgebra
    to_parent: tuple[int, ...]
    from_parent: tuple[Optional[int], ...]


@derived
def extract_sharp(E: EffectAlgebra) -> SharpSubalgebra:
    """Build the induced algebra on the sharp elements.

    A sum is kept exactly when both operands and the result are sharp:
    each sharp element's row is its parent row picked at the sharp
    columns and translated to sharp indices, a result that is not sharp
    to undefined, in C.  The rows are checked from scratch, so a sharp set
    that failed to be closed under the operations would be caught loudly.
    """
    sharp = sorted(structure_profile(E).sharp)
    pick = itemgetter(*sharp)  # zero and one are sharp, so it picks a tuple
    # to_sharp[x] is parent element x's sharp index, _UNDEF if x is not sharp
    to_sharp = bytes.maketrans(
        _EVERY_BYTE + bytes(sharp), _ALL_UNDEF + _EVERY_BYTE[: len(sharp)]
    )
    rows = [bytes(pick(E.rows[x])).translate(to_sharp) for x in sharp]
    zero, one = to_sharp[E.zero], to_sharp[E.one]
    algebra = _algebra(pick(E.names), zero, one, rows, Witnesses())
    from_parent = tuple(None if i == _UNDEF else i for i in to_sharp[: E.size])
    return SharpSubalgebra(algebra, tuple(sharp), from_parent)
