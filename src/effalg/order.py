"""Partial order, bounds, and lattice/compatibility classification.

The order is the one induced by the sum: ``x <= y`` exactly when some ``c``
satisfies ``x + c == y``.  Up-sets and down-sets are kept as bitmasks,
and every meet and join is looked up by its down-set or up-set mask.  The
order structure, the compatibility masks (:func:`compatibility`) and the
classification are computed once per algebra instance, kept in the
instance's memo and released with it; :class:`~effalg.core.EffectAlgebra`
is immutable, which makes that safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import EffectAlgebra, _difference_table, derived


@dataclass(frozen=True)
class OrderStructure:
    """Derived order data: relation bitmasks plus meet/join tables.

    ``up[x]`` has bit ``y`` set when ``x <= y``; ``down[x]`` when
    ``y <= x``.  ``meet[x][y]`` / ``join[x][y]`` hold the bound's index or
    ``None`` when the pair has no greatest lower / least upper bound.
    """

    up: tuple[int, ...]
    down: tuple[int, ...]
    meet: tuple[tuple[Optional[int], ...], ...]
    join: tuple[tuple[Optional[int], ...], ...]
    is_lattice: bool

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)


@derived
def derive_order(E: EffectAlgebra) -> OrderStructure:
    """Compute the induced order and bound tables for an algebra.

    ``down[x] & down[y]`` is down-closed, so it has a greatest element g
    exactly when it equals ``down[g]``; antisymmetry makes that g the only
    element with this down-set.  The meet is therefore a lookup of the
    mask among the down-sets, and the join likewise among the up-sets.
    """
    n = E.size
    up = [0] * n
    down = [0] * n
    for x, row in enumerate(E.table):
        bit = 1 << x
        mask = 0
        for z in row:
            if z is not None:
                mask |= 1 << z
                down[z] |= bit
        up[x] = mask
    by_down = {mask: x for x, mask in enumerate(down)}
    by_up = {mask: x for x, mask in enumerate(up)}
    meet = tuple(tuple(by_down.get(dx & dy) for dy in down) for dx in down)
    join = tuple(tuple(by_up.get(ux & uy) for uy in up) for ux in up)
    lattice = not any(None in row for row in meet + join)
    return OrderStructure(tuple(up), tuple(down), meet, join, lattice)


@derived
def compatibility(E: EffectAlgebra) -> tuple[int, ...]:
    """``[x]`` has bit ``y`` set when x and y are compatible.

    A pair is compatible when their join equals x + (y minus their meet).
    A pair without a meet or a join has no bit set.
    """
    os = derive_order(E)
    # diff[m][y] is y minus m, defined because the meet m lies below y.
    diff = _difference_table(E)
    masks = []
    for row, meets, joins in zip(E.table, os.meet, os.join):
        mask = 0
        for y, (m, j) in enumerate(zip(meets, joins)):
            if m is not None and j is not None and row[diff[m][y]] == j:
                mask |= 1 << y
        masks.append(mask)
    return tuple(masks)


@dataclass(frozen=True)
class Classification:
    is_lattice: bool
    is_mv: bool
    is_orthomodular_image: bool


def sharp_mask(E: EffectAlgebra, os: OrderStructure) -> int:
    """Bitmask of elements whose only common lower bound with their
    orthosupplement is zero."""
    zero_bit = 1 << E.zero
    mask = 0
    for x in range(E.size):
        if os.down[x] & os.down[E.supplement[x]] == zero_bit:
            mask |= 1 << x
    return mask


@derived
def classify(E: EffectAlgebra) -> Classification:
    """Lattice / MV / orthomodular-image classification.

    MV means lattice-ordered with every pair compatible.  The orthomodular
    image test asks for a lattice in which every element is sharp.
    """
    os = derive_order(E)
    if not os.is_lattice:
        return Classification(False, False, False)
    full = (1 << E.size) - 1
    mv = all(mask == full for mask in compatibility(E))
    all_sharp = sharp_mask(E, os) == full
    return Classification(True, mv, all_sharp)
