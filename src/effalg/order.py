"""Partial order, bounds, and lattice/compatibility classification.

The order is the one induced by the sum: ``x <= y`` exactly when some ``c``
satisfies ``x + c == y``.  Up-sets and down-sets are kept as bitmasks so
bound computations are subset scans.  The order structure, the
compatibility masks (:func:`compatibility`) and the classification are
computed once per algebra instance, kept in the instance's memo and
released with it; :class:`~effalg.core.EffectAlgebra` is immutable, which
makes that safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import EffectAlgebra, derived
from .errors import BoundsMissing


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


def _dominates(x: int, mask: int, down: tuple[int, ...], greatest: bool) -> bool:
    if greatest:
        return mask & ~down[x] == 0
    m = mask
    while m:
        y = (m & -m).bit_length() - 1
        m &= m - 1
        if not (down[y] >> x & 1):
            return False
    return True


def _scan_extreme(mask: int, down: tuple[int, ...], greatest: bool) -> Optional[int]:
    m = mask
    while m:
        x = (m & -m).bit_length() - 1
        m &= m - 1
        if _dominates(x, mask, down, greatest):
            return x
    return None


@derived
def derive_order(E: EffectAlgebra) -> OrderStructure:
    """Compute the induced order and bound tables for an algebra."""
    n = E.size
    up = [0] * n
    for x in range(n):
        row = E.table[x]
        mask = 0
        for c in range(n):
            z = row[c]
            if z is not None:
                mask |= 1 << z
        up[x] = mask
    down = [0] * n
    for x in range(n):
        ux = up[x]
        for y in range(n):
            if ux >> y & 1:
                down[y] |= 1 << x
    up_t = tuple(up)
    down_t = tuple(down)

    meet: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    join: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    lattice = True
    for x in range(n):
        for y in range(x, n):
            m = _scan_extreme(down_t[x] & down_t[y], down_t, True)
            j = _scan_extreme(up_t[x] & up_t[y], down_t, False)
            meet[x][y] = meet[y][x] = m
            join[x][y] = join[y][x] = j
            if m is None or j is None:
                lattice = False
    return OrderStructure(
        up_t,
        down_t,
        tuple(tuple(r) for r in meet),
        tuple(tuple(r) for r in join),
        lattice,
    )


@derived
def compatibility(E: EffectAlgebra) -> tuple[int, ...]:
    """``[x]`` has bit ``y`` set when x and y are compatible.

    A pair is compatible when their join equals x + (y minus their meet).
    A pair without a meet or a join has no bit set.
    """
    os = derive_order(E)
    masks = []
    for x in range(E.size):
        mask = 0
        for y in range(E.size):
            m, j = os.meet[x][y], os.join[x][y]
            if m is not None and j is not None and E.table[x][E.diff(y, m)] == j:
                mask |= 1 << y
        masks.append(mask)
    return tuple(masks)


def compatible(E: EffectAlgebra, x: int, y: int) -> bool:
    """Whether x and y commute: their join equals x + (y minus their meet).

    Needs both the meet and the join of the pair to exist; raises
    :class:`BoundsMissing` otherwise.  When the defining sum is undefined
    the pair is simply incompatible.
    """
    os = derive_order(E)
    if os.meet[x][y] is None or os.join[x][y] is None:
        raise BoundsMissing(
            f"compatibility of {x} and {y} needs their meet and join"
        )
    return bool(compatibility(E)[x] >> y & 1)


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
