"""Partial order, bounds, and lattice/compatibility classification.

The order is the one induced by the sum: ``x <= y`` exactly when some ``c``
satisfies ``x + c == y``.  Up-sets and down-sets are kept as bitmasks,
read from the byte rows of the sums in C, and every meet is looked up by
its down-set mask, on and below the diagonal only, since meets are
symmetric.  Joins need no lookup: the supplement reverses the order, so
x v y = (x' ^ y')', and a join is missing exactly when that meet is; the
algebra is therefore a lattice when no meet is missing.
:class:`OrderStructure` keeps the meets and joins as byte rows,
``_UNDEF`` where a bound is missing, and every analysis reads those; its
``meet`` and ``join`` tuple tables are views, decoded on first read.

A lattice effect algebra is an MV-effect algebra exactly when x ^ y = 0
implies that x + y is defined (Bennett and Foulis 1995, "Phi-symmetric
effect algebras"), so :func:`classify` reads the MV flag from the meet
and sum rows in C and builds no compatibility masks; tier-1 checks the
flag against the masks, computed pair by pair.  It reads the
orthomodular-image flag from the sharp set, which
:func:`effalg.structure.structure_profile` computes once per algebra.
:func:`compatibility` builds its masks only when they are read, and on
an MV algebra, where every mask is full, without a loop.  The order
structure, the masks and the classification are computed once per
algebra instance, kept in the instance's memo and released with it;
:class:`~effalg.core.EffectAlgebra` is immutable, which makes that safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import and_
from typing import Optional

from .core import _ALL_UNDEF, _UNDEF, EffectAlgebra, _difference_table, _tuples, derived


@dataclass(frozen=True)
class OrderStructure:
    """Derived order data: relation bitmasks plus meet/join rows.

    ``up[x]`` has bit ``y`` set when ``x <= y``; ``down[x]`` when
    ``y <= x``.  ``meet_rows[x][y]`` / ``join_rows[x][y]`` hold the
    index of the pair's greatest lower / least upper bound, or
    ``_UNDEF`` when it has none; both are symmetric.  ``meet`` and
    ``join`` are the same tables as tuples with ``None`` for a missing
    bound, decoded on first read; no analysis reads them.
    """

    up: tuple[int, ...]
    down: tuple[int, ...]
    meet_rows: tuple[bytes, ...]
    join_rows: tuple[bytes, ...]
    is_lattice: bool

    @cached_property
    def meet(self) -> tuple[tuple[Optional[int], ...], ...]:
        return _tuples(self.meet_rows)

    @cached_property
    def join(self) -> tuple[tuple[Optional[int], ...], ...]:
        return _tuples(self.join_rows)

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)


@derived
def derive_order(E: EffectAlgebra) -> OrderStructure:
    """The induced order: the up- and down-set masks, and the meets and
    joins as byte rows.

    The up- and down-sets are read in C from the byte rows of the sums.
    Row x holds every element above x, so ``bytes.maketrans`` of it marks
    those elements with 255; read as ``0``/``1`` digits, reversed, the
    marks are ``up[x]`` in base 2, and the marks transposed by slices are
    the down-sets.

    ``down[x] & down[y]`` is down-closed, so it has a greatest element g
    exactly when it equals ``down[g]``; antisymmetry makes that g the only
    element with this down-set.  A meet is therefore a lookup of the mask
    among the down-sets.  Meets are symmetric, so they are looked up only
    on and below the diagonal, and the rows are completed from one byte
    transpose.

    The supplement reverses the order (x <= y iff y' <= x'; Foulis and
    Bennett 1994), so x v y = (x' ^ y')': the join table is the meet table
    with rows and columns permuted by the supplement and its entries
    translated through it, and a join is missing exactly when that meet
    is.  A finite bounded poset is a lattice when every meet exists, so
    ``is_lattice`` reads the meets.
    """
    n = E.size
    ones = b"\xff" * n
    # 255 -> "1", every other byte -> "0"
    digits = b"0" * 255 + b"1"
    marks = b"".join([bytes.maketrans(row, ones)[:n] for row in E.rows])
    marks = marks.translate(digits)
    up = tuple([int(marks[x * n:(x + 1) * n][::-1], 2) for x in range(n)])
    down = tuple([int(marks[y::n][::-1], 2) for y in range(n)])

    get = dict(zip(down, range(n))).get
    lower = [
        bytes(map(get, map(and_, repeat(dx), down[: x + 1]), repeat(_UNDEF)))
        for x, dx in enumerate(down)
    ]
    # Row x is its meets on and below the diagonal, then column x of the
    # lower triangle below it: meet[y][x] for y > x.
    flat = b"".join([row + bytes(n - len(row)) for row in lower])
    meet = tuple([row + flat[x * (n + 1) + n :: n] for x, row in enumerate(lower)])

    s = E.supplement
    flip = bytes(s) + _ALL_UNDEF[n:]
    # permuted[y'::n] holds x' ^ y' at index x, so translated through the
    # supplement it is row y of the joins.
    permuted = b"".join([meet[z] for z in s])
    join = tuple([permuted[z::n].translate(flip) for z in s])
    is_lattice = all(_UNDEF not in row for row in meet)
    return OrderStructure(up, down, meet, join, is_lattice)


@derived
def compatibility(E: EffectAlgebra) -> tuple[int, ...]:
    """``[x]`` has bit ``y`` set when x and y are compatible.

    A pair is compatible when their join equals x + (y minus their meet).
    A pair without a meet or a join has no bit set.  An MV-effect algebra
    is a lattice with every pair compatible, so when :func:`classify`
    finds one, every mask is full and none is built pair by pair.
    """
    n = E.size
    if classify(E).is_mv:
        return ((1 << n) - 1,) * n
    os = derive_order(E)
    # diff[m][y] is y minus m, defined because the meet m lies below y.
    diff = _difference_table(E)
    masks = []
    for row, meets, joins in zip(E.rows, os.meet_rows, os.join_rows):
        mask = 0
        for y, (m, j) in enumerate(zip(meets, joins)):
            if m != _UNDEF and j != _UNDEF and row[diff[m][y]] == j:
                mask |= 1 << y
        masks.append(mask)
    return tuple(masks)


@dataclass(frozen=True)
class Classification:
    is_lattice: bool
    is_mv: bool
    is_orthomodular_image: bool


@derived
def classify(E: EffectAlgebra) -> Classification:
    """Lattice / MV / orthomodular-image classification.

    MV means lattice-ordered with every pair compatible.  On a lattice
    effect algebra that holds exactly when x ^ y = 0 implies that x + y
    is defined (Bennett and Foulis 1995, "Phi-symmetric effect
    algebras"); tier-1 checks this flag against the :func:`compatibility`
    masks, computed pair by pair.  The joined meet rows, translated to
    ``1`` where the meet is zero, and the joined sum rows, translated to
    ``1`` where the sum is undefined, are read as base-2 ints with pair
    (x, y) at the same digit, so the algebra is MV when they share no
    bit.  The orthomodular image test asks for a lattice in which every
    element is sharp, read from :func:`~effalg.structure.structure_profile`
    (imported on use, as that module imports this one).
    """
    from .structure import structure_profile

    os = derive_order(E)
    if not os.is_lattice:
        return Classification(False, False, False)
    is_zero = bytearray(b"0" * 256)
    is_zero[E.zero] = ord("1")
    disjoint = int(b"".join(os.meet_rows).translate(is_zero), 2)
    undefined = int(b"".join(E.rows).translate(b"0" * _UNDEF + b"1"), 2)
    all_sharp = len(structure_profile(E).sharp) == E.size
    return Classification(True, not disjoint & undefined, all_sharp)
