"""Finite effect algebras as validated partial-sum tables.

Elements are dense integer indices ``0..n-1``; the partial binary sum is
stored as the byte rows that the axiom check reads, row ``r`` holding
``r + z`` at index ``z`` and byte 255 (``_UNDEF``) where the sum is
undefined.  Every analysis reads those rows.  Results shown to a caller
mark an undefined value with ``None``, never with a sentinel element: the
tuple table ``EffectAlgebra.table`` is a view of the rows, decoded on
first read.

One check of the four defining axioms (Foulis & Bennett 1994) reads
byte rows, on every pair and, for associativity, on every triple:

* Ei   commutativity: a+b defined implies b+a defined and equal,
* Eii  associativity: either grouping of a+b+c defined implies both are
  defined and equal,
* Eiii every element has exactly one orthosupplement summing to the unit,
* Eiv  the unit admits no nonzero summand.

It has two inputs.  Declared sums, for :func:`verify_axioms`,
:func:`make_algebra` and :func:`build_effect_algebra`, are first closed
into rows under commutativity and the implied ``zero + x = x`` rows, in
one pass in the order declared (:func:`_close_sums`), which names the
first unknown name or bad index and reports each pair declared with two
results as a violation.  The constructions and the sharp subalgebra
build their rows directly, and the check (:func:`_check_rows`) also
tests those for symmetry and the identity zero row.  Tables have at
most ``_MAX_ELEMENTS`` (255) elements, so that every row is a byte
string with byte 255 for "undefined".  Eii is counted by one walk that
composes rows in C, one element's triples at a time, and skips each
element that Light's test shows associative from elements already
compared (:func:`_eii`): on an effect algebra, only the atoms.

Only tables with an empty violation report become :class:`EffectAlgebra`
values, so every downstream module may rely on the axioms without
re-checking them.

Data derived from a table is built once per algebra instance through
:func:`derived` and kept on the instance.  This module keeps five such
tables: the axiom check's walk (:func:`_walk`), differences as byte rows
(behind :meth:`EffectAlgebra.diff`), each the inverse of a sum row,
built by one translate table in C, every element's multiples
(:func:`multiples`, read by :func:`multiple`) and each atom's as one
mask (:func:`_multiple_masks`), and the columns of the canonical sums
(behind :meth:`EffectAlgebra.canonical_sums`).  :func:`_tuples` is the
one decoder from byte rows to tuples, and only the tuple views call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps
from itertools import islice
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    TypeVar,
    TYPE_CHECKING,
)

from .errors import (
    AxiomViolation,
    DuplicateName,
    EffectAlgebraError,
    IndexOutOfRange,
    SizeLimit,
    UnknownName,
)

if TYPE_CHECKING:  # pragma: no cover
    from .eaf import EafDocument

AXIOM_COMMUTATIVITY = "Ei"
AXIOM_ASSOCIATIVITY = "Eii"
AXIOM_SUPPLEMENT = "Eiii"
AXIOM_ZERO_ONE = "Eiv"
AXIOM_CLOSURE = "closure"

# Violations kept per axiom label, and failure witnesses kept per law.
_WITNESS_CAP = 6

# The byte marking an undefined sum in a byte row.
_UNDEF = 255
# The most elements an algebra may have, read by every entry point: byte
# rows name elements 0..254 and keep 255 for "undefined".
_MAX_ELEMENTS = _UNDEF
# A byte row's entry as an element index, ``None`` for ``_UNDEF``.
_BYTE_VALUE: tuple[Optional[int], ...] = (*range(_UNDEF), None)
# Every byte, in order: the identity translate table.
_EVERY_BYTE = bytes(range(256))
# 256 undefined entries, sliced to pad rows and translate tables.
_ALL_UNDEF = bytes((_UNDEF,)) * 256


def _padded(rows: Sequence[bytes]) -> list[bytes]:
    """``rows`` as ``bytes.translate`` tables: each padded with ``_UNDEF``
    to 256 bytes, then all-``_UNDEF`` rows up to 256, so that an
    undefined index reads as a row with nothing defined."""
    pad = _ALL_UNDEF[len(rows) :]
    return [row + pad for row in rows] + [_ALL_UNDEF] * (256 - len(rows))


@dataclass(frozen=True)
class Violation:
    """One failure: its label, witness elements and detail.  The label is
    an axiom (``Ei`` to ``Eiv``, ``closure``), a law id, or a state
    condition (``missing``, ``zero``, ``one``, ``range``, ``additivity``)."""

    axiom: str
    witnesses: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    """``violations`` keeps the first ``_WITNESS_CAP`` violations of each
    axiom label, in the order found; ``totals`` counts every violation
    per label (a label with none is absent)."""

    violations: tuple[Violation, ...]
    totals: Mapping[str, int] = field(hash=False)  # a dict is unhashable

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_axiom(self, axiom: str) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.axiom == axiom)


class Witnesses:
    """Counts every failure per label, or takes a total counted elsewhere,
    and keeps the first ``_WITNESS_CAP`` of each label, in the order
    found.  Axiom reports, state reports and law results all collect
    through this class."""

    def __init__(self) -> None:
        self.kept: list[Violation] = []
        self.totals: dict[str, int] = {}

    def add(self, label: str, witnesses: tuple[int, ...], detail: str) -> None:
        total = self.totals[label] = self.totals.get(label, 0) + 1
        if total <= _WITNESS_CAP:
            self.kept.append(Violation(label, witnesses, detail))

    def counted(
        self, label: str, total: int, failures: Iterable[tuple[tuple[int, ...], str]]
    ) -> None:
        """Set ``label``'s nonzero ``total``, counted elsewhere, and keep the
        first ``_WITNESS_CAP`` (witnesses, detail) pairs of ``failures``,
        read no further."""
        self.totals[label] = total
        self.kept += [Violation(label, *f) for f in islice(failures, _WITNESS_CAP)]


@dataclass
class SumTable:
    """A partial sum table prior to validation.

    ``sums`` maps index pairs to result indices.  Entries may be stored in
    either orientation, or in both; the rows ``(zero, x) -> x`` are
    implied and never required in the input.  :func:`verify_axioms`
    reports a pair given two results as an ``Ei`` violation and an entry
    contradicting a zero row as a ``closure`` violation.
    """

    size: int
    zero: int
    one: int
    sums: dict[tuple[int, int], int]


def verify_axioms(table: SumTable) -> AxiomReport:
    """Check the effect-algebra axioms on a sum table.

    The table may be unclosed; lookups treat ``(x, y)`` and ``(y, x)`` as
    one pair and take the implied zero rows as present.  One pass closes
    the entries in the order given (:func:`_close_sums`): a pair
    declared with two results fails Ei and an entry contradicting a zero
    row fails ``closure``, each such pair counted once, against the
    first result given.  Eiii and Eiv are checked on every pair, and Eii
    on every triple (x, y, z), compared or implied by Light's test
    (:func:`_eii`), so the report's ``totals`` are exact.  Only the
    first ``_WITNESS_CAP`` violations of each axiom are kept, in (x, y, z)
    order, so memory stays bounded however broken the table is.
    An empty report means the closed table is an effect algebra.  Raises
    :class:`SizeLimit` when ``size`` exceeds ``_MAX_ELEMENTS`` and
    :class:`IndexOutOfRange` when ``size`` is not an int, an entry,
    ``zero`` or ``one`` is not an element index, or a key is not a pair.
    """
    rows, found = _declared_rows(table.size, table.zero, table.one, table.sums)
    return _check_rows(rows, table.zero, table.one, found)[0]


def _declared_rows(
    n: int, zero: int, one: int, sums: Mapping[tuple[int, int], int]
) -> tuple[list[bytes], Witnesses]:
    """A raw table's sums closed by :func:`_close_sums`, each index
    standing for itself.  Raises :class:`IndexOutOfRange` first unless
    ``n``, ``zero``, ``one`` and every entry are exactly ints, so not
    bools, as :func:`_check_index` reads them, and every key is a pair."""
    if type(n) is not int:
        raise IndexOutOfRange(f"size {n!r} is not an element count")
    if not (type(zero) is int and type(one) is int):
        raise IndexOutOfRange(f"zero {zero!r} or one {one!r} is not an element index")
    declared = sums.items()
    for key, z in declared:
        if not (
            isinstance(key, tuple)
            and len(key) == 2
            and type(key[0]) is type(key[1]) is type(z) is int
        ):
            raise IndexOutOfRange(f"sum entry {key!r}->{z!r} is not an index pair and an index")
    index = {i: i for i in range(min(n, _MAX_ELEMENTS))}
    triples = ((x, y, z) for (x, y), z in declared)
    return _close_sums(n, zero, one, triples, index)


def _close_sums(
    n: int, zero: object, one: object, sums: Iterable[Sequence], index: Mapping
) -> tuple[list[bytes], Witnesses]:
    """Declared sums closed into byte rows, and the clashes found on the way.

    ``sums`` yields ``(x, y, x + y)`` declarations in any orientation,
    repeats included, whose keys, like ``zero`` and ``one``, ``index``
    maps to element indices.  Each is written, in the order given, into
    both orientations of rows that already hold the zero rows.  A pair
    already holding another result clashes, and the first result
    declared stays: with zero it fails ``closure``, else ``Ei``, each
    pair counted once.  Raises :class:`SizeLimit` above ``_MAX_ELEMENTS``
    elements, before anything is allocated, then names the first key
    that ``index`` lacks, ``zero`` and ``one`` first
    (:func:`_missing_key`).
    """
    if n > _MAX_ELEMENTS:
        raise SizeLimit(f"tables are checked up to {_MAX_ELEMENTS} elements, not {n}")
    try:
        zero, one = index[zero], index[one]
    except KeyError as missing:
        raise _missing_key(missing, f"zero {zero} or one {one}", n) from None
    found = Witnesses()
    if zero == one:
        found.add(AXIOM_CLOSURE, (zero,), "zero and one coincide")
    rows = [bytearray(_ALL_UNDEF[:n]) for _ in range(n)]
    rows[zero][:] = _EVERY_BYTE[:n]
    for x, row in enumerate(rows):
        row[zero] = x
    # The first clashing declaration of each unordered pair, in order.
    clashes: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    try:
        for x, y, z in sums:
            x, y, z = index[x], index[y], index[z]
            row = rows[x]
            prior = row[y]
            if prior != z:
                if prior != _UNDEF:
                    clashes.setdefault((min(x, y), max(x, y)), (x, y, prior, z))
                    continue
                row[y] = z
                rows[y][x] = z
    except KeyError as missing:
        raise _missing_key(missing, f"sum entry ({x},{y})->{z}", n) from None
    for x, y, prior, z in clashes.values():
        if zero in (x, y):
            detail = f"declared element {x} + element {y} = element {z} contradicts the implied zero row"
            found.add(AXIOM_CLOSURE, (x, y, z), detail)
        else:
            detail = f"element {x} + element {y} is declared as both element {prior} and element {z}"
            found.add(AXIOM_COMMUTATIVITY, (x, y), detail)
    return [bytes(row) for row in rows], found


def _missing_key(missing: KeyError, what: str, n: int) -> EffectAlgebraError:
    """The error naming a key that the index of :func:`_close_sums`
    lacks: an int is an element index, out of range in ``what``; any
    other key an element name."""
    key = missing.args[0]
    if isinstance(key, int):
        return IndexOutOfRange(f"{what} out of range for size {n}")
    return UnknownName(f"unknown element name {key!r}")


def _check_rows(
    rows: list[bytes], zero: int, one: int, found: Witnesses
) -> tuple[AxiomReport, _Walk]:
    """:func:`verify_axioms`' report on byte rows ``rows[r][z] = r + z``,
    ``_UNDEF`` where undefined, with ``found`` already holding any clashes,
    and the walk that counted Eii.

    Rows that :func:`_close_sums` made are symmetric with the identity as
    zero row.  Rows that a construction built are tested for both in C,
    each row against its column, a strided slice of the joined rows: an
    asymmetric pair fails Ei and a wrong zero row entry ``closure``.
    Then Eii is counted by one walk (:func:`_eii`), and Eiii and Eiv in C.
    """
    n = len(rows)
    flat = b"".join(rows)
    for x, row in enumerate(rows):
        if flat[x::n] != row:
            for y in range(x + 1, n):
                if row[y] != rows[y][x]:
                    detail = f"element {x} + element {y} differs from {y} + {x}"
                    found.add(AXIOM_COMMUTATIVITY, (x, y), detail)
    if rows[zero] != _EVERY_BYTE[:n]:
        for a, b in enumerate(rows[zero]):
            if a != b:
                found.add(AXIOM_CLOSURE, (zero, a), f"zero + element {a} is not {a}")
    walk = _eii(rows, zero, flat, found)

    # Eiii: exactly one orthosupplement per element, counted in C.
    mates = [row.count(one) for row in rows]
    if misfits := n - mates.count(1):
        failures = (_misfit(rows[a], a, one) for a, m in enumerate(mates) if m != 1)
        found.counted(AXIOM_SUPPLEMENT, misfits, failures)

    # Eiv: one + a defined forces a = zero, counted in C.
    top = rows[one]
    if summands := n - top.count(_UNDEF) - (top[zero] != _UNDEF):
        defined = (a for a, s in enumerate(top) if s != _UNDEF and a != zero)
        detail = "one + element {0} is defined although {0} is not zero"
        found.counted(AXIOM_ZERO_ONE, summands, (((a,), detail.format(a)) for a in defined))
    return AxiomReport(tuple(found.kept), found.totals), walk


def _misfit(row: bytes, a: int, one: int) -> tuple[tuple[int, ...], str]:
    """Eiii's witnesses and detail for element ``a``, of sum row ``row``."""
    if one not in row:
        return (a,), f"element {a} has no orthosupplement"
    first = row.index(one)
    witnesses = (a, first, row.index(one, first + 1))
    return witnesses, f"element {a} has multiple orthosupplements"


class _Walk(NamedTuple):
    """The walk of :func:`_eii`, each field in walk order.  ``order`` is
    every element by ascending count of undefined sums: on an effect
    algebra a linear extension of the order, zero first, as x < y leaves
    x strictly more sums.  ``atoms`` are the elements compared, on an
    effect algebra its atoms.  ``splits`` holds ``(x, g, r)``, x = g + r
    with g an atom and r earlier, for each element skipped."""

    order: tuple[int, ...]
    atoms: tuple[int, ...]
    splits: tuple[tuple[int, int, int], ...]


def _eii(rows: list[bytes], zero: int, flat: bytes, found: Witnesses) -> _Walk:
    """Count Eii failures into ``found`` from byte rows ``rows``, joined
    in ``flat``, and return the walk that counted them.

    ``flat[y·n + z]`` is y + z; translating it through x's row, padded to
    256 bytes with ``_UNDEF``, gives x + (y + z) at the same position,
    ``_UNDEF`` when either sum is undefined, and joining the rows of x + y
    in y order, an all-``_UNDEF`` row where x + y is undefined, gives
    (x + y) + z.  x is good, associative in the first position, exactly
    when the two are equal; else its failures are the nonzero bytes of
    their XOR ``d``, counted in C: ``((d & 0x7f…) + 0x7f…) | d`` has a
    byte's high bit set exactly when the byte is nonzero, and no carry
    crosses a byte, since ``(b & 0x7f) + 0x7f <= 0xfe``.

    With undefined sums absorbing, good elements are closed under the
    sum on any rows: ((g + r) + y) + z = g + (r + (y + z)) = (g + r) +
    (y + z) for good g and r (Light's test; Clifford & Preston 1961, *The
    Algebraic Theory of Semigroups*, vol. 1).  So the elements are walked
    by ascending count of undefined sums, zero good from the start when
    its row is the identity.  x is skipped, as good, when it is g + r with
    g a generator and r good, first met in the generators' joined rows;
    any other x is compared, and becomes a generator or is counted and
    stays not good.  On an effect algebra the generators are the atoms,
    |atoms|·n² comparisons in all.  The witnesses are named after the
    walk, in (x, y, z) order.
    """
    n = len(rows)
    pad = _ALL_UNDEF[n:]
    # The row of x + y; row_of[_UNDEF], for x + y undefined, has nothing defined.
    row_of = rows + [_ALL_UNDEF[:n]] * (256 - n)
    undefined = [row.count(_UNDEF) for row in rows].__getitem__

    def groupings(x: int) -> tuple[bytes, bytes]:
        return b"".join(map(row_of.__getitem__, rows[x])), flat.translate(rows[x] + pad)

    good = bytearray(n)
    good[zero] = rows[zero] == _EVERY_BYTE[:n]
    generators: list[int] = []
    generated = b""  # the rows of the generators, joined
    compared: list[int] = []
    splits = []
    order = tuple(sorted(range(n), key=undefined))
    eii = 0
    for x in order:
        if good[x]:
            continue
        # x is g + r exactly where generated holds x in g's row, at r
        i = generated.find(x)
        while i >= 0 and not good[i % n]:
            i = generated.find(x, i + 1)
        if i >= 0:
            splits.append((x, generators[i // n], i % n))
        else:
            compared.append(x)
            left, right = groupings(x)
            if left != right:
                if not eii:  # the masks, built at the first failure
                    low7 = int.from_bytes(b"\x7f" * (n * n), "little")
                    high = int.from_bytes(b"\x80" * (n * n), "little")
                d = int.from_bytes(left, "little") ^ int.from_bytes(right, "little")
                eii += ((((d & low7) + low7) | d) & high).bit_count()
                continue
            generators.append(x)
            generated += rows[x]
        good[x] = 1

    def failures() -> Iterator[tuple[tuple[int, int, int], str]]:
        for x in range(n):
            if good[x]:
                continue
            left, right = groupings(x)
            for i in _differing(left, right, n):
                y, z = divmod(i, n)
                lhs, rhs = left[i], right[i]
                yield (x, y, z), (
                    f"groupings of elements {x}+{y}+{z} disagree "
                    f"({'undef' if lhs == _UNDEF else f'element {lhs}'} vs "
                    f"{'undef' if rhs == _UNDEF else f'element {rhs}'})"
                )

    if eii:
        found.counted(AXIOM_ASSOCIATIVITY, eii, failures())
    return _Walk(order, tuple(compared), tuple(splits))


def _differing(left: bytes, right: bytes, n: int) -> Iterator[int]:
    """The positions where ``left`` and ``right`` differ, in order,
    skipping equal slices of ``n`` bytes in C."""
    for start in range(0, len(left), n):
        stop = start + n
        if left[start:stop] != right[start:stop]:
            for i in range(start, stop):
                if left[i] != right[i]:
                    yield i


@dataclass(frozen=True)
class EffectAlgebra:
    """A validated finite effect algebra.

    ``rows[x][y]`` is the sum of ``x`` and ``y``, or ``_UNDEF`` when the
    pair is not summable: the byte rows that :func:`verify_axioms`
    checked.  The table is closed (symmetric, zero rows present) and has
    passed that check, so ``supplement`` is total.  ``table`` is the same
    table as tuples with ``None`` for undefined, decoded on first read;
    no analysis reads it.  Instances are immutable; equality and hashing
    go by value, and the rows determine the tuples and back.  Derived
    data (differences, multiples, order, compatibility, profile, sharp
    part, decompositions) is computed on first use into a per-instance
    memo, which is not a field, so it plays no part in ``==``, ``hash``
    or ``repr`` and is released with the algebra.
    """

    names: tuple[str, ...]
    zero: int
    one: int
    rows: tuple[bytes, ...]
    supplement: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_memo", {})

    @cached_property
    def table(self) -> tuple[tuple[Optional[int], ...], ...]:
        return _tuples(self.rows)

    @property
    def size(self) -> int:
        return len(self.names)

    def diff(self, b: int, a: int) -> Optional[int]:
        """The unique c with a + c == b, or None when a is not below b."""
        _check_index(self, b)
        _check_index(self, a)
        return _BYTE_VALUE[_difference_table(self)[a][b]]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownName(f"unknown element name {name!r}") from None

    def canonical_sums(self) -> list[tuple[int, int, int]]:
        """Defined sums with both operands nonzero, one entry per pair.

        Pairs are reported with the smaller index first and sorted; this is
        the serialization order and the equation order of the state engine.
        """
        return list(zip(*_sum_columns(self)))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"EffectAlgebra({self.size} elements, zero={self.names[self.zero]!r}, "
            f"one={self.names[self.one]!r})"
        )


def _check_index(E: EffectAlgebra, x: object) -> None:
    """Raise :class:`IndexOutOfRange` naming ``x`` unless it is exactly an
    int in ``range(E.size)``, so not a bool."""
    if type(x) is not int or not 0 <= x < len(E.names):
        raise IndexOutOfRange(f"element index {x!r} is not in 0..{E.size - 1}")


def make_algebra(
    names: Sequence[str],
    zero: int,
    one: int,
    sums: Mapping[tuple[int, int], int],
) -> EffectAlgebra:
    """Close, validate, and wrap a sum table.

    ``sums`` is closed in one pass in the order given
    (:func:`_close_sums`), so a pair given two results or an entry
    contradicting a zero row is an ``Ei`` or ``closure`` violation like
    any other, reported against the first result given.
    Raises :class:`DuplicateName` when two names coincide,
    :class:`IndexOutOfRange` when an entry, ``zero`` or ``one`` is not an
    element index or a key is not a pair, and :class:`AxiomViolation`,
    carrying that report, when the table is not an effect algebra.
    """
    return _algebra(names, zero, one, *_declared_rows(len(names), zero, one, sums))


def _algebra(
    names: Sequence[str], zero: int, one: int, rows: list[bytes], found: Witnesses
) -> EffectAlgebra:
    """The algebra on ``rows`` once :func:`_check_rows` passes them, keeping
    the check's walk; a construction hands its rows straight here, with an
    empty ``found``.  Raises :class:`DuplicateName` and :class:`AxiomViolation`."""
    names = tuple(names)
    if len(set(names)) != len(names):
        raise DuplicateName("element names must be unique")
    report, walk = _check_rows(rows, zero, one, found)
    if not report.ok:
        raise AxiomViolation(report)
    supplement = tuple(row.index(one) for row in rows)
    E = EffectAlgebra(names, zero, one, tuple(rows), supplement)
    E._memo[_walk] = walk  # type: ignore[attr-defined]
    return E


_T = TypeVar("_T")


def derived(fn: Callable[[EffectAlgebra], _T]) -> Callable[[EffectAlgebra], _T]:
    """Compute ``fn(E)`` once per algebra instance and keep it on ``E``."""

    @wraps(fn)
    def once(E: EffectAlgebra) -> _T:
        memo = E._memo  # type: ignore[attr-defined]
        try:
            return memo[once]
        except KeyError:
            value = memo[once] = fn(E)
            return value

    return once


def _tuples(rows: Iterable[bytes]) -> tuple[tuple[Optional[int], ...], ...]:
    """Byte rows as tuples, ``None`` for ``_UNDEF``: the one decoder from
    the rows this package keeps to the tables it shows."""
    return tuple(
        [
            tuple(map(_BYTE_VALUE.__getitem__, row)) if _UNDEF in row else tuple(row)
            for row in rows
        ]
    )


@derived
def _walk(E: EffectAlgebra) -> _Walk:
    """The :func:`_eii` walk of E's rows; :func:`_algebra` keeps its check's."""
    return _eii(list(E.rows), E.zero, b"".join(E.rows), Witnesses())


@derived
def _difference_table(E: EffectAlgebra) -> list[bytes]:
    """Row a holds at index b the c with a + c == b, ``_UNDEF`` when a is
    not below b.

    Cancellation (a + c == a + c' forces c == c') makes each entry unique,
    so row a is the inverse of sum row a: ``bytes.maketrans`` sends every
    byte to ``_UNDEF`` and then each defined a + c back to c, in C.  Only
    ``_UNDEF`` itself may repeat in a sum row, and it lies past the n
    bytes kept.
    """
    n = E.size
    inverse = _ALL_UNDEF + _EVERY_BYTE[:n]
    return [bytes.maketrans(_EVERY_BYTE + row, inverse)[:n] for row in E.rows]


@derived
def _sum_columns(E: EffectAlgebra) -> tuple[tuple[int, ...], ...]:
    """The x, y and z columns of :meth:`EffectAlgebra.canonical_sums`, in
    its order, so that a check over every sum can map over them in C."""
    sums = [
        (x, y, z)
        for x, row in enumerate(E.rows)
        if x != E.zero
        for y, z in enumerate(row[x:], x)
        if z != _UNDEF and y != E.zero
    ]
    return tuple(zip(*sums)) if sums else ((), (), ())


def build_effect_algebra(doc: "EafDocument") -> EffectAlgebra:
    """Build a validated algebra from a parsed document.

    The declared sums, repeats included, are closed and checked as
    :func:`make_algebra`'s are, so a document only needs the generating
    entries, and a clash is an ``Ei`` or ``closure`` violation of the
    :class:`AxiomViolation` raised.  One pass resolves and closes the
    declarations in file order (:func:`_close_sums`), so clashes are
    reported in that order, against the first result declared.  Raises
    :class:`UnknownName` for the first name the document does not
    declare, ``zero`` and ``one`` first, which :func:`parse_eaf` already
    rules out.
    """
    position = {name: i for i, name in enumerate(doc.names)}
    closed = _close_sums(len(doc.names), doc.zero, doc.one, doc.sums, position)
    return _algebra(doc.names, position[doc.zero], position[doc.one], *closed)


@derived
def multiples(E: EffectAlgebra) -> tuple[tuple[int, ...], ...]:
    """``[x]`` is ``(x, 2x, ..., ord(x)·x)``, every defined multiple of x.

    The zero element's entry is empty (its index is 0).  A nonzero
    element's multiples are distinct nonzero elements (they strictly
    increase), so there are at most ``size - 1`` of them.
    """
    out = []
    for x in range(E.size):
        ms: list[int] = []
        acc = _UNDEF if x == E.zero else x
        while acc != _UNDEF:
            ms.append(acc)
            if len(ms) >= E.size:
                raise RuntimeError(
                    f"multiples of {x} exceed the element count; "
                    "the table is not a valid effect algebra"
                )
            acc = E.rows[acc][x]
        out.append(tuple(ms))
    return tuple(out)


@derived
def _multiple_masks(E: EffectAlgebra) -> dict[int, int]:
    """Each atom's :func:`multiples` as one mask, keyed by the atom."""
    return {a: sum(1 << m for m in multiples(E)[a]) for a in _walk(E).atoms}


def multiple(E: EffectAlgebra, x: int, k: int) -> Optional[int]:
    """The k-fold sum of x, or None when it is not defined.

    Raises ``ValueError`` naming k unless it is exactly an int >= 0, so
    not a bool or a float.
    """
    _check_index(E, x)
    if type(k) is not int or k < 0:
        raise ValueError(f"multiplicity {k!r} is not an int >= 0")
    if k == 0 or x == E.zero:
        return E.zero
    ms = multiples(E)[x]
    return ms[k - 1] if k <= len(ms) else None
