"""States: the defining linear system, search, verification, smearing.

A state assigns 0 to zero, 1 to one, values in [0, 1] everywhere, and is
additive across every defined sum.  On a finite algebra that is exactly a
feasibility problem over the canonical sum rows, :func:`state_system`,
solved exactly in :mod:`effalg.linear`; no floating point enters at any
stage.  Every element is a sum of atoms, so a state is fixed by its atom
values: :func:`find_state` solves the smaller system on atom coordinates,
one column per atom, and checks the state it lifts from there on every
element with :func:`verify_state`.  Only when that system has no point
does it solve :func:`state_system`, whose certificate it returns.

Smearing extends a state given only on the sharp elements to the whole of
a lattice-ordered algebra: an atom with isotropic index n gets one n-th of
the value of its n-fold sum (which is sharp), and a general element gets
the value of its sharp kernel plus the weighted atom values of its meager
remainder.  The result is verified to be a state whose restriction to the
sharp part is the input, so a violation of the underlying theory raises
instead of propagating silently.

States are checked and smeared in integers over one common denominator,
as :func:`effalg.linear.verify_point` checks a point: no ``Fraction`` is
added or compared per canonical sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count
from math import lcm
from numbers import Rational
from operator import add, ne, sub
from typing import Mapping, NamedTuple, Optional, Union

from .core import (
    _UNDEF,
    EffectAlgebra,
    Violation,
    Witnesses,
    _check_index,
    _sum_columns,
    derived,
    multiples,
)
from .decompose import basic_decomposition
from .eaf import _MAX_DIGITS
from .errors import InvalidState, PreconditionFailed, SizeLimit
from .linear import (
    FeasiblePoint,
    InfeasibilityCertificate,
    LinearSystem,
    solve_exact,
)
from .order import derive_order
from .structure import extract_sharp, structure_profile

# Bits of verify_state's common denominator: four 4,300-digit numerals fit.
_MAX_DENOMINATOR_BITS = 1 << 16
# The least int with more digits than a state file's numeral may have,
# and than Python converts to a string, so a detail could not show it.
_DIGITS_PAST = 10**_MAX_DIGITS


@dataclass(frozen=True)
class State:
    """A verified state: one exact rational per element of its domain."""

    domain: EffectAlgebra
    values: tuple[Fraction, ...]

    def __call__(self, x: int) -> Fraction:
        return self.values[x]

    def by_name(self, name: str) -> Fraction:
        return self.values[self.domain.index(name)]


def state_system(E: EffectAlgebra) -> LinearSystem:
    """The equality system whose box-bounded solutions are the states.

    One row ``v[z] - v[x] - v[y] = 0`` per canonical sum x + y = z, then
    the two endpoint rows pinning zero to 0 and one to 1.  A row holds only
    its nonzero ``(column, coefficient)`` pairs, at most three: ``x == y``
    merges into one ``-2`` entry, and entries that cancel are dropped.
    """
    rows: list[tuple[tuple[int, int], ...]] = []
    for x, y, z in E.canonical_sums():
        entry = {z: 1}
        entry[x] = entry.get(x, 0) - 1
        entry[y] = entry.get(y, 0) - 1
        rows.append(tuple(sorted((j, c) for j, c in entry.items() if c)))
    rows.append(((E.zero, 1),))
    rows.append(((E.one, 1),))
    rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(1)]
    return LinearSystem(E.size, tuple(rows), tuple(rhs))


def state_row_labels(E: EffectAlgebra) -> tuple[str, ...]:
    """Human-readable label per row of ``state_system(E)``, same order."""
    labels = [
        f"{E.names[x]} + {E.names[y]} = {E.names[z]}"
        for x, y, z in E.canonical_sums()
    ]
    labels.append(f"{E.names[E.zero]} = 0")
    labels.append(f"{E.names[E.one]} = 1")
    return tuple(labels)


# Bits per atom in a packed class.  An element is a sum of at most 254
# atoms, so a component of class(x) + class(y) - class(z) lies in
# [-254, 508]: a signed 10-bit field, [-512, 511], holds it; 9 would not.
_FIELD = 10
_HALF = 1 << (_FIELD - 1)
_MASK = (1 << _FIELD) - 1


class _Classes(NamedTuple):
    """Each element of an algebra as a sum of its atoms.

    ``atoms`` lists the atoms in walk order; atom k is column k of
    :func:`_atom_system`.  ``packed[x]`` is the class of x, how many times
    x's sum takes each atom, as one int holding component k in bits
    ``_FIELD·k`` up.  ``splits`` lists ``(x, g, r)`` with x = g + r and
    g an atom, in walk order, once per element neither zero nor an atom.
    """

    atoms: tuple[int, ...]
    packed: tuple[int, ...]
    splits: tuple[tuple[int, int, int], ...]


@derived
def _classes(E: EffectAlgebra) -> _Classes:
    """One walk over the rows, by ascending count of undefined sums.

    That is a linear extension of the order, as in :func:`effalg.core._eii`:
    x < y means x has strictly more defined sums.  Zero gets the empty
    class.  Any other x is g + r at the first place ``find`` meets x in the
    joined rows of the atoms found so far, and gets class(g) + class(r),
    both below x and so already walked; where no atom's row holds x, x is
    the next atom.
    """
    n = E.size
    undefined = [row.count(_UNDEF) for row in E.rows]
    atoms: list[int] = []
    packed = [0] * n
    splits = []
    generated = bytearray()  # the rows of the atoms found so far, joined
    for x in sorted(range(n), key=undefined.__getitem__):
        if x == E.zero:
            continue
        i = generated.find(x)
        if i < 0:
            packed[x] = 1 << _FIELD * len(atoms)
            atoms.append(x)
            generated += E.rows[x]
        else:
            g, r = atoms[i // n], i % n
            packed[x] = packed[g] + packed[r]
            splits.append((x, g, r))
    return _Classes(tuple(atoms), tuple(packed), tuple(splits))


def _unpacked(d: int) -> tuple[tuple[int, int], ...]:
    """The nonzero components of a packed class, or of a difference of
    packed classes, as ``(column, coefficient)`` pairs."""
    row = []
    k = 0
    while d:
        c = ((d + _HALF) & _MASK) - _HALF  # the low field, read signed
        if c:
            row.append((k, c))
        d = (d - c) >> _FIELD
        k += 1
    return tuple(row)


def _atom_system(E: EffectAlgebra) -> LinearSystem:
    """The state system on atom coordinates: one column per atom.

    A state v is fixed by its atom values u, v(x) = class(x)·u, so each
    canonical sum x + y = z becomes the relation class(x) + class(y) -
    class(z) among atom values.  The rows are class(1)·u = 1 and then the
    distinct nonzero relations, each signed so that its last nonzero entry
    is positive, in ascending order of packed value.  Where class(1) is a
    multiple of one atom, as on a chain or a horizontal sum of chains, the
    first row pins that atom at once.  The box
    needs no rows: u >= 0 gives v >= 0, and v(x) + v(x') = v(1) = 1 gives
    v <= 1.  So the feasible points are exactly the states' atom values.
    """
    classes = _classes(E)
    at = classes.packed.__getitem__
    xs, ys, zs = _sum_columns(E)
    differences = map(sub, map(add, map(at, xs), map(at, ys)), map(at, zs))
    relations = sorted({*map(abs, differences)} - {0})
    rows = (_unpacked(at(E.one)), *map(_unpacked, relations))
    return LinearSystem(len(classes.atoms), rows, (1,) + (0,) * len(relations))


def find_state(E: EffectAlgebra) -> Union[State, InfeasibilityCertificate]:
    """Find a state or certify that none exists.

    :func:`effalg.linear.solve_exact` decides :func:`_atom_system`, with
    one column per atom.  A point u is lifted to v(x) = class(x)·u over one
    common denominator, and the result is checked on all of E by
    :func:`verify_state`: every canonical sum, the endpoints and the box.
    When the atom system has no point, the certificate returned is
    ``solve_exact(state_system(E))``'s, checked there by
    ``verify_certificate``.  ``RuntimeError`` is raised if the lifted
    values are not a state, or if the two systems disagree.
    """
    outcome = solve_exact(_atom_system(E))
    if isinstance(outcome, InfeasibilityCertificate):
        full = solve_exact(state_system(E))
        if isinstance(full, FeasiblePoint):
            raise RuntimeError("the state system has a point the atom system lacks")
        return full
    classes = _classes(E)
    den = lcm(*(u.denominator for u in outcome.values))
    nums = [0] * E.size
    for a, u in zip(classes.atoms, outcome.values):
        nums[a] = u.numerator * (den // u.denominator)
    for x, g, r in classes.splits:
        nums[x] = nums[g] + nums[r]
    state = State(E, tuple(Fraction(v, den) for v in nums))
    report = verify_state(E, dict(enumerate(state.values)))
    if not report.ok:
        raise RuntimeError(
            "the lifted atom values are not a state: "
            + "; ".join(v.detail for v in report.violations[:3])
        )
    return state


@dataclass(frozen=True)
class StateReport:
    """``violations`` keeps the first ``_WITNESS_CAP`` violations of each
    kind (missing, zero, one, range, additivity, in that order), each
    labelled by its kind in ``axiom``; ``totals`` counts every violation
    per kind (a kind with none is absent).  ``faithful`` tells whether 0
    is attained only at the zero element; it is informational and never
    a violation."""

    violations: tuple[Violation, ...]
    faithful: bool
    totals: Mapping[str, int] = field(hash=False)  # a dict is unhashable

    @property
    def ok(self) -> bool:
        return not self.violations


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, (bool, float)):
        kind = type(value).__name__
        raise TypeError(f"state values must be exact rationals, not {kind}s")
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"state value {value!r} is not a rational number")


def verify_state(E: EffectAlgebra, candidate: Mapping[int, object]) -> StateReport:
    """Check a candidate value mapping against the equations of
    :func:`state_system`, the box [0, 1] and totality.

    Each key of ``candidate`` must be exactly an int in ``range(E.size)``,
    so not a bool: any other raises :class:`IndexOutOfRange` naming it.
    A value is missing for each element absent from ``candidate``; zero
    must map to 0 and one to 1; every value must lie in [0, 1]; and each
    canonical sum x + y = z must map to an exact sum.  An equation with a
    missing value is not checked.  The rows ``0 + y = y`` are left out,
    as in :func:`state_system`: once zero maps to 0 they hold.  Floats
    are rejected outright: a state that only approximately satisfies
    additivity is not a state.  So are bools, which Python counts as
    integers.

    As in :func:`effalg.linear.verify_point`, the given values are brought
    to one common denominator ``D``, so every check is in integers: the
    endpoints and ``0 <= v D <= D`` per element, and additivity over all
    the canonical sums in one pass in C, a missing value read as 0 there;
    of the sums that fail it, those with a missing value are dropped, and
    the failures kept are named one at a time.
    ``D`` is taken one denominator at a time, and :class:`SizeLimit` is
    raised once it has more than ``_MAX_DENOMINATOR_BITS`` bits.  It is
    raised first for a value whose numerator or denominator has more than
    ``_MAX_DIGITS`` digits, which no state file gives.
    """
    for x in candidate:
        _check_index(E, x)
    found = Witnesses()
    # The given values as they are, for the details; None where missing.
    values: list[Optional[Rational]] = [None] * E.size
    for x in range(E.size):
        if x in candidate:
            v = candidate[x]
            values[x] = v = v if type(v) is Fraction or type(v) is int else _as_fraction(v)
            if abs(v.numerator) >= _DIGITS_PAST or v.denominator >= _DIGITS_PAST:
                limit = f"up to {_MAX_DIGITS} digits above and below the line"
                raise SizeLimit(f"state values are checked {limit}, not at {E.names[x]}")
        else:
            found.add("missing", (x,), f"no value for {E.names[x]}")
    den = 1
    for q in {v.denominator for v in values if v is not None}:
        if (den := lcm(den, q)).bit_length() > _MAX_DENOMINATOR_BITS:
            limit = f"a common denominator of up to {_MAX_DENOMINATOR_BITS} bits"
            raise SizeLimit(f"state values are checked over {limit}")
    nums = [None if v is None else v.numerator * (den // v.denominator) for v in values]
    for kind, x, target in (("zero", E.zero, 0), ("one", E.one, den)):
        if nums[x] is not None and nums[x] != target:
            found.add(kind, (x,), f"value at {kind} is {values[x]}")
    for x, v in enumerate(nums):
        if v is not None and not 0 <= v <= den:
            found.add(
                "range", (x,), f"value {values[x]} at {E.names[x]} is outside [0,1]"
            )
    xs, ys, zs = _sum_columns(E)
    # A missing value reads as 0 in the one pass in C, and the failing sums
    # that touch it are dropped after.
    at = ([v or 0 for v in nums] if "missing" in found.totals else nums).__getitem__
    fails = compress(count(), map(ne, map(add, map(at, xs), map(at, ys)), map(at, zs)))
    failing = [i for i in fails if None not in (nums[xs[i]], nums[ys[i]], nums[zs[i]])]
    if failing:
        sums = ((xs[i], ys[i], zs[i]) for i in failing)
        found.counted(
            "additivity",
            len(failing),
            (
                (
                    (x, y, z),
                    f"{E.names[x]} + {E.names[y]} = {E.names[z]} maps to "
                    f"{values[x]} + {values[y]} != {values[z]}",
                )
                for x, y, z in sums
            ),
        )
    faithful = nums[E.zero] == 0 and nums.count(0) == 1
    return StateReport(tuple(found.kept), faithful, found.totals)


def restrict_to_sharp(E: EffectAlgebra, s: State) -> State:
    """Restrict a state on E to the extracted sharp subalgebra."""
    if s.domain is not E and s.domain != E:
        raise InvalidState("state domain is not the given algebra")
    sub = extract_sharp(E)
    values = tuple(s.values[x] for x in sub.to_parent)
    return State(sub.algebra, values)


def smear_state(E: EffectAlgebra, omega: State) -> State:
    """Extend a state on the sharp subalgebra to all of E.

    Atoms get ``omega(n·a)/n`` where ``n`` is the atom's isotropic index;
    every other nonzero element is valued through its basic decomposition
    as sharp kernel plus weighted meager atom multiples.  Requires lattice
    order and raises :class:`InvalidState` if ``omega`` is not a valid
    state on the extracted sharp subalgebra, or :class:`SizeLimit`.

    Every value is computed as an integer numerator over one common
    denominator, the lcm of omega's denominators times the lcm of the
    atoms' isotropic indices, over which each ``omega(n·a)/n`` is exact.
    The result is then verified by :func:`verify_state` and restricted
    back to the sharp part, and either failing raises ``RuntimeError``.
    """
    os = derive_order(E)
    if not os.is_lattice:
        raise PreconditionFailed("smearing needs a lattice-ordered algebra")
    sub = extract_sharp(E)
    if omega.domain != sub.algebra:
        raise InvalidState(
            "the input state must live on the extracted sharp subalgebra"
        )
    report = verify_state(sub.algebra, dict(enumerate(omega.values)))
    if report.violations:
        raise InvalidState(
            "the input is not a state on the sharp subalgebra: "
            + "; ".join(v.detail for v in report.violations[:3])
        )
    profile = structure_profile(E)
    den = lcm(*(v.denominator for v in omega.values)) * lcm(
        *(profile.isotropic[a] for a in profile.atoms)
    )
    sharp_nums = [v.numerator * (den // v.denominator) for v in omega.values]

    def sharp_value(parent_x: int) -> int:
        i = sub.from_parent[parent_x]
        if i is None:
            raise RuntimeError(f"element {parent_x} expected sharp")
        return sharp_nums[i]

    # An atom's full multiple is sharp in a lattice; sharp_value checks it.
    # Its numerator is a multiple of the atom's index, which divides den
    # over the lcm of omega's denominators, so the share is exact.
    ms = multiples(E)
    atom_value = {
        a: sharp_value(ms[a][-1]) // profile.isotropic[a] for a in profile.atoms
    }

    nums = [0] * E.size
    for x in range(E.size):
        if x == E.zero:
            continue
        if x in profile.sharp:
            nums[x] = sharp_value(x)
            continue
        basic = basic_decomposition(E, x)
        nums[x] = sharp_value(basic.sharp_part) + sum(
            part.multiplicity * atom_value[part.atom] for part in basic.meager_parts
        )

    result = State(E, tuple(Fraction(v, den) for v in nums))
    check = verify_state(E, dict(enumerate(result.values)))
    if check.violations:
        raise RuntimeError(
            "smearing produced a non-state: "
            + "; ".join(v.detail for v in check.violations[:3])
        )
    back = restrict_to_sharp(E, result)
    if back.values != omega.values:
        raise RuntimeError("smeared state does not restrict to its input")
    return result
