"""States: the defining linear system, search, verification, smearing.

A state assigns 0 to zero, 1 to one, values in [0, 1] everywhere, and is
additive across every defined sum.  On a finite algebra that is exactly a
feasibility problem over the canonical sum rows, :func:`state_system`,
solved exactly in :mod:`effalg.linear`; no floating point enters at any
stage.  Every element is a sum of atoms, so a state is fixed by its atom
values: :func:`find_state` solves the smaller system on atom coordinates,
one column per atom, once, and checks the state it lifts from there on
every element.  The atoms, and each element split as an atom plus an
earlier element, are the walk kept from the axiom check
(:func:`effalg.core._walk`).  When that system has no point, each of
its rows is a known integer combination of the rows of
:func:`state_system`, so its certificate lifts to one for the state
system, which is checked there.

Smearing extends a state given only on the sharp elements to the whole of
a lattice-ordered algebra.  The paper's formula gives an atom of
isotropic index n one n-th of the value of its n-fold sum (which is
sharp), and any other element the value of its sharp kernel plus the
shares of the atoms in its meager remainder.  :func:`smear_state` takes
only the atoms' shares and lifts them as :func:`find_state` lifts its
atom values.  That is the formula: a state is the lift of its atom
values, and a lift that is a state restricting to the input is additive
over each basic decomposition.  The result is verified to be a state
whose restriction to the sharp part is the input, so a violation of the
underlying theory raises instead of propagating silently.

States are checked and smeared in integers over one common denominator,
as :func:`effalg.linear.verify_point` checks a point: no ``Fraction`` is
added or compared per canonical sum, and a state found or smeared is
checked on its numerators, with no ``Fraction`` round trip.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count
from math import lcm
from numbers import Rational
from operator import add, ne, sub
from typing import Mapping, Optional, Sequence, Union

from .core import (
    EffectAlgebra,
    Violation,
    Witnesses,
    _check_index,
    _sum_columns,
    _walk,
    derived,
    multiples,
)
from .eaf import _MAX_DIGITS
from .errors import InvalidState, PreconditionFailed, SizeLimit
from .linear import (
    InfeasibilityCertificate,
    LinearSystem,
    solve_exact,
    verify_certificate,
)
from .order import derive_order
from .structure import extract_sharp

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


def _sum_row(x: int, y: int, z: int) -> tuple[tuple[int, int], ...]:
    """The row ``v[z] - v[x] - v[y] = 0`` of a canonical sum, x <= y.

    z is neither x nor y, as x + y = x forces y = 0, so only ``x == y``
    merges, into one ``-2`` entry; the entries are placed by comparing z.
    """
    if x == y:
        return ((x, -2), (z, 1)) if x < z else ((z, 1), (x, -2))
    if z < x:
        return ((z, 1), (x, -1), (y, -1))
    if z < y:
        return ((x, -1), (z, 1), (y, -1))
    return ((x, -1), (y, -1), (z, 1))


def state_system(E: EffectAlgebra) -> LinearSystem:
    """The equality system whose box-bounded solutions are the states.

    One row ``v[z] - v[x] - v[y] = 0`` per canonical sum x + y = z, then
    the two endpoint rows pinning zero to 0 and one to 1.  A row holds only
    its nonzero ``(column, coefficient)`` pairs, at most three
    (:func:`_sum_row`).
    """
    rows = (*map(_sum_row, *_sum_columns(E)), ((E.zero, 1),), ((E.one, 1),))
    rhs = (Fraction(0),) * (len(rows) - 1) + (Fraction(1),)
    return LinearSystem(E.size, rows, rhs)


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


@derived
def _classes(E: EffectAlgebra) -> tuple[int, ...]:
    """``[x]`` packs how many times x's sum takes each atom, atom k (column
    k of :func:`_atom_system`) in bits ``_FIELD·k`` up: each atom of the
    walk (:func:`effalg.core._walk`) its own field, zero none, and each
    split x = g + r class(g) + class(r), both packed by then."""
    packed = [0] * E.size
    for k, a in enumerate(_walk(E).atoms):
        packed[a] = 1 << _FIELD * k
    for x, g, r in _walk(E).splits:
        packed[x] = packed[g] + packed[r]
    return tuple(packed)


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


@derived
def _differences(E: EffectAlgebra) -> tuple[int, ...]:
    """class(x) + class(y) - class(z) per canonical sum, packed, in the
    order of :func:`effalg.core._sum_columns`, found in one pass in C."""
    at = _classes(E).__getitem__
    xs, ys, zs = _sum_columns(E)
    return tuple(map(sub, map(add, map(at, xs), map(at, ys)), map(at, zs)))


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
    relations = sorted({*map(abs, _differences(E))} - {0})
    rows = (_unpacked(_classes(E)[E.one]), *map(_unpacked, relations))
    return LinearSystem(len(_walk(E).atoms), rows, (1,) + (0,) * len(relations))


def _lifted_certificate(
    E: EffectAlgebra, cert: InfeasibilityCertificate
) -> InfeasibilityCertificate:
    """An atom-system certificate as one for :func:`state_system`, gap 1.

    Write F(x, y, z) for the full row v[z] - v[x] - v[y] = 0 and D_x for
    a combination of full rows equal to v[x] - class(x)·u, where u is v
    on the atoms: D_atom = 0 and D_x = F(g, r, x) + D_g + D_r for each
    split x = g + r.  Atom row 0 is then the ``one = 1`` row minus D_1,
    and the relation first met at the sum (x, y, z), of sign s, is
    s·(-F(x, y, z) - D_x - D_y + D_z).  So y is the combination the
    atom multipliers take of those, w and z stay on the atom columns, and
    the gap is unchanged; all of them are divided by the gap.

    In integers over one common denominator: each D_x taken is owed to
    ``owed[x]``, paid off over the splits in reverse walk order, so once
    per element.  The result is checked by ``verify_certificate`` on
    ``state_system(E)``, and ``RuntimeError`` is raised if it fails.
    """
    xs, ys, zs = _sum_columns(E)
    differences = _differences(E)
    last = len(differences) - 1
    # each relation's first source sum: a later sum is overwritten
    first = dict(zip(map(abs, reversed(differences)), range(last, -1, -1)))
    relations = sorted(first.keys() - {0})
    den = lcm(cert.gap.denominator, *{q.denominator for q in cert.row_multipliers})
    gap = cert.gap.numerator * (den // cert.gap.denominator)
    y_atom = [q.numerator * (den // q.denominator) for q in cert.row_multipliers]
    y = [0] * (last + 3)  # the canonical sums, then zero = 0 and one = 1
    owed = [0] * E.size
    y[-1], owed[E.one] = y_atom[0], -y_atom[0]
    for t, relation in zip(y_atom[1:], relations):
        if t:
            i = first[relation]
            t = t if differences[i] > 0 else -t
            y[i] -= t
            owed[xs[i]] -= t
            owed[ys[i]] -= t
            owed[zs[i]] += t
    for x, g, r in reversed(_walk(E).splits):
        if t := owed[x]:
            a, b = sorted((g, r))
            start = bisect_left(xs, a)
            y[bisect_left(ys, b, start, bisect_right(xs, a, start))] += t
            owed[g] += t
            owed[r] += t
    zero = Fraction(0)
    bounds = []
    for multipliers in (cert.upper_multipliers, cert.lower_multipliers):
        dense = [zero] * E.size
        for a, q in zip(_walk(E).atoms, multipliers):
            if q:
                dense[a] = q / cert.gap
        bounds.append(tuple(dense))
    lifted = InfeasibilityCertificate(
        tuple(Fraction(v, gap) if v else zero for v in y), *bounds, Fraction(1)
    )
    if not verify_certificate(state_system(E), lifted):
        raise RuntimeError("the lifted certificate does not refute the state system")
    return lifted


def find_state(E: EffectAlgebra) -> Union[State, InfeasibilityCertificate]:
    """Find a state or certify that none exists.

    :func:`effalg.linear.solve_exact` decides :func:`_atom_system`, with
    one column per atom, once.  A point u is lifted to v(x) = class(x)·u
    and checked on all of E by :func:`_lifted_state`, as smearing lifts
    its atom shares.  When the atom system has no point, its certificate
    is lifted to one for ``state_system(E)`` with gap 1 by
    :func:`_lifted_certificate`, checked there by ``verify_certificate``.
    ``RuntimeError`` is raised if the lifted values are not a state, or
    the lifted certificate does not refute the state system.
    """
    outcome = solve_exact(_atom_system(E))
    if isinstance(outcome, InfeasibilityCertificate):
        return _lifted_certificate(E, outcome)
    return _lifted_state(E, outcome.values, "the lifted atom values are not a state")


def _lifted_state(E: EffectAlgebra, atom_values: Sequence[Fraction], what: str) -> State:
    """The state v(x) = class(x)·u lifted from the atom values u, given
    in walk order, checked on all of E.

    Over one common denominator the atoms' numerators are set and added
    along the splits x = g + r, in walk order.  The values are checked in
    integers, as :func:`verify_state` checks: every canonical sum, the
    endpoints and the box.  ``RuntimeError`` led by ``what`` is raised if
    they are not a state.
    """
    den = lcm(*(u.denominator for u in atom_values))
    nums = [0] * E.size
    for a, u in zip(_walk(E).atoms, atom_values):
        nums[a] = u.numerator * (den // u.denominator)
    for x, g, r in _walk(E).splits:
        nums[x] = nums[g] + nums[r]
    failures = _check_numerators(E, nums, den, Witnesses()).kept
    if failures:
        raise RuntimeError(f"{what}: " + _first(failures))
    return State(E, tuple(Fraction(v, den) for v in nums))


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
    to one common denominator ``D``, so every check is in integers; they
    are made by :func:`_check_numerators`, the check :func:`find_state`
    and :func:`smear_state` make of their own results.
    ``D`` is taken one denominator at a time, and :class:`SizeLimit` is
    raised once it has more than ``_MAX_DENOMINATOR_BITS`` bits.  It is
    raised first for a value whose numerator or denominator has more than
    ``_MAX_DIGITS`` digits, which no state file gives.
    """
    for x in candidate:
        _check_index(E, x)
    found = Witnesses()
    # The given values as exact rationals; None where missing.
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
    _check_numerators(E, nums, den, found)
    faithful = nums[E.zero] == 0 and nums.count(0) == 1
    return StateReport(tuple(found.kept), faithful, found.totals)


def _check_numerators(
    E: EffectAlgebra, nums: list[Optional[int]], den: int, found: Witnesses
) -> Witnesses:
    """Check the values ``nums[x] / den`` in integers and return ``found``
    with their failures added: the endpoints, ``0 <= v D <= D`` per
    element, then additivity over all the canonical sums in one pass in C.
    A ``None`` in ``nums`` is a missing value: it reads as 0 in that
    pass, and the failing sums that touch it are dropped after.  Only the
    failures kept are named, each value as the ``Fraction`` it is.
    """

    def shown(x: int) -> Fraction:
        return Fraction(nums[x], den)

    filled = [v or 0 for v in nums] if None in nums else nums
    for kind, x, target in (("zero", E.zero, 0), ("one", E.one, den)):
        if nums[x] is not None and nums[x] != target:
            found.add(kind, (x,), f"value at {kind} is {shown(x)}")
    if min(filled) < 0 or max(filled) > den:
        outside = [x for x, v in enumerate(filled) if not 0 <= v <= den]
        found.counted(
            "range",
            len(outside),
            (((x,), f"value {shown(x)} at {E.names[x]} is outside [0,1]") for x in outside),
        )
    xs, ys, zs = _sum_columns(E)
    at = filled.__getitem__
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
                    f"{shown(x)} + {shown(y)} != {shown(z)}",
                )
                for x, y, z in sums
            ),
        )
    return found


def _first(failures: Sequence[Violation]) -> str:
    """The details of the first three failures, for a message."""
    return "; ".join(v.detail for v in failures[:3])


def restrict_to_sharp(E: EffectAlgebra, s: State) -> State:
    """Restrict a state on E to the extracted sharp subalgebra."""
    if s.domain is not E and s.domain != E:
        raise InvalidState("state domain is not the given algebra")
    sub = extract_sharp(E)
    values = tuple(s.values[x] for x in sub.to_parent)
    return State(sub.algebra, values)


def smear_state(E: EffectAlgebra, omega: State) -> State:
    """Extend a state on the sharp subalgebra to all of E.

    Atoms get ``omega(n·a)/n`` where ``n`` is the atom's isotropic index,
    and every other element the lift of those shares over its class, as
    in :func:`find_state`.  Where the result is a state restricting to
    ``omega``, that is the paper's value: omega at the element's sharp
    kernel plus its meager atom multiples times their shares, by
    additivity over its basic decomposition.  Requires lattice order and
    raises :class:`InvalidState` if ``omega`` is not a valid state on the
    extracted sharp subalgebra, or :class:`SizeLimit`.

    The lift is checked in integers, as :func:`verify_state` checks, and
    restricted back to the sharp part, and either failing raises
    ``RuntimeError``; so does an atom's last multiple that is not sharp.
    """
    if not derive_order(E).is_lattice:
        raise PreconditionFailed("smearing needs a lattice-ordered algebra")
    sub = extract_sharp(E)
    if omega.domain != sub.algebra or len(omega.values) != sub.algebra.size:
        raise InvalidState(
            "the input state must live on the extracted sharp subalgebra"
        )
    report = verify_state(sub.algebra, dict(enumerate(omega.values)))
    if report.violations:
        raise InvalidState(
            "the input is not a state on the sharp subalgebra: "
            + _first(report.violations)
        )
    # An atom's full multiple is sharp in a lattice; its share is exact
    # as a Fraction even where omega's values are ints.
    ms = multiples(E)
    shares = []
    for a in _walk(E).atoms:
        i = sub.from_parent[ms[a][-1]]
        if i is None:
            raise RuntimeError(f"element {ms[a][-1]} expected sharp")
        shares.append(Fraction(omega.values[i], len(ms[a])))
    result = _lifted_state(E, shares, "smearing produced a non-state")
    back = restrict_to_sharp(E, result)
    if back.values != omega.values:
        raise RuntimeError("smeared state does not restrict to its input")
    return result
