"""Exact rational feasibility for equality systems with 0..1 bounds.

The single problem shape handled here is: find v with A v = b and
0 <= v_j <= 1, all arithmetic over ``fractions.Fraction``.  Each row of
A lists only its nonzero ``(column, coefficient)`` pairs, and every step
reads them as they are.  :func:`solve_exact` decides it in three steps:

1. Eliminate.  Sparse exact Gauss-Jordan runs over the rows in order.
   Each kept row remembers which combination of the original rows it is.
   A row that reduces to ``0 = 0`` is redundant and dropped; one that
   reduces to ``0 = c`` with ``c != 0`` is already a refutation, and so is
   a row that pins a single variable outside [0, 1].
2. Reduced phase one.  The rows that still link a pivot variable to free
   variables form a much smaller system over only the columns they touch.
   A phase-one simplex decides it: one slack per upper bound, one
   artificial per row, Bland's rule throughout, so it terminates without
   any numerical tolerance.  Its tableau holds nonzeros only, and a pivot
   touches only the rows that hold the entering column.
3. Lift.  A reduced point gets the pinned values added back; reduced row
   multipliers are carried back to the original rows through the recorded
   combinations.

Outcomes are self-certifying.  A feasible point lists exact values and is
checked against every row and bound by :func:`verify_point`.  An
infeasible system yields row multipliers ``y`` plus bound multipliers
``w, z >= 0`` with

    (y^T A)_j = w_j - z_j   for every variable j, and
    y^T b - sum(w) = gap > 0,

which refutes feasibility by three lines of arithmetic: any candidate v
in the box would give y^T b = sum_j (w_j - z_j) v_j <= sum(w).
:func:`verify_certificate` checks exactly that, independent of how the
multipliers were produced.  ``solve_exact`` re-verifies every outcome
against the original, unreduced system before returning, so a bug in the
elimination, the pivoting or the lifting can not surface as a wrong
answer, only as a loud failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union


@dataclass(frozen=True)
class LinearSystem:
    """Equality rows over ``nvars`` variables, each bounded to [0, 1].

    ``coeffs[i]`` lists the nonzero entries of row ``i`` as ``(column,
    coefficient)`` pairs, integer coefficients, columns strictly
    increasing; a column that is absent has coefficient 0.  ``rhs[i]`` is
    that row's right-hand side.  Raises ``ValueError`` on any other shape.
    """

    nvars: int
    coeffs: tuple[tuple[tuple[int, int], ...], ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.rhs):
            raise ValueError("row count and rhs count differ")
        for row in self.coeffs:
            last = -1
            for j, c in row:
                if not last < j < self.nvars:
                    raise ValueError("row columns must increase within 0..nvars-1")
                if c == 0:
                    raise ValueError(f"column {j} has a zero coefficient")
                last = j


@dataclass(frozen=True)
class FeasiblePoint:
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Farkas-style refutation of an equality system with 0..1 bounds."""

    row_multipliers: tuple[Fraction, ...]
    upper_multipliers: tuple[Fraction, ...]
    lower_multipliers: tuple[Fraction, ...]
    gap: Fraction


def verify_point(sys: LinearSystem, point: FeasiblePoint) -> bool:
    """Check a candidate point against every row and bound, exactly."""
    if len(point.values) != sys.nvars:
        return False
    for v in point.values:
        if not 0 <= v <= 1:
            return False
    for row, b in zip(sys.coeffs, sys.rhs):
        if sum((c * point.values[j] for j, c in row), start=Fraction(0)) != b:
            return False
    return True


def _transposed_product(sys: LinearSystem, y: tuple) -> list[Fraction]:
    """``y^T A`` as one exact value per variable, over the nonzeros only."""
    combo = [Fraction(0)] * sys.nvars
    for yi, row in zip(y, sys.coeffs):
        if yi:
            for j, c in row:
                combo[j] += yi * c
    return combo


def verify_certificate(sys: LinearSystem, cert: InfeasibilityCertificate) -> bool:
    """Check an infeasibility certificate by direct arithmetic."""
    y, w, z = cert.row_multipliers, cert.upper_multipliers, cert.lower_multipliers
    if len(y) != len(sys.coeffs) or len(w) != sys.nvars or len(z) != sys.nvars:
        return False
    if any(wj < 0 for wj in w) or any(zj < 0 for zj in z):
        return False
    if any(c != wj - zj for c, wj, zj in zip(_transposed_product(sys, y), w, z)):
        return False
    gap = sum((yi * bi for yi, bi in zip(y, sys.rhs)), start=Fraction(0)) - sum(
        w, start=Fraction(0)
    )
    return gap == cert.gap and gap > 0


@dataclass
class _PivotRow:
    """An eliminated row: ``v[pivot] + sum(coef[j] * v[j]) = rhs``.

    ``coef`` holds free columns only, never another row's pivot, and
    ``combo`` maps original row indices to the multipliers that produce
    this row from them.
    """

    coef: dict[int, Fraction]
    rhs: Fraction
    combo: dict[int, Fraction]


def _add_scaled(
    target: dict[int, Fraction], f: Fraction, source: Mapping[int, Fraction]
) -> None:
    """``target += f * source`` on sparse vectors, dropping cancelled keys."""
    for k, c in source.items():
        v = target.get(k, 0) + f * c
        if v:
            target[k] = v
        else:
            del target[k]


def solve_exact(
    sys: LinearSystem,
) -> Union[FeasiblePoint, InfeasibilityCertificate]:
    """Decide feasibility exactly; the answer is verified before returning.

    Eliminates the rows in order, pivoting on the largest column index of
    each new row, then runs :func:`_phase_one` on the rows that keep free
    columns and lifts its outcome back to ``sys``.  Deterministic
    throughout.  Raises ``RuntimeError`` if the lifted outcome fails
    :func:`verify_point` or :func:`verify_certificate` on ``sys``.
    """
    pivots: dict[int, _PivotRow] = {}
    # free column -> pivot columns whose row holds it
    occurs: dict[int, set[int]] = {}
    for i, (coeffs, b) in enumerate(zip(sys.coeffs, sys.rhs)):
        coef = {j: Fraction(c) for j, c in coeffs}
        rhs = Fraction(b)
        used = []
        for p in [j for j in coef if j in pivots]:
            f = coef.pop(p)
            _add_scaled(coef, -f, pivots[p].coef)
            rhs -= f * pivots[p].rhs
            used.append((f, pivots[p]))
        if not coef and rhs == 0:
            continue
        combo = {i: Fraction(1)}
        for f, row in used:
            _add_scaled(combo, -f, row.combo)
        if not coef:
            # 0 = rhs: the combination alone refutes the system
            sign = 1 if rhs > 0 else -1
            y = {k: sign * c for k, c in combo.items()}
            return _checked_certificate(sys, y, {}, {}, abs(rhs))
        q = max(coef)
        a = coef.pop(q)
        new = _PivotRow(
            {j: c / a for j, c in coef.items()},
            rhs / a,
            {k: c / a for k, c in combo.items()},
        )
        for p in occurs.pop(q, ()):
            row = pivots[p]
            f = row.coef.pop(q)
            _add_scaled(row.coef, -f, new.coef)
            for j in new.coef:
                if j in row.coef:
                    occurs.setdefault(j, set()).add(p)
                else:
                    occurs[j].discard(p)
            row.rhs -= f * new.rhs
            _add_scaled(row.combo, -f, new.combo)
        pivots[q] = new
        for j in new.coef:
            occurs.setdefault(j, set()).add(q)

    values = [Fraction(0)] * sys.nvars
    for p, row in pivots.items():
        if row.coef:
            continue
        # the row pins v[p] = rhs; outside the box one bound refutes it
        if row.rhs > 1:
            return _checked_certificate(
                sys, row.combo, {p: Fraction(1)}, {}, row.rhs - 1
            )
        if row.rhs < 0:
            y = {k: -c for k, c in row.combo.items()}
            return _checked_certificate(sys, y, {}, {p: Fraction(1)}, -row.rhs)
        values[p] = row.rhs

    linked = [(p, row) for p, row in pivots.items() if row.coef]
    if linked:
        reduced, cols, scales = _reduced_system(linked)
        outcome = _phase_one(reduced)
        if isinstance(outcome, InfeasibilityCertificate):
            y = {}
            for yr, scale, (_, row) in zip(
                outcome.row_multipliers, scales, linked
            ):
                if yr:
                    _add_scaled(y, yr * scale, row.combo)
            w = dict(zip(cols, outcome.upper_multipliers))
            z = dict(zip(cols, outcome.lower_multipliers))
            return _checked_certificate(sys, y, w, z, outcome.gap)
        for c, v in zip(cols, outcome.values):
            values[c] = v

    point = FeasiblePoint(tuple(values))
    if not verify_point(sys, point):
        raise RuntimeError("solver produced an invalid feasible point")
    return point


def _reduced_system(
    linked: list[tuple[int, _PivotRow]],
) -> tuple[LinearSystem, list[int], list[Fraction]]:
    """The linked rows as a system over only the columns they touch.

    Each row is scaled to coprime integer coefficients.  Returns the
    system, the original column of each of its variables, and the scale of
    each row, so that reduced row r is ``scales[r]`` times ``linked[r]``.
    """
    cols = sorted({p for p, _ in linked} | {j for _, r in linked for j in r.coef})
    at = {c: k for k, c in enumerate(cols)}
    coeffs: list[tuple[tuple[int, int], ...]] = []
    rhs: list[Fraction] = []
    scales: list[Fraction] = []
    for p, row in linked:
        full = {p: Fraction(1), **row.coef}
        den = lcm(*(c.denominator for c in full.values()))
        ints = {j: c.numerator * (den // c.denominator) for j, c in full.items()}
        g = gcd(*ints.values())
        coeffs.append(tuple(sorted((at[j], c // g) for j, c in ints.items())))
        scales.append(Fraction(den, g))
        rhs.append(row.rhs * scales[-1])
    return LinearSystem(len(cols), tuple(coeffs), tuple(rhs)), cols, scales


def _checked_certificate(
    sys: LinearSystem,
    y: Mapping[int, Fraction],
    w: Mapping[int, Fraction],
    z: Mapping[int, Fraction],
    gap: Fraction,
) -> InfeasibilityCertificate:
    """Densify sparse multipliers and verify them against ``sys``."""
    zero = Fraction(0)
    cert = InfeasibilityCertificate(
        tuple(y.get(i, zero) for i in range(len(sys.coeffs))),
        tuple(w.get(j, zero) for j in range(sys.nvars)),
        tuple(z.get(j, zero) for j in range(sys.nvars)),
        gap,
    )
    if not verify_certificate(sys, cert):
        raise RuntimeError("solver produced an invalid infeasibility certificate")
    return cert


def _phase_one(
    sys: LinearSystem,
) -> Union[FeasiblePoint, InfeasibilityCertificate]:
    """Sparse phase-one simplex on the standard form of ``sys``.

    Adds a slack per upper bound and an artificial per row.  The tableau
    holds nonzeros only: each row is a ``{column: value}`` dict beside its
    right-hand side, the reduced-cost row is one too, and an index lists
    the rows that hold each column, so a pivot reads and writes only the
    entries it changes.  Bland's rule picks the smallest column with a
    negative reduced cost to enter and breaks ratio ties by the smallest
    basic index.  The outcome is not verified here; :func:`solve_exact`
    checks it after lifting.
    """
    m = len(sys.coeffs)
    n = sys.nvars
    nstruct = 2 * n  # variables then their upper-bound slacks
    one = Fraction(1)

    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    flips: list[int] = []
    for coeffs, b in zip(sys.coeffs, sys.rhs):
        flip = -1 if b < 0 else 1
        rows.append({j: Fraction(flip * c) for j, c in coeffs})
        rhs.append(flip * Fraction(b))
        flips.append(flip)
    for j in range(n):
        rows.append({j: one, n + j: one})
        rhs.append(one)

    # Reduced-cost row for the phase-one objective (sum of artificials),
    # relative to the all-artificial starting basis: minus each column's
    # sum.  An artificial column's own 1 cancels its unit cost, so the
    # artificials join the rows only after this pass.
    cost: dict[int, Fraction] = {}
    for row in rows:
        _add_scaled(cost, -one, row)
    cost_rhs = -sum(rhs, start=Fraction(0))
    holders: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        row[nstruct + r] = one
        for k in row:
            holders.setdefault(k, set()).add(r)
    basis = [nstruct + r for r in range(len(rows))]

    while True:
        enter = min((j for j, c in cost.items() if c < 0), default=None)
        if enter is None:
            break
        leave = min(
            (r for r in holders[enter] if rows[r][enter] > 0),
            key=lambda r: (rhs[r] / rows[r][enter], basis[r]),
            default=None,
        )
        if leave is None:
            raise RuntimeError(
                "phase-one objective unbounded below; the tableau is corrupt"
            )
        pivot_row = rows[leave]
        piv = pivot_row[enter]
        for k in pivot_row:
            pivot_row[k] /= piv
        rhs[leave] /= piv
        b = rhs[leave]
        for r in holders[enter] - {leave}:
            row = rows[r]
            f = row[enter]
            _add_scaled(row, -f, pivot_row)
            for k in pivot_row:
                if k in row:
                    holders[k].add(r)
                else:
                    holders[k].discard(r)
            rhs[r] -= f * b
        f = cost[enter]
        _add_scaled(cost, -f, pivot_row)
        cost_rhs -= f * b
        basis[leave] = enter

    if cost_rhs == 0:
        values = [Fraction(0)] * n
        for r, j in enumerate(basis):
            if j < n:
                values[j] = rhs[r]
        return FeasiblePoint(tuple(values))

    # Duals from the artificial columns: the reduced cost of artificial r
    # is 1 - y_r, so y_r reads off the final cost row directly.
    y = [one - cost.get(nstruct + r, 0) for r in range(len(rows))]
    row_mult = tuple(flips[i] * y[i] for i in range(m))
    upper = tuple(-y[m + j] for j in range(n))
    combo = _transposed_product(sys, row_mult)
    lower = tuple(u - c for u, c in zip(upper, combo))
    return InfeasibilityCertificate(row_mult, upper, lower, -cost_rhs)
