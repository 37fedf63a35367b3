"""Exact rational feasibility for equality systems with 0..1 bounds.

The single problem shape handled here is: find v with A v = b and
0 <= v_j <= 1, exactly, with no floats and no tolerances.  Each row of A
lists only its nonzero ``(column, coefficient)`` pairs, and every step
reads them as they are.  Inside the solver every row is kept as integers,
a positive multiple of the rational row it stands for, and is divided by
the gcd of its entries after each update (fraction-free elimination);
``fractions.Fraction`` appears only in what leaves the solver, point
values, certificate multipliers and the gap.  Their verification brings
them to one common denominator and checks in integers.
:func:`solve_exact` decides it in three steps:

1. Eliminate.  Sparse exact Gauss-Jordan runs over the rows in order,
   cross-multiplying where a rational solver would divide.  Each kept row
   remembers which integer combination of the original rows it is.
   A row that reduces to ``0 = 0`` is redundant and dropped; one that
   reduces to ``0 = c`` with ``c != 0`` is already a refutation, and so is
   a row that pins a single variable outside [0, 1].
2. Reduced phase one.  The rows that still link a pivot variable to free
   variables form a much smaller system over only the columns they touch.
   A phase-one simplex decides it: one slack per upper bound, one
   artificial per row, Bland's rule throughout, so it terminates without
   any numerical tolerance.  Its tableau holds nonzero integers only, and
   a pivot touches only the rows that hold the entering column.
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
:func:`verify_certificate` checks exactly that, in integers, independent
of how the multipliers were produced.  ``solve_exact`` re-verifies every
outcome against the original, unreduced system before returning, so a
bug in the elimination, the pivoting or the lifting can not surface as a
wrong answer, only as a loud failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import sub
from typing import Mapping, Union


@dataclass(frozen=True)
class LinearSystem:
    """Equality rows over ``nvars`` variables, each bounded to [0, 1].

    ``coeffs[i]`` lists the nonzero entries of row ``i`` as ``(column,
    coefficient)`` pairs, int coefficients, columns strictly increasing;
    a column that is absent has coefficient 0.  ``rhs[i]`` is that row's
    right-hand side, an int or a ``Fraction``.  ``__post_init__`` checks
    one right-hand side per row, increasing columns in ``range(nvars)``
    and nonzero coefficients, raising ``ValueError`` otherwise.  No
    entry's type is checked, as every ``state_system`` call would pay for
    it: a float or ``Fraction`` coefficient fails in :func:`solve_exact`
    with a ``TypeError``, a float right-hand side with an
    ``AttributeError``.
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
    """Check a candidate point against every row and bound, exactly.

    The values are brought to one common denominator ``D``, so every check
    is in integers: ``0 <= v_j D <= D`` per variable and
    ``sum(c v_j D) = b D`` per row.
    """
    if len(point.values) != sys.nvars:
        return False
    den = lcm(*(v.denominator for v in point.values))
    nums = [v.numerator * (den // v.denominator) for v in point.values]
    return all(0 <= v <= den for v in nums) and all(
        sum(c * nums[j] for j, c in row) * b.denominator == b.numerator * den
        for row, b in zip(sys.coeffs, sys.rhs)
    )


def _transposed_product(sys: LinearSystem, y: tuple) -> list[Fraction]:
    """``y^T A`` as one exact value per variable, over the nonzeros only."""
    combo = [Fraction(0)] * sys.nvars
    for yi, row in zip(y, sys.coeffs):
        if yi:
            for j, c in row:
                combo[j] += yi * c
    return combo


def verify_certificate(sys: LinearSystem, cert: InfeasibilityCertificate) -> bool:
    """Check an infeasibility certificate by direct arithmetic, in integers.

    Every multiplier and the gap must be exactly an int or a ``Fraction``,
    so not a bool or a float; anything else fails the check.  As in
    :func:`verify_point`, they are brought to one common denominator
    ``D``, and the right-hand sides to their own, ``B``, so every check is
    in integers: ``w D, z D >= 0``, ``(y^T A D)_j = w_j D - z_j D`` per
    variable, ``gap D > 0`` and ``(y^T b D) B = (gap D + sum(w D)) B``.
    """
    y, w, z = cert.row_multipliers, cert.upper_multipliers, cert.lower_multipliers
    if len(y) != len(sys.coeffs) or len(w) != sys.nvars or len(z) != sys.nvars:
        return False
    given = (*y, *w, *z, cert.gap)
    if not {*map(type, given)} <= {int, Fraction}:
        return False
    den = lcm(*{q.denominator for q in given})

    def scaled(v: int | Fraction) -> int:
        return v.numerator * (den // v.denominator)

    ws, zs = [*map(scaled, w)], [*map(scaled, z)]
    if any(v < 0 for v in ws) or any(v < 0 for v in zs):
        return False
    scaled_y = [(scaled(yi), i) for i, yi in enumerate(y) if yi]
    combo = [0] * sys.nvars
    for yi, i in scaled_y:
        for j, c in sys.coeffs[i]:
            combo[j] += yi * c
    if combo != [*map(sub, ws, zs)]:
        return False
    gap = scaled(cert.gap)
    rhs_den = lcm(*{b.denominator for b in sys.rhs})
    yb = sum(
        yi * sys.rhs[i].numerator * (rhs_den // sys.rhs[i].denominator)
        for yi, i in scaled_y
    )
    return gap > 0 and yb == (gap + sum(ws)) * rhs_den


def _cross(t: dict, m: int, f: int | Fraction, s: Mapping) -> None:
    """``t := m * t - f * s`` on sparse vectors, dropping zeros."""
    if m != 1:
        for k in t:
            t[k] *= m
    for k, c in s.items():
        v = t.get(k, 0) - f * c
        if v:
            t[k] = v
        else:
            del t[k]


def _reduce(heads: tuple[int, ...], *vectors: dict[int, int]) -> list[int]:
    """Divide ``heads`` and ``vectors`` by the gcd of all their entries.

    The gcd takes the sign of ``heads[0]``, so that entry comes out positive.
    Returns the divided heads; the vectors are divided in place.
    """
    g = gcd(*heads)
    for t in vectors:
        g = gcd(g, *t.values()) if g > 1 else g
    g = -g if heads[0] < 0 else g
    if g != 1:
        for t in vectors:
            for k in t:
                t[k] //= g
    return [h // g for h in heads]


def solve_exact(
    sys: LinearSystem,
) -> Union[FeasiblePoint, InfeasibilityCertificate]:
    """Decide feasibility exactly; the answer is verified before returning.

    Eliminates the rows in order, pivoting on the largest column index of
    each new row, then runs :func:`_phase_one` on the rows that keep free
    columns and lifts its outcome back to ``sys``.  Deterministic
    throughout.  Raises ``RuntimeError`` if the lifted outcome fails
    :func:`verify_point` or :func:`verify_certificate` on ``sys``.

    ``pivots`` maps a pivot column p to ``(a, coef, rhs, combo)``, all
    integers: the row ``a*v[p] + sum(coef[j]*v[j]) = rhs`` with ``a > 0``
    and ``coef`` over free columns only, which is ``sum(combo[k] * row k)``
    of ``sys``.  Eliminating a pivot cross-multiplies, ``row := a*row -
    f*pivot_row``, and a kept row is divided by the gcd of its entries.
    """
    pivots: dict[int, tuple[int, dict[int, int], int, dict[int, int]]] = {}
    # free column -> pivot columns whose row holds it
    occurs: dict[int, set[int]] = {}
    for i, (coeffs, b) in enumerate(zip(sys.coeffs, sys.rhs)):
        d = b.denominator
        coef = {j: d * c for j, c in coeffs}
        rhs = b.numerator
        used = []
        for p in [j for j in coef if j in pivots]:
            a, pcoef, prhs, pcombo = pivots[p]
            f = coef.pop(p)
            _cross(coef, a, f, pcoef)
            rhs = a * rhs - f * prhs
            used.append((a, f, pcombo))
        if not coef and rhs == 0:
            continue
        combo = {i: d}
        for a, f, pcombo in used:
            _cross(combo, a, f, pcombo)
        if not coef:
            # 0 = rhs: the combination alone refutes the system; over
            # combo[i] > 0, signed as rhs, it takes row i once
            s = combo[i] if rhs > 0 else -combo[i]
            return _checked_certificate(sys, combo, {}, {}, rhs, s)
        q = max(coef)
        a, rhs = _reduce((coef.pop(q), rhs), coef, combo)
        for p in occurs.pop(q, ()):
            pa, pcoef, prhs, pcombo = pivots[p]
            f = pcoef.pop(q)
            _cross(pcoef, a, f, coef)
            for j in coef:
                if j in pcoef:
                    occurs.setdefault(j, set()).add(p)
                else:
                    occurs[j].discard(p)
            _cross(pcombo, a, f, combo)
            pa, prhs = _reduce((a * pa, a * prhs - f * rhs), pcoef, pcombo)
            pivots[p] = (pa, pcoef, prhs, pcombo)
        pivots[q] = (a, coef, rhs, combo)
        for j in coef:
            occurs.setdefault(j, set()).add(q)

    values = [Fraction(0)] * sys.nvars
    for p, (a, coef, rhs, combo) in pivots.items():
        if coef:
            continue
        # the row pins v[p] = rhs / a; outside the box one bound refutes it
        if rhs > a:
            return _checked_certificate(sys, combo, {p: a}, {}, rhs - a, a)
        if rhs < 0:
            return _checked_certificate(sys, combo, {}, {p: -a}, rhs, -a)
        values[p] = Fraction(rhs, a)

    linked = [(p, row) for p, row in pivots.items() if row[1]]
    if linked:
        reduced, cols, divisors = _reduced_system(linked)
        outcome = _phase_one(reduced)
        if isinstance(outcome, InfeasibilityCertificate):
            y: dict[int, Fraction] = {}
            for yr, g, (_, row) in zip(outcome.row_multipliers, divisors, linked):
                if yr:
                    _cross(y, 1, -yr / g, row[3])
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
    linked: list[tuple[int, tuple[int, dict[int, int], int, dict[int, int]]]],
) -> tuple[LinearSystem, list[int], list[int]]:
    """The linked rows as a system over only the columns they touch.

    Each row is divided by the gcd of its coefficients, leaving coprime
    integers with a positive pivot coefficient.  Returns the system, the
    original column of each of its variables, and the divisor of each
    row, so that reduced row r is ``linked[r]`` over ``divisors[r]``.
    """
    cols = sorted({p for p, _ in linked} | {j for _, r in linked for j in r[1]})
    at = {c: k for k, c in enumerate(cols)}
    coeffs: list[tuple[tuple[int, int], ...]] = []
    rhs: list[Fraction] = []
    divisors: list[int] = []
    for p, (a, coef, b, _) in linked:
        g = gcd(a, *coef.values())
        full = [(at[p], a // g), *((at[j], c // g) for j, c in coef.items())]
        coeffs.append(tuple(sorted(full)))
        rhs.append(Fraction(b, g))
        divisors.append(g)
    return LinearSystem(len(cols), tuple(coeffs), tuple(rhs)), cols, divisors


def _checked_certificate(
    sys: LinearSystem,
    y: Mapping[int, int | Fraction],
    w: Mapping[int, int | Fraction],
    z: Mapping[int, int | Fraction],
    gap: int | Fraction,
    den: int = 1,
) -> InfeasibilityCertificate:
    """Densify sparse multipliers, divide all by ``den``, verify on ``sys``."""
    zero = Fraction(0)

    def dense(v: Mapping[int, int | Fraction], size: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(v[k], den) if k in v else zero for k in range(size))

    cert = InfeasibilityCertificate(
        dense(y, len(sys.coeffs)),
        dense(w, sys.nvars),
        dense(z, sys.nvars),
        Fraction(gap, den),
    )
    if not verify_certificate(sys, cert):
        raise RuntimeError("solver produced an invalid infeasibility certificate")
    return cert


def _phase_one(
    sys: LinearSystem,
) -> Union[FeasiblePoint, InfeasibilityCertificate]:
    """Sparse phase-one simplex on the standard form of ``sys``.

    Adds a slack per upper bound and an artificial per row.  The tableau
    holds nonzero integers only: each row is a ``{column: value}`` dict
    beside its right-hand side, a positive multiple of the usual row whose
    basic coefficient is 1 (row i of ``sys`` starts as itself times its
    rhs denominator, sign-flipped so the rhs is not negative); the
    reduced-cost row is one too, over one positive ``scale``; and an index
    lists the rows that hold each column, so a pivot reads and writes only
    the rows it changes.  Bland's rule picks the smallest column with a
    negative reduced cost to enter; the ratio test compares ``rhs/coef``
    by cross-multiplying and breaks ties by the smallest basic index.  A
    pivot computes ``piv*row - f*pivot_row`` and divides by the gcd.  The
    outcome is not verified here; :func:`solve_exact` checks it after
    lifting.
    """
    m = len(sys.coeffs)
    n = sys.nvars
    nstruct = 2 * n  # variables then their upper-bound slacks

    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    for coeffs, b in zip(sys.coeffs, sys.rhs):
        d = -b.denominator if b < 0 else b.denominator
        rows.append({j: d * c for j, c in coeffs})
        rhs.append(abs(b.numerator))
    for j in range(n):
        rows.append({j: 1, n + j: 1})
        rhs.append(1)
    dens = [b.denominator for b in sys.rhs] + [1] * n

    # Reduced-cost row for the phase-one objective (sum of artificials),
    # relative to the all-artificial starting basis: minus each column's
    # sum, over the lcm of the rows' scales.  An artificial column's own
    # entry cancels its unit cost, so the artificials join the rows only
    # after this pass.
    scale = lcm(*dens)
    cost: dict[int, int] = {}
    cost_rhs = 0
    for row, b, d in zip(rows, rhs, dens):
        _cross(cost, 1, scale // d, row)
        cost_rhs -= scale // d * b
    holders: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        row[nstruct + r] = dens[r]
        for k in row:
            holders.setdefault(k, set()).add(r)
    basis = [nstruct + r for r in range(len(rows))]

    while True:
        enter = min((j for j, c in cost.items() if c < 0), default=None)
        if enter is None:
            break
        ratios = [(r, rows[r][enter]) for r in holders[enter] if rows[r][enter] > 0]
        if not ratios:
            raise RuntimeError(
                "phase-one objective unbounded below; the tableau is corrupt"
            )
        leave, lc = ratios[0]
        for r, c in ratios[1:]:
            if (rhs[r] * lc, basis[r]) < (rhs[leave] * c, basis[leave]):
                leave, lc = r, c
        pivot_row = rows[leave]
        piv = pivot_row[enter]
        b = rhs[leave]
        for r in holders[enter] - {leave}:
            row = rows[r]
            f = row[enter]
            _cross(row, piv, f, pivot_row)
            for k in pivot_row:
                if k in row:
                    holders[k].add(r)
                else:
                    holders[k].discard(r)
            _, rhs[r] = _reduce((row[basis[r]], piv * rhs[r] - f * b), row)
        f = cost[enter]
        _cross(cost, piv, f, pivot_row)
        scale, cost_rhs = _reduce((piv * scale, piv * cost_rhs - f * b), cost)
        basis[leave] = enter

    if cost_rhs == 0:
        values = [Fraction(0)] * n
        for r, j in enumerate(basis):
            if j < n:
                values[j] = Fraction(rhs[r], rows[r][j])
        return FeasiblePoint(tuple(values))

    # Duals from the artificial columns: the reduced cost of artificial r
    # is 1 - y_r, so y_r reads off the final cost row directly.
    y = [1 - Fraction(cost.get(nstruct + r, 0), scale) for r in range(len(rows))]
    row_mult = tuple(-yi if b < 0 else yi for yi, b in zip(y, sys.rhs))
    upper = tuple(-y[m + j] for j in range(n))
    combo = _transposed_product(sys, row_mult)
    lower = tuple(u - c for u, c in zip(upper, combo))
    return InfeasibilityCertificate(row_mult, upper, lower, Fraction(-cost_rhs, scale))
