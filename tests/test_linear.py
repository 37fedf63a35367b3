"""Exact feasibility by presolve and simplex, with self-verifying outcomes."""

from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effalg import (
    FeasiblePoint,
    InfeasibilityCertificate,
    LinearSystem,
    boolean_algebra,
    bundled_fixture,
    direct_product,
    horizontal_sum,
    linear,
    mv_chain,
    solve_exact,
    state_system,
    verify_certificate,
    verify_point,
)
from effalg.linear import _phase_one
from oracles import (
    dense_phase_one,
    fraction_solve_exact,
    fraction_verify_certificate,
    fraction_verify_point,
)


def pairs(row):
    """A dense coefficient list as the sparse ``(column, coefficient)`` row."""
    return tuple((j, c) for j, c in enumerate(row) if c)


def sys_of(coeffs, rhs):
    nvars = len(coeffs[0]) if coeffs else 0
    return LinearSystem(
        nvars,
        tuple(pairs(row) for row in coeffs),
        tuple(F(b) for b in rhs),
    )


def test_single_variable_pinned():
    s = sys_of([[1]], [F(1, 3)])
    out = solve_exact(s)
    assert isinstance(out, FeasiblePoint)
    assert out.values == (F(1, 3),)


@pytest.mark.parametrize(
    "coeffs, rhs",
    [
        ((((0, 1),),), (F(0), F(1))),
        ((((2, 1),),), (F(0),)),
        ((((-1, 1),),), (F(0),)),
        ((((0, 1), (0, 2)),), (F(0),)),
        ((((1, 1), (0, 2)),), (F(0),)),
        ((((0, 1), (1, 0)),), (F(0),)),
    ],
    ids=[
        "row-count-differs-from-rhs",
        "column-past-the-last",
        "negative-column",
        "repeated-column",
        "columns-out-of-order",
        "zero-coefficient",
    ],
)
def test_shapes_are_checked(coeffs, rhs):
    with pytest.raises(ValueError):
        LinearSystem(2, coeffs, rhs)


def test_out_of_box_rhs_is_infeasible():
    out = solve_exact(sys_of([[1]], [F(3, 2)]))
    assert isinstance(out, InfeasibilityCertificate)
    assert verify_certificate(sys_of([[1]], [F(3, 2)]), out)


def test_conflicting_rows_are_infeasible():
    s = sys_of([[1, 1], [1, 1]], [F(1, 2), F(3, 4)])
    out = solve_exact(s)
    assert isinstance(out, InfeasibilityCertificate)
    assert out.gap > 0
    assert verify_certificate(s, out)


def test_negative_requirement_is_infeasible():
    # x + y = -1 cannot hold with 0 <= x, y <= 1
    s = sys_of([[1, 1]], [F(-1)])
    out = solve_exact(s)
    assert isinstance(out, InfeasibilityCertificate)
    assert verify_certificate(s, out)


def test_feasible_two_variable_system():
    s = sys_of([[1, 1], [1, -1]], [1, 0])
    out = solve_exact(s)
    assert isinstance(out, FeasiblePoint)
    assert out.values == (F(1, 2), F(1, 2))


def test_verify_point_checks_bounds_and_rows():
    s = sys_of([[1, 1]], [1])
    assert verify_point(s, FeasiblePoint((F(1, 2), F(1, 2))))
    assert not verify_point(s, FeasiblePoint((F(2), F(-1))))
    assert not verify_point(s, FeasiblePoint((F(1, 4), F(1, 4))))
    assert not verify_point(s, FeasiblePoint((F(1),)))
    assert not verify_point(s, FeasiblePoint((F(1), F(0), F(0))))
    # x - y = 1/2 holds at each point; only one bound breaks
    s = sys_of([[1, -1]], [F(1, 2)])
    assert verify_point(s, FeasiblePoint((F(1), F(1, 2))))
    assert not verify_point(s, FeasiblePoint((F(3, 2), F(1))))
    assert not verify_point(s, FeasiblePoint((F(0), F(-1, 2))))


def test_tampered_certificate_is_rejected():
    s = sys_of([[1, 1], [1, 1]], [F(1, 2), F(3, 4)])
    cert = solve_exact(s)
    assert isinstance(cert, InfeasibilityCertificate)
    crooked = InfeasibilityCertificate(
        cert.row_multipliers,
        cert.upper_multipliers,
        cert.lower_multipliers,
        cert.gap + 1,
    )
    assert not verify_certificate(s, crooked)
    # x - y = 3/2 is out of reach: y = (1), w = (1, 0), z = (0, 1) give
    # yA = w - z and the gap 3/2 - 1.  Each tampered copy below breaks
    # exactly one of the checks and passes the others.
    s = sys_of([[1, -1]], [F(3, 2)])
    good = InfeasibilityCertificate((F(1),), (F(1), F(0)), (F(0), F(1)), F(1, 2))
    assert verify_certificate(s, good)
    tampered = {
        "row multipliers of the wrong length": replace(
            good, row_multipliers=(F(1), F(0))
        ),
        "upper multipliers of the wrong length": replace(
            good, upper_multipliers=(F(1),)
        ),
        "lower multipliers of the wrong length": replace(
            good, lower_multipliers=(F(0), F(1), F(0))
        ),
        # w - z = (1, -1) and the gap 3/2 hold; w is negative
        "a negative w": InfeasibilityCertificate(
            (F(1),), (F(1), F(-1)), (F(0), F(0)), F(3, 2)
        ),
        # w - z = (1, -1) and the gap 3/2 hold; z is negative
        "a negative z": InfeasibilityCertificate(
            (F(1),), (F(0), F(0)), (F(-1), F(1)), F(3, 2)
        ),
        # w - z = (1, 0) differs from yA = (1, -1); the gap 1/2 holds
        "yA != w - z": replace(good, lower_multipliers=(F(0), F(0))),
        # y = 0 and w = z = 0: yA = w - z, and the gap is 0, as stated
        "a gap of 0": InfeasibilityCertificate(
            (F(0),), (F(0), F(0)), (F(0), F(0)), F(0)
        ),
    }
    for kind, cert in tampered.items():
        assert not verify_certificate(s, cert), kind


def test_multipliers_that_are_not_exact_rationals_fail_the_check():
    # the certificate of x - y = 3/2 above, with one entry a float or a
    # bool of the same value each time; before, a float gap compared equal
    # and a bool was read as an int
    s = sys_of([[1, -1]], [F(3, 2)])
    good = InfeasibilityCertificate((F(1),), (F(1), F(0)), (F(0), F(1)), F(1, 2))
    assert verify_certificate(s, good)
    assert verify_certificate(s, InfeasibilityCertificate((1,), (1, 0), (0, 1), F(1, 2)))
    inexact = {
        "a float row multiplier": replace(good, row_multipliers=(1.0,)),
        "a bool upper multiplier": replace(good, upper_multipliers=(True, F(0))),
        "a bool lower multiplier": replace(good, lower_multipliers=(False, 1)),
        "a float gap": replace(good, gap=0.5),
        "a string gap": replace(good, gap="1/2"),
    }
    for kind, cert in inexact.items():
        assert not verify_certificate(s, cert), kind
        assert not fraction_verify_certificate(s, cert), kind


def test_empty_system_is_feasible():
    s = LinearSystem(2, (), ())
    out = solve_exact(s)
    assert isinstance(out, FeasiblePoint)
    assert len(out.values) == 2


# Each infeasible input names the shape its certificate must have:
# "rows" uses row multipliers only, "upper"/"lower" exactly one bound
# multiplier of that side, "bounds" at least one bound multiplier.
INFEASIBLE = {
    # x + y = 1/2 and x + y = 3/4: the second row reduces to 0 = 1/4
    "inconsistent-equality": ([[1, 1], [1, 1]], [F(1, 2), F(3, 4)], "rows"),
    # x - y = 1 and y = 1/2 pin x at 3/2
    "forced-above-one": ([[1, -1], [0, 1]], [1, F(1, 2)], "upper"),
    # x + y = 1/2 and y = 1 pin x at -1/2
    "forced-below-zero": ([[1, 1], [0, 1]], [F(1, 2), 1], "lower"),
    # x + y = 5/2 keeps a free parameter; z is pinned at 0 and the third
    # row is the sum of the first two, so elimination drops it
    "reduced-lp-with-free-parameter": (
        [[1, 1, 0], [0, 0, 1], [1, 1, 1]],
        [F(5, 2), 0, F(5, 2)],
        "bounds",
    ),
}


@pytest.mark.parametrize("name", sorted(INFEASIBLE))
def test_presolve_infeasible_outcomes(name):
    coeffs, rhs, shape = INFEASIBLE[name]
    s = sys_of(coeffs, rhs)
    out = solve_exact(s)
    assert isinstance(out, InfeasibilityCertificate)
    assert verify_certificate(s, out)
    uppers = [w for w in out.upper_multipliers if w != 0]
    lowers = [z for z in out.lower_multipliers if z != 0]
    if shape == "rows":
        assert not uppers and not lowers
    elif shape == "upper":
        assert len(uppers) == 1 and not lowers
    elif shape == "lower":
        assert not uppers and len(lowers) == 1
    else:
        assert uppers or lowers


# Feasible inputs, with the point when the rows force it.
FEASIBLE = {
    # a ladder pins every variable: x = 1/3, y = 2x, z = 3x
    "no-free-parameter": (
        [[1, 0, 0], [-2, 1, 0], [-3, 0, 1]],
        [F(1, 3), 0, 0],
        (F(1, 3), F(2, 3), F(1)),
    ),
    "several-free-parameters": (
        [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]],
        [F(3, 2), F(1, 2)],
        None,
    ),
    "free-parameter-needs-the-box": ([[1, -1, 0], [0, 1, 1]], [F(1, 2), 1], None),
    "duplicate-rows": ([[1, 1], [1, 1], [1, 1]], [1, 1, 1], None),
    "redundant-rows": (
        [[1, 1, 0], [0, 1, 1], [1, 2, 1], [2, 1, -1]],
        [1, F(1, 2), F(3, 2), F(3, 2)],
        None,
    ),
    "fully-pinned-with-redundancy": (
        [[1, 1], [1, -1], [2, 0], [0, 2]],
        [1, 0, 1, 1],
        (F(1, 2), F(1, 2)),
    ),
}


@pytest.mark.parametrize("name", sorted(FEASIBLE))
def test_presolve_feasible_outcomes(name):
    coeffs, rhs, forced = FEASIBLE[name]
    s = sys_of(coeffs, rhs)
    out = solve_exact(s)
    assert isinstance(out, FeasiblePoint)
    assert verify_point(s, out)
    if forced is not None:
        assert out.values == forced


@st.composite
def small_systems(draw, top=2, den=3):
    """Up to 6 rows over up to 4 variables, coefficients in -top..top and
    rhs p/q with -3 <= p <= 3 and 1 <= q <= den."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    nrows = draw(st.integers(min_value=1, max_value=6))
    coeffs = tuple(
        tuple(
            draw(st.integers(min_value=-top, max_value=top)) for _ in range(nvars)
        )
        for _ in range(nrows)
    )
    rhs = tuple(
        F(draw(st.integers(min_value=-3, max_value=3)),
          draw(st.integers(min_value=1, max_value=den)))
        for _ in range(nrows)
    )
    return LinearSystem(nvars, tuple(pairs(row) for row in coeffs), rhs)


@given(small_systems())
@settings(max_examples=300, deadline=None)
def test_every_outcome_carries_its_own_proof(s):
    out = solve_exact(s)
    if isinstance(out, FeasiblePoint):
        assert verify_point(s, out)
    else:
        assert verify_certificate(s, out)


def _feasible(outcome):
    return isinstance(outcome, FeasiblePoint)


@given(small_systems())
@settings(max_examples=300, deadline=None)
def test_presolve_agrees_with_phase_one_on_the_full_system(s):
    assert _feasible(solve_exact(s)) == _feasible(_phase_one(s))


def test_presolve_agrees_with_phase_one_on_state_systems(corpus):
    fixtures = [
        (name, bundled_fixture(name))
        for name in ("example-2.5", "example-3.7", "example-4.4")
    ]
    for name, E in corpus + fixtures:
        s = state_system(E)
        assert _feasible(solve_exact(s)) == _feasible(_phase_one(s)), name


def _proves(s, outcome):
    if _feasible(outcome):
        return verify_point(s, outcome)
    return verify_certificate(s, outcome)


@given(small_systems())
@settings(max_examples=300, deadline=None)
def test_sparse_phase_one_equals_the_dense_tableau(s):
    out = _phase_one(s)
    assert out == dense_phase_one(s)
    assert _proves(s, out)


def test_sparse_phase_one_equals_the_dense_tableau_on_state_systems(corpus):
    fixtures = [
        (name, bundled_fixture(name))
        for name in ("example-2.5", "example-3.7", "example-4.4")
    ]
    for name, E in corpus + fixtures:
        s = state_system(E)
        out = _phase_one(s)
        assert out == dense_phase_one(s), name
        assert _proves(s, out), name


def test_sparse_phase_one_equals_the_dense_tableau_on_c8xc8(monkeypatch):
    # c8xc8's full system (594 rows) fills the tableau, and phase one on it
    # runs for minutes; solve_exact hands phase one a reduced system, and
    # that is the one compared here.
    handed = []

    def recording(s):
        handed.append(s)
        return _phase_one(s)

    monkeypatch.setattr(linear, "_phase_one", recording)
    solve_exact(state_system(direct_product(mv_chain(7), mv_chain(7))))
    (s,) = handed
    out = _phase_one(s)
    assert out == dense_phase_one(s)
    assert _proves(s, out)


@pytest.mark.parametrize(
    "outcome, message",
    [
        (
            lambda s: FeasiblePoint((F(0),) * s.nvars),
            "solver produced an invalid feasible point",
        ),
        (
            lambda s: InfeasibilityCertificate(
                (F(0),) * len(s.coeffs), (F(0),) * s.nvars, (F(0),) * s.nvars, F(1)
            ),
            "solver produced an invalid infeasibility certificate",
        ),
    ],
    ids=["point", "certificate"],
)
def test_a_wrong_phase_one_outcome_is_caught_after_lifting(
    monkeypatch, outcome, message
):
    shapes = []

    def wrong(s):
        shapes.append((len(s.coeffs), s.nvars))
        return outcome(s)

    monkeypatch.setattr(linear, "_phase_one", wrong)
    with pytest.raises(RuntimeError) as err:
        solve_exact(state_system(boolean_algebra(4)))
    assert shapes == [(11, 14)]
    assert str(err.value) == message


# Coefficients up to 3 and rhs denominators up to 5 give pivots other than
# 1, rows with a common factor and fractional reduced right-hand sides.
@given(small_systems(top=3, den=5))
@settings(max_examples=300, deadline=None)
def test_integer_rows_equal_the_fraction_solver(s):
    assert solve_exact(s) == fraction_solve_exact(s)


def test_integer_rows_equal_the_fraction_solver_on_state_systems(corpus):
    fixtures = [
        (name, bundled_fixture(name))
        for name in ("example-2.5", "example-3.7", "example-4.4")
    ]
    for name, E in corpus + fixtures:
        s = state_system(E)
        assert solve_exact(s) == fraction_solve_exact(s), name


@given(small_systems(top=3, den=5), st.data())
@settings(max_examples=300, deadline=None)
def test_verify_point_equals_the_fraction_check(s, data):
    """Solver points, tampered or not, on feasible systems, and random
    ones on the rest: out of the box, off the rows, or one value too few
    or too many."""
    out = solve_exact(s)
    if _feasible(out):
        values = list(out.values)
        if data.draw(st.booleans()):
            k = data.draw(st.integers(min_value=0, max_value=s.nvars - 1))
            values[k] += F(
                data.draw(st.integers(min_value=-2, max_value=2)),
                data.draw(st.integers(min_value=1, max_value=5)),
            )
    else:
        size = s.nvars + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
        values = [
            F(
                data.draw(st.integers(min_value=-3, max_value=8)),
                data.draw(st.integers(min_value=1, max_value=5)),
            )
            for _ in range(size)
        ]
    point = FeasiblePoint(tuple(values))
    assert verify_point(s, point) == fraction_verify_point(s, point)


def tampered(cert, kind, k, by):
    """``cert`` with entry ``k`` of its multipliers (y, then w, then z)
    moved by ``by``, or its sign flipped, or its gap moved by 1/D, over
    the common denominator D of all its entries."""
    entries = [*cert.row_multipliers, *cert.upper_multipliers, *cert.lower_multipliers]
    if kind == "gap":
        den = lcm(*(F(v).denominator for v in (*entries, cert.gap)))
        return replace(cert, gap=cert.gap + F(1 if by > 0 else -1, den))
    entries[k] = entries[k] + by if kind == "perturb" else -entries[k]
    m, n = len(cert.row_multipliers), len(cert.upper_multipliers)
    return InfeasibilityCertificate(
        tuple(entries[:m]), tuple(entries[m:m + n]), tuple(entries[m + n:]), cert.gap
    )


@given(small_systems(top=3, den=5), st.data())
@settings(max_examples=300, deadline=None)
def test_verify_certificate_equals_the_fraction_check(s, data):
    out = solve_exact(s)
    if _feasible(out):
        return
    assert verify_certificate(s, out) and fraction_verify_certificate(s, out)
    size = len(s.coeffs) + 2 * s.nvars
    kind = data.draw(st.sampled_from(["perturb", "flip", "gap"]))
    k = data.draw(st.integers(0, size - 1))
    by = F(data.draw(st.integers(-2, 2)), data.draw(st.integers(1, 5)))
    cert = tampered(out, kind, k, by)
    assert verify_certificate(s, cert) == fraction_verify_certificate(s, cert)


def test_verify_certificate_equals_the_fraction_check_on_state_systems():
    ex44 = bundled_fixture("example-4.4")
    for E in (ex44, horizontal_sum([ex44, mv_chain(3)]), horizontal_sum([ex44, ex44])):
        s = state_system(E)
        cert = solve_exact(s)
        assert verify_certificate(s, cert) and fraction_verify_certificate(s, cert)
        size = len(s.coeffs) + 2 * s.nvars
        for kind, k, by in [
            *(("perturb", k, F(1, 3)) for k in range(size)),
            *(("flip", k, 0) for k in range(size)),
            ("gap", 0, 1),
            ("gap", 0, -1),
        ]:
            crooked = tampered(cert, kind, k, by)
            expected = fraction_verify_certificate(s, crooked)
            assert verify_certificate(s, crooked) == expected, (kind, k)
            # only a flipped zero leaves the certificate as it was and valid
            assert expected == (crooked == cert), (kind, k)
