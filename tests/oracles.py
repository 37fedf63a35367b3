"""Independent reference computations used to freeze expected values.

Everything here works from the raw sum table alone (dict lookups, no
bitmasks, no imports from the package's order or structure modules) so
test expectations do not inherit bugs from the code under test.  The
solver reference, :func:`dense_phase_one`, keeps the full tableau that
``effalg.linear._phase_one`` stores sparsely.
"""

from fractions import Fraction
from itertools import combinations
from typing import Union

from effalg import FeasiblePoint, InfeasibilityCertificate, LinearSystem
from effalg.linear import _transposed_product


def oracle_axiom_errors(n, zero, one, sums):
    """Check the effect algebra axioms on a symmetric total dict table.

    ``sums`` maps ordered pairs (x, y) to x + y for every defined pair, in
    both orientations, zero rows included.  Returns a list of complaint
    strings; an empty list means the table is a valid effect algebra.
    """
    errors = []
    if zero == one:
        errors.append("zero equals one")
    for x in range(n):
        if sums.get((zero, x)) != x or sums.get((x, zero)) != x:
            errors.append(f"zero row broken at {x}")
    for (x, y), z in sums.items():
        if sums.get((y, x)) != z:
            errors.append(f"commutativity broken at {x},{y}")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                xy = sums.get((x, y))
                yz = sums.get((y, z))
                left = sums.get((xy, z)) if xy is not None else None
                right = sums.get((x, yz)) if yz is not None else None
                if left != right:
                    errors.append(f"associativity broken at {x},{y},{z}")
    for a in range(n):
        mates = [b for b in range(n) if sums.get((a, b)) == one]
        if len(mates) != 1:
            errors.append(f"{a} has {len(mates)} supplements")
    for a in range(n):
        if a != zero and (one, a) in sums:
            errors.append(f"one + {a} is defined")
    return errors


def table_dict(E):
    """The package algebra's table as the oracle's dict shape."""
    return {
        (x, y): E.table[x][y]
        for x in range(E.size)
        for y in range(E.size)
        if E.table[x][y] is not None
    }


def oracle_leq(E):
    """below[x] = set of elements <= x, straight from the table."""
    below = {x: set() for x in range(E.size)}
    for (a, _), b in table_dict(E).items():
        below[b].add(a)
    return below


def oracle_meet(E, x, y):
    below = oracle_leq(E)
    common = below[x] & below[y]
    greatest = [m for m in common if common <= below[m]]
    return greatest[0] if greatest else None


def oracle_join(E, x, y):
    below = oracle_leq(E)
    above_x = {u for u in range(E.size) if x in below[u]}
    above_y = {u for u in range(E.size) if y in below[u]}
    common = above_x & above_y
    least = [j for j in common if all(j in below[u] for u in common)]
    return least[0] if least else None


def oracle_compatible(E, x, y):
    """Compatibility in the usual sense: x = x1 + c and y = y1 + c for some
    x1, y1, c with x1 + y1 + c defined.

    Returns None when the meet or the join of the pair is missing, the case
    in which the package raises instead of answering.
    """
    if oracle_meet(E, x, y) is None or oracle_join(E, x, y) is None:
        return None
    sums = table_dict(E)
    for c in range(E.size):
        for x1 in range(E.size):
            if sums.get((x1, c)) != x:
                continue
            for y1 in range(E.size):
                if sums.get((y1, c)) != y:
                    continue
                t = sums.get((x1, y1))
                if t is not None and (t, c) in sums:
                    return True
    return False


def oracle_sharp(E):
    """Sharp elements: only common lower bound with the supplement is 0."""
    below = oracle_leq(E)
    out = set()
    for x in range(E.size):
        if below[x] & below[E.supplement[x]] == {E.zero}:
            out.add(x)
    return out


def oracle_sharp_bounds(E, x):
    """(least sharp element above x, greatest sharp element below x), each
    None when it does not exist."""
    below = oracle_leq(E)
    sharp = oracle_sharp(E)
    above = [s for s in sharp if x in below[s]]
    under = [s for s in sharp if s in below[x]]
    cover = [s for s in above if all(s in below[t] for t in above)]
    kernel = [s for s in under if all(t in below[s] for t in under)]
    return (cover[0] if cover else None, kernel[0] if kernel else None)


def oracle_atoms(E):
    below = oracle_leq(E)
    return {
        x for x in range(E.size) if x != E.zero and below[x] == {E.zero, x}
    }


def oracle_ord(E, x):
    if x == E.zero:
        return 0
    k, acc = 1, x
    while E.table[acc][x] is not None:
        acc = E.table[acc][x]
        k += 1
    return k


def oracle_multiple(E, x, k):
    """x summed with itself k times from zero, or None once a step is
    undefined."""
    sums = table_dict(E)
    acc = E.zero
    for _ in range(k):
        acc = sums.get((acc, x))
        if acc is None:
            return None
    return acc


def _family_sum(E, parts):
    """Iterated sum of [(atom, k), ...] or None if any step is undefined."""
    acc = E.zero
    for atom, k in parts:
        for _ in range(k):
            acc = E.table[acc][atom]
            if acc is None:
                return None
    return acc


def oracle_proper_families(E):
    """All orthogonal atom-multiple families with every k below the index.

    Returns a dict mapping each reachable sum to the set of frozenset
    part-multisets that produce it.
    """
    atoms = sorted(oracle_atoms(E))
    found = {}

    def grow(idx, parts):
        total = _family_sum(E, parts)
        if total is None:
            return
        if parts:
            found.setdefault(total, set()).add(frozenset(parts))
        for i in range(idx, len(atoms)):
            a = atoms[i]
            for k in range(1, oracle_ord(E, a)):
                grow(i + 1, parts + [(a, k)])

    grow(0, [])
    return found


def oracle_basic_decompositions(E, x):
    """Every (sharp part, proper family) pair that reassembles x.

    The sharp part may be any sharp element, the family any orthogonal
    atom-multiple family with all multiplicities below the isotropic
    index; pairs are found by brute force over both.
    """
    families = oracle_proper_families(E)
    out = set()
    for v in oracle_sharp(E):
        if v == x:
            out.add((v, frozenset()))
        rest_candidates = [
            r for r in range(E.size) if E.table[v][r] == x
        ]
        for r in rest_candidates:
            for parts in families.get(r, set()):
                out.add((v, parts))
    return out


def gaussian_solve(rows, rhs):
    """Solve a linear system exactly; None if inconsistent, else one map.

    ``rows`` is a list of coefficient lists over Fractions (or ints) and
    ``rhs`` the right-hand sides.  Returns (pivots, free) where pivots
    maps variable index to its forced expression value assuming free
    variables are zero, or None when the system has no solution at all.
    Used to re-derive forced state values independently of the simplex.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    piv_cols = []
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, m):
            if a[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][col]
        a[r] = [v / inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [u - factor * v for u, v in zip(a[i], a[r])]
        piv_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if all(v == 0 for v in a[i][:n]) and a[i][n] != 0:
            return None
    values = {}
    for i, col in enumerate(piv_cols):
        if all(a[i][c] == 0 for c in range(n) if c != col):
            values[col] = a[i][n]
    return values


def dense_rows(system):
    """The sparse ``(column, coefficient)`` rows of a system as n-wide lists."""
    out = []
    for row in system.coeffs:
        dense = [0] * system.nvars
        for j, c in row:
            dense[j] = c
        out.append(dense)
    return out


def subsets(iterable, max_size=None):
    items = list(iterable)
    top = len(items) if max_size is None else min(max_size, len(items))
    for size in range(top + 1):
        yield from combinations(items, size)


def dense_phase_one(
    sys: LinearSystem,
) -> Union[FeasiblePoint, InfeasibilityCertificate]:
    """Dense phase-one simplex on the standard form of ``sys``.

    The reference for ``effalg.linear._phase_one``: the same standard form
    (a slack per upper bound, an artificial per row) in a full n-wide
    tableau, zeros included.  Bland's rule picks the smallest eligible
    column index to enter and breaks ratio ties by the smallest basic
    index, so the sparse solver must reach the same outcome, value for
    value and multiplier for multiplier.
    """
    m = len(sys.coeffs)
    n = sys.nvars
    nrows = m + n
    nstruct = 2 * n  # variables then their upper-bound slacks
    ncols = nstruct + nrows  # plus one artificial per row
    zero = Fraction(0)
    one = Fraction(1)

    rows: list[list[Fraction]] = []
    flips: list[int] = []
    for i in range(m):
        b = Fraction(sys.rhs[i])
        flip = -1 if b < 0 else 1
        coef = [zero] * nstruct
        for j, c in sys.coeffs[i]:
            coef[j] = flip * Fraction(c)
        art = [zero] * nrows
        art[i] = one
        rows.append(coef + art + [flip * b])
        flips.append(flip)
    for j in range(n):
        coef = [zero] * nstruct
        coef[j] = one
        coef[n + j] = one
        art = [zero] * nrows
        art[m + j] = one
        rows.append(coef + art + [one])

    basis = [nstruct + r for r in range(nrows)]
    # Reduced-cost row for the phase-one objective (sum of artificials),
    # relative to the all-artificial starting basis.
    cost = [zero] * (ncols + 1)
    for j in range(ncols + 1):
        through_basis = sum((rows[r][j] for r in range(nrows)), start=zero)
        direct = one if nstruct <= j < ncols else zero
        cost[j] = direct - through_basis

    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        leave = -1
        best: Fraction | None = None
        for r in range(nrows):
            a = rows[r][enter]
            if a > 0:
                ratio = rows[r][ncols] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[r] < basis[leave])
                ):
                    best = ratio
                    leave = r
        if best is None:
            raise RuntimeError(
                "phase-one objective unbounded below; the tableau is corrupt"
            )
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        pivot_row = rows[leave]
        # the tableau is mostly zeros: touch only the pivot row's nonzeros
        support = [(k, v) for k, v in enumerate(pivot_row) if v != 0]
        for row in rows + [cost]:
            f = row[enter]
            if f != 0 and row is not pivot_row:
                for k, v in support:
                    row[k] -= f * v
        basis[leave] = enter

    objective = -cost[ncols]
    if objective == 0:
        values = [zero] * n
        for r in range(nrows):
            if basis[r] < n:
                values[basis[r]] = rows[r][ncols]
        return FeasiblePoint(tuple(values))

    # Duals from the artificial columns: the reduced cost of artificial r
    # is 1 - y_r, so y_r reads off the final cost row directly.
    y = [one - cost[nstruct + r] for r in range(nrows)]
    row_mult = tuple(flips[i] * y[i] for i in range(m))
    upper = tuple(-y[m + j] for j in range(n))
    combo = _transposed_product(sys, row_mult)
    lower = tuple(u - c for u, c in zip(upper, combo))
    return InfeasibilityCertificate(row_mult, upper, lower, objective)
