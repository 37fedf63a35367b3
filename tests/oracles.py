"""Independent reference computations used to freeze expected values.

Everything here works from the raw sum table alone (dict lookups, no
bitmasks, no imports from the package's order or structure modules) so
test expectations do not inherit bugs from the code under test;
:func:`close_table` writes out both orders of a declared table and its
zero rows, which the package's check only fills in as it reads.  The
solver references work over ``Fraction`` throughout, where
``effalg.linear`` keeps integer rows: :func:`dense_phase_one` keeps the
full tableau that ``effalg.linear._phase_one`` stores sparsely,
:func:`fraction_solve_exact` eliminates with ``Fraction`` rows, and
:func:`fraction_verify_point` sums ``Fraction`` products.
:func:`parse_eaf_by_line` is the ``.eaf`` reader as it was before sum
lines were read in bulk, one line at a time.  :func:`derive_order_by_lookup`
is the order as it was derived before it read byte rows, and
:func:`atomic_decomposition_by_walk` and :func:`basic_decomposition_by_walk`
are the decompositions as they were walked, one element at a time, before
each algebra kept a decomposition table; the two walks read the package's
order and profile, since they serve only to compare the table with them.
:func:`difference_table_by_loop` and :func:`compatibility_by_tuples` are
the difference table and the compatibility masks as they were computed
from the tuple tables, before the algebra and its order stored byte rows;
the second reads the package's order, in its tuple view.
:func:`nonlattice_witness_by_generator` is ``analyze``'s non-lattice
witness as it was found before each bound row was searched with
``bytes.find``: one pair at a time, from the package's order.
:func:`mv_chain_by_sums`, :func:`boolean_algebra_by_sums`,
:func:`horizontal_sum_by_sums`, :func:`direct_product_by_sums` and
:func:`extract_sharp_by_sums` are the constructions and the sharp
subalgebra as they were built before they made byte rows: a dict of sums
handed to ``make_algebra``; the last reads the package's profile.
:func:`oracle_atomic` checks by brute force that every nonzero element
lies above an atom, which the package's profile takes from finiteness.
:func:`oracle_atom_families` lists every orthogonal atom-multiple family
with the sums of its parts and of its two blocks, added one atom at a
time, and :func:`oracle_family_laws` checks T2.6, T3.4 and T4.1 from it.
:func:`oracle_l22i`, :func:`oracle_l23iii`, :func:`oracle_l23iv`,
:func:`oracle_l23v` and :func:`oracle_t24` check the laws whose
instances the package selects or clears by masks, each from the law's
statement, instance by instance, in the order the suite reports.
:func:`l22iv_family_count` is how the suite counted L2.2.iv's families
before it tested the order for distributivity, a recurrence over the law
context's sum rows, and :func:`l22iv_clear_by_blocks` clears the law
block by block with the identity that the suite tested on the byte rows
of the whole context then (:func:`rows_distribute`).
:func:`l22ii_by_rows` is L2.2.ii's loop as it ran before the law was
cleared from its generators: the row check, and the loop past it, for
every z.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from string import ascii_lowercase
from typing import Mapping, Optional, Union

from effalg import (
    AtomicDecomposition,
    AtomMultiple,
    BasicDecomposition,
    EffectAlgebra,
    FeasiblePoint,
    InfeasibilityCertificate,
    LinearSystem,
    OrderStructure,
    PreconditionFailed,
    SharpSubalgebra,
    State,
    SumTable,
    derive_order,
    make_algebra,
    solve_exact,
    split_atomic_decomposition,
    state_system,
    structure_profile,
    verify_certificate,
)
from effalg.constructions import (
    _MAX_BLOCKS,
    _MAX_BOOLEAN_EXPONENT,
    _MAX_CHAIN_LENGTH,
    _check_size,
    _subset_name,
)
from effalg.core import (
    _MAX_ELEMENTS,
    _UNDEF,
    _WITNESS_CAP,
    AXIOM_ASSOCIATIVITY,
    AXIOM_COMMUTATIVITY,
    AXIOM_CLOSURE,
    AXIOM_SUPPLEMENT,
    AXIOM_ZERO_ONE,
    AxiomReport,
    Violation,
    _padded,
    multiples,
)
from effalg.eaf import _COUNT, _EA_HEADER, EafDocument, _int
from effalg.errors import (
    DegenerateBlock,
    MissingHeader,
    ParseError,
    SizeLimit,
)
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
                if _groupings_disagree(sums, x, y, z):
                    errors.append(f"associativity broken at {x},{y},{z}")
    for a in range(n):
        mates = [b for b in range(n) if sums.get((a, b)) == one]
        if len(mates) != 1:
            errors.append(f"{a} has {len(mates)} supplements")
    for a in range(n):
        if a != zero and (one, a) in sums:
            errors.append(f"one + {a} is defined")
    return errors


def oracle_check_rows(rows, zero, one) -> AxiomReport:
    """The axiom report on byte rows ``rows[r][z] = r + z``, 255 where
    undefined, by definition: Ei on each asymmetric pair x < y, ``closure``
    on each zero-row entry zero + a != a, Eii on each triple (x, y, z)
    with an undefined sum absorbing, then Eiii on each element with no or
    several supplements and Eiv on each nonzero a with one + a defined.
    Every failure is counted, the first ``_WITNESS_CAP`` of each label are
    kept, and labels, witnesses and details come in the report's order."""
    n = len(rows)

    def plus(a, b):
        return _UNDEF if _UNDEF in (a, b) else rows[a][b]

    def shown(v):
        return "undef" if v == _UNDEF else f"element {v}"

    failures = {
        AXIOM_COMMUTATIVITY: [],
        AXIOM_CLOSURE: [],
        AXIOM_ASSOCIATIVITY: [],
        AXIOM_SUPPLEMENT: [],
        AXIOM_ZERO_ONE: [],
    }
    for x, y in combinations(range(n), 2):
        if rows[x][y] != rows[y][x]:
            detail = f"element {x} + element {y} differs from {y} + {x}"
            failures[AXIOM_COMMUTATIVITY].append(((x, y), detail))
    for a in range(n):
        if rows[zero][a] != a:
            failures[AXIOM_CLOSURE].append(((zero, a), f"zero + element {a} is not {a}"))
    for x, y, z in product(range(n), repeat=3):
        left, right = plus(plus(x, y), z), plus(x, plus(y, z))
        if left != right:
            detail = (
                f"groupings of elements {x}+{y}+{z} disagree "
                f"({shown(left)} vs {shown(right)})"
            )
            failures[AXIOM_ASSOCIATIVITY].append(((x, y, z), detail))
    for a in range(n):
        mates = [b for b in range(n) if rows[a][b] == one]
        if not mates:
            failures[AXIOM_SUPPLEMENT].append(((a,), f"element {a} has no orthosupplement"))
        elif len(mates) > 1:
            detail = f"element {a} has multiple orthosupplements"
            failures[AXIOM_SUPPLEMENT].append(((a, *mates[:2]), detail))
    for a in range(n):
        if a != zero and rows[one][a] != _UNDEF:
            detail = f"one + element {a} is defined although {a} is not zero"
            failures[AXIOM_ZERO_ONE].append(((a,), detail))
    kept = tuple(
        Violation(label, witnesses, detail)
        for label, found in failures.items()
        for witnesses, detail in found[:_WITNESS_CAP]
    )
    totals = {label: len(found) for label, found in failures.items() if found}
    return AxiomReport(kept, totals)


def oracle_eii_failures_near(n, sums, pairs):
    """The failing associativity triples that read one of ``pairs``, sorted.

    ``sums`` has the shape :func:`oracle_axiom_errors` takes.  A triple
    reads the pairs (x, y), (y, z), (x + y, z) and (x, y + z).  When
    ``sums`` differs from an effect algebra's table only at ``pairs``,
    every other triple reads what it reads there and holds, so these are
    all of the table's failures, found in O(n²) lookups instead of n³.
    """
    pairs = set(pairs) | {(b, a) for a, b in pairs}
    with_sum = {}
    for (x, y), s in sums.items():
        with_sum.setdefault(s, []).append((x, y))
    candidates = set()
    for a, b in pairs:
        for t in range(n):
            candidates.add((a, b, t))
            candidates.add((t, a, b))
        candidates.update((x, y, b) for x, y in with_sum.get(a, ()))
        candidates.update((a, y, z) for y, z in with_sum.get(b, ()))
    return sorted(t for t in candidates if _groupings_disagree(sums, *t))


def _groupings_disagree(sums, x, y, z):
    """(x + y) + z and x + (y + z) differ, undefined counting as a value."""
    xy = sums.get((x, y))
    yz = sums.get((y, z))
    left = sums.get((xy, z)) if xy is not None else None
    right = sums.get((x, yz)) if yz is not None else None
    return left != right


def close_table(table):
    """``table`` with both orientations of every entry and the zero rows.

    A reference closure for tables that give each pair one result: a clash
    is a fault in the test that builds the table, so it fails an assertion.
    """
    sums = {}
    zero_rows = [((table.zero, x), x) for x in range(table.size)]
    for (x, y), z in zero_rows + sorted(table.sums.items()):
        for key in ((x, y), (y, x)):
            assert sums.setdefault(key, z) == z, f"pair {key} has two results"
    return SumTable(table.size, table.zero, table.one, sums)


def table_dict(E):
    """The package algebra's table as the oracle's dict shape."""
    return {
        (x, y): E.table[x][y]
        for x in range(E.size)
        for y in range(E.size)
        if E.table[x][y] is not None
    }


def encoded(table):
    """A table of indices and ``None`` as byte rows, 255 for ``None``."""
    return tuple(bytes(255 if v is None else v for v in row) for row in table)


def decoded(rows):
    """Byte rows as a table of indices, ``None`` for 255."""
    return tuple(tuple(None if v == 255 else v for v in row) for row in rows)


def oracle_is_state(E, candidate):
    """Whether ``candidate`` maps every element into [0, 1], one to 1, and
    each defined sum x + y = z, zero rows and both orders included, to
    ``v[x] + v[y] == v[z]``.  Zero mapping to 0 follows from 0 + 0 = 0."""
    if any(x not in candidate for x in range(E.size)):
        return False
    v = {x: Fraction(candidate[x]) for x in range(E.size)}
    return (
        all(0 <= value <= 1 for value in v.values())
        and v[E.one] == 1
        and all(v[x] + v[y] == v[z] for (x, y), z in table_dict(E).items())
    )


def find_state_by_full_system(E):
    """A state or a certificate from ``solve_exact`` on the whole
    ``state_system(E)``, one column per element, as ``find_state`` found
    them before it solved on atom coordinates."""
    outcome = solve_exact(state_system(E))
    if isinstance(outcome, FeasiblePoint):
        return State(E, outcome.values)
    return outcome


def oracle_state_totals(E, candidate):
    """Failures per kind of the state conditions, over totality, the
    endpoints, the box and the sums x + y = z with 0 < x <= y (index
    order, both nonzero), where each value is given; kinds with none are
    left out."""
    v = {x: Fraction(candidate[x]) for x in range(E.size) if x in candidate}
    counts = {
        "missing": E.size - len(v),
        "zero": int(E.zero in v and v[E.zero] != 0),
        "one": int(E.one in v and v[E.one] != 1),
        "range": sum(not 0 <= value <= 1 for value in v.values()),
        "additivity": sum(
            x <= y
            and E.zero not in (x, y)
            and {x, y, z} <= v.keys()
            and v[x] + v[y] != v[z]
            for (x, y), z in table_dict(E).items()
        ),
    }
    return {kind: count for kind, count in counts.items() if count}


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
    in which the package leaves the pair's compatibility bit unset.
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


def oracle_atom_families(E):
    """Every orthogonal atom-multiple family, as (parts, sum, full-block
    sum, proper-block sum).

    A family takes atoms in ascending index, one multiple k·a with k in
    1..ord(a) per atom, and has every prefix sum defined; families are
    listed depth first, each before the families that extend it, and the
    multiples of one atom in ascending k.  The parts are (atom, k) pairs;
    the full block holds those with k = ord(a), the proper block the
    others, and each of the three sums is taken by :func:`_family_sum`,
    None where it is undefined.
    """
    atoms = sorted(oracle_atoms(E))
    iso = {a: oracle_ord(E, a) for a in atoms}
    found = []

    def grow(idx, parts):
        for i in range(idx, len(atoms)):
            a = atoms[i]
            for k in range(1, iso[a] + 1):
                grown = parts + [(a, k)]
                total = _family_sum(E, grown)
                if total is None:
                    continue
                full = _family_sum(E, [(b, j) for b, j in grown if j == iso[b]])
                proper = _family_sum(E, [(b, j) for b, j in grown if j != iso[b]])
                found.append((grown, total, full, proper))
                grow(i + 1, grown)

    grow(0, [])
    return found


def oracle_proper_families(E):
    """All orthogonal atom-multiple families with every k below the index.

    Returns a dict mapping each reachable sum to the set of frozenset
    part-multisets that produce it, read from :func:`oracle_atom_families`.
    """
    found = {}
    for parts, total, _, _ in oracle_atom_families(E):
        if all(k < oracle_ord(E, a) for a, k in parts):
            found.setdefault(total, set()).add(frozenset(parts))
    return found


def oracle_family_laws(E):
    """T2.6, T3.4 and T4.1 by brute force, as a dict from law id to the
    list of (witness, reason) failures in the order the suite reports.

    T2.6 fails a sum of two all-proper families, or of one and another
    family; T3.4 a nonzero element with other than one (sharp element,
    all-proper family) pair reassembling it; T4.1 a family whose full
    block does not sum to the greatest sharp element below its sum, or
    whose proper block sums to an element above a nonzero sharp one.
    """
    names = E.names
    families = oracle_atom_families(E)
    every = Counter(total for _, total, _, _ in families)
    proper = Counter(
        total
        for parts, total, _, _ in families
        if all(k < oracle_ord(E, a) for a, k in parts)
    )
    t26 = []
    for s in sorted(proper):
        if proper[s] > 1:
            t26.append(
                ((s,), f"{names[s]} carries two distinct all-proper atom-multiple sums")
            )
        elif every[s] > 1:
            t26.append(
                (
                    (s,),
                    f"{names[s]} has an all-proper sum and another "
                    "decomposition beside it",
                )
            )
    forms = _every_basic_decomposition(E)
    t34 = [
        (
            (x,),
            f"{names[x]} admits {len(forms.get(x, ()))} sharp-plus-proper "
            "forms instead of exactly one",
        )
        for x in range(E.size)
        if x != E.zero and len(forms.get(x, ())) != 1
    ]
    below = oracle_leq(E)
    sharp = oracle_sharp(E)
    meager = {x for x in range(E.size) if below[x] & sharp == {E.zero}}
    kernel = {x: oracle_sharp_bounds(E, x)[1] for _, x, _, _ in families}
    t41 = []
    for _, x, full, partial in families:
        if full not in sharp:
            t41.append(
                (
                    (x, full),
                    f"full block of a decomposition of {names[x]} sums to "
                    f"non-sharp {names[full]}",
                )
            )
        elif full != kernel[x]:
            t41.append(
                (
                    (x, full),
                    f"full block of {names[x]} misses its greatest sharp lower bound",
                )
            )
        elif partial not in meager:
            t41.append(
                (
                    (x, partial),
                    f"partial block of {names[x]} sums to non-meager {names[partial]}",
                )
            )
    return {"T2.6": t26, "T3.4": t34, "T4.1": t41}


def oracle_basic_decompositions(E, x):
    """Every (sharp part, proper family) pair that reassembles x.

    The sharp part may be any sharp element, the family any orthogonal
    atom-multiple family with all multiplicities below the isotropic
    index; pairs are found by brute force over both.
    """
    return _every_basic_decomposition(E).get(x, set())


def _every_basic_decomposition(E):
    """:func:`oracle_basic_decompositions` for every element at once, as
    a dict from element to its set of pairs, so that the families and the
    sharp elements are found once."""
    families = oracle_proper_families(E)
    out = {}
    for v in oracle_sharp(E):
        out.setdefault(v, set()).add((v, frozenset()))
        for r in range(E.size):
            x = E.table[v][r]
            if x is not None:
                for parts in families.get(r, set()):
                    out.setdefault(x, set()).add((v, parts))
    return out


def oracle_smear(E, omega):
    """The smearing of ``omega`` onto E by plain ``Fraction`` arithmetic.

    ``omega`` is a state on E's sharp elements, read by name.  Each
    element of E must have exactly one basic decomposition, as in a
    lattice; it is valued as omega at its sharp part plus
    ``k * omega(n·a) / n`` per part (a, k), n the isotropic index of a.
    """
    sharp_value = {
        E.index(name): Fraction(v) for name, v in zip(omega.domain.names, omega.values)
    }
    share = {}
    for a in oracle_atoms(E):
        n = oracle_ord(E, a)
        share[a] = sharp_value[oracle_multiple(E, a, n)] / n
    every = _every_basic_decomposition(E)
    values = []
    for x in range(E.size):
        ((v, parts),) = every[x]
        values.append(sharp_value[v] + sum(k * share[a] for a, k in parts))
    return tuple(values)


def oracle_bounds(E):
    """(meet, join) as lists of rows, None where the bound is missing.

    A common lower bound m is the greatest exactly when everything below
    m is all of the common lower bounds, and dually for joins.
    """
    n = E.size
    below = oracle_leq(E)
    above = [{u for u in range(n) if x in below[u]} for x in range(n)]

    def extreme(common, cone):
        hits = [m for m in common if len(cone[m]) == len(common)]
        return hits[0] if hits else None

    meet = [[extreme(below[x] & below[y], below) for y in range(n)] for x in range(n)]
    join = [[extreme(above[x] & above[y], above) for y in range(n)] for x in range(n)]
    return meet, join


def oracle_l22ii(E, join=None):
    """L2.2.ii as the loop over every (x, y, z), z outermost and y >= x.

    For x and y summable with z, x v y must exist and (x v y) + z must
    equal (x + z) v (y + z), both defined.  ``join`` replaces the join
    table.  Returns every (witness, reason) failure in order.
    """
    join = oracle_bounds(E)[1] if join is None else join

    def names(*xs):
        return ", ".join(E.names[x] for x in xs)

    failures = []
    for z in range(E.size):
        summable = [x for x in range(E.size) if E.table[x][z] is not None]
        for x in summable:
            for y in summable:
                if y < x:
                    continue
                j = join[x][y]
                if j is None:
                    failures.append(((x, y, z), f"{names(x, y)} have no join"))
                    continue
                lhs = E.table[j][z]
                rhs = join[E.table[x][z]][E.table[y][z]]
                if lhs is None or rhs is None or lhs != rhs:
                    failures.append(
                        (
                            (x, y, z),
                            f"joining {names(x, y)} does not commute with "
                            f"adding {E.names[z]}",
                        )
                    )
    return failures


def oracle_l22iii(E, meet=None):
    """L2.2.iii as a four-deep walk, each (k, l) checked once.

    For a pair x <= y (by index) with meet zero, every defined sum
    mx + ny of their multiples vouches for all the (k, l) below
    (m, n), which are checked in first-visit order: kx and ly must meet
    at zero and join to their sum.  ``meet`` replaces the meet table.

    Returns every (witness, reason) failure in order.
    """
    true_meet, join = oracle_bounds(E)
    meet = true_meet if meet is None else meet
    names = E.names

    def multiples(x):
        return [oracle_multiple(E, x, k) for k in range(1, oracle_ord(E, x) + 1)]

    failures = []
    for x in range(E.size):
        mx = multiples(x)
        for y in range(x, E.size):
            if meet[x][y] != E.zero:
                continue
            my = multiples(y)
            checked = set()
            for m in range(1, len(mx) + 1):
                for n in range(1, len(my) + 1):
                    if E.table[mx[m - 1]][my[n - 1]] is None:
                        continue
                    for k in range(1, m + 1):
                        for l in range(1, n + 1):
                            if (k, l) in checked:
                                continue
                            checked.add((k, l))
                            kx, ly = mx[k - 1], my[l - 1]
                            m_kl, j_kl = meet[kx][ly], join[kx][ly]
                            s = E.table[kx][ly]
                            if m_kl != E.zero or j_kl is None or j_kl != s:
                                failures.append(
                                    (
                                        (x, y, kx, ly),
                                        f"multiples {names[kx]}, {names[ly]} of "
                                        f"disjoint {names[x]}, {names[y]} are not "
                                        "disjoint-joined",
                                    )
                                )
    return failures


def oracle_l22iv(E, meet=None, compat=None):
    """L2.2.iv checked one orthogonal family at a time, every family.

    A family is two or more distinct nonzero elements in ascending index
    with every prefix sum defined, listed in depth-first preorder.  For
    every x compatible with each member (join equal to x plus y minus
    the meet, both bounds present), the meet of x with the family join
    must be the join of the member meets, and x must be compatible with
    the family join.  ``meet`` replaces the meet table in the checks
    only, and ``compat`` (bitmasks, as the package keeps them) the
    compatibility worked out from the table.

    Returns (status, failure total, first six witnesses, reason, number
    of families with a join).
    """
    n = E.size
    true_meet, join = oracle_bounds(E)
    meet = true_meet if meet is None else meet

    def compatible(x, y):
        m, j = true_meet[x][y], join[x][y]
        if m is None or j is None:
            return False
        rest = [c for c in range(n) if E.table[m][c] == y]
        return E.table[x][rest[0]] == j

    if compat is None:
        compat = [{y for y in range(n) if compatible(x, y)} for x in range(n)]
    else:
        compat = [{y for y in range(n) if mask >> y & 1} for mask in compat]

    def join_of(xs):
        acc = E.zero
        for v in xs:
            if v is None:
                return None
            acc = join[acc][v]
            if acc is None:
                return None
        return acc

    nonzero = [y for y in range(n) if y != E.zero]
    families = []

    def grow(start, acc, members):
        for i in range(start, len(nonzero)):
            y = nonzero[i]
            s = E.table[acc][y]
            if s is None:
                continue
            grown = members + (y,)
            if len(grown) >= 2:
                families.append(grown)
            grow(i + 1, s, grown)

    grow(0, E.zero, ())
    names = E.names
    failures = []
    checked = 0
    for members in families:
        big = join_of(members)
        if big is None:
            continue
        checked += 1
        for x in range(n):
            if not set(members) <= compat[x]:
                continue
            lhs = meet[x][big]
            rhs = join_of(meet[x][y] for y in members)
            if lhs is None or rhs is None or lhs != rhs:
                failures.append(
                    (
                        (x,) + members,
                        f"meet of {names[x]} with the join of "
                        f"{', '.join(names[y] for y in members)} breaks distribution",
                    )
                )
            elif big not in compat[x]:
                failures.append(
                    (
                        (x, big),
                        f"{names[x]} fails to commute with the family join {names[big]}",
                    )
                )
    if not failures:
        return "pass", 0, (), "", checked
    reason = failures[0][1]
    if len(failures) > 1:
        reason += f" (+{len(failures) - 1} more instances)"
    kept = tuple(w for w, _ in failures[:6])
    return "fail", len(failures), kept, reason, checked


def rows_distribute(meet, join):
    """Whether, for every x and every pair (b, y), ``b v y`` and
    ``x ^ (b v y)`` exist and equal ``(x ^ b) v (x ^ y)``, on byte rows.

    This reads the tables as given and does not rely on the axioms or
    on any order, where ``laws._distributive`` reads only the order's
    masks.  Per x, the left side is the flat join matrix translated
    through x's meet row, and the right side joins, for each b, x's meet
    row translated through the joins of ``x ^ b``.
    """
    flat = b"".join(join)
    join_t = _padded(join)
    for meets, through in zip(meet, _padded(meet)):
        left = flat.translate(through)
        if _UNDEF in left:
            return False
        right = b"".join(map(meets.translate, map(join_t.__getitem__, meets)))
        if left != right:
            return False
    return True


def l22iv_clear_by_blocks(ctx):
    """Whether no family can fail ``laws._l22iv_walk``, shown block by
    block on the law context's tables as given.

    The elements other than zero and one split into components, two
    linked when their sum is defined or either one's compatibility mask
    holds the other.  For each component with zero and one added, every
    pair must be compatible, the meet and join rows must keep it, and
    :func:`rows_distribute` must hold on its rows, renumbered.  A
    family's members are pairwise summable, and an x compatible with
    all of them lies in their block or is zero or one, so then the
    walk's failure mask is empty on every pair it could visit, no
    deviating x arises and no join is missing.
    """
    ends = {ctx.E.zero, ctx.E.one}
    inner = [x for x in range(ctx.E.size) if x not in ends]

    def linked(x, y):
        return (
            ctx.table[x][y] != _UNDEF
            or ctx.compat[x] >> y & 1
            or ctx.compat[y] >> x & 1
        )

    blocks, seen = [], set()
    for x in inner:
        if x in seen:
            continue
        component, todo = {x}, [x]
        while todo:
            u = todo.pop()
            for v in inner:
                if v not in component and linked(u, v):
                    component.add(v)
                    todo.append(v)
        seen |= component
        blocks.append(sorted(component | ends))
    for block in blocks:
        if any(not ctx.compat[x] >> y & 1 for x in block for y in block):
            return False
        index = {x: i for i, x in enumerate(block)}
        try:
            meet, join = (
                [bytes(index[rows[x][y]] for y in block) for x in block]
                for rows in (ctx.meet, ctx.join)
            )
        except KeyError:  # a bound outside the block, or missing
            return False
        if not rows_distribute(meet, join):
            return False
    return True


def l22ii_by_rows(ctx):
    """L2.2.ii's failures as ``laws._law_l22ii`` found them before it
    cleared the law from its generators, in order: for every z, each
    (z, x) checked for every y at once on the byte rows, and the loop
    over y wherever that check fails."""
    table, join, join_t = ctx.table, ctx.join, _padded(ctx.join)
    defined = b"\x01" * _UNDEF + b"\x00"
    failures = []
    for z, (sigma, through) in enumerate(zip(table, _padded(table))):
        summable = [x for x, v in enumerate(sigma.translate(defined)) if v]
        holes = sigma.count(_UNDEF)
        for i, x in enumerate(summable):
            lhs = join[x].translate(through)
            rhs = sigma.translate(join_t[sigma[x]])
            if lhs == rhs and rhs.count(_UNDEF) == holes:
                continue
            for y in summable[i:]:
                j = join[x][y]
                if j == _UNDEF:
                    failures.append(((x, y, z), f"{ctx.names(x, y)} have no join"))
                    continue
                lhs = table[j][z]
                if lhs == _UNDEF or lhs != join[sigma[x]][sigma[y]]:
                    failures.append(
                        (
                            (x, y, z),
                            f"joining {ctx.names(x, y)} does not commute with "
                            f"adding {ctx.E.names[z]}",
                        )
                    )
    return failures


def l22iv_family_count(ctx):
    """The number of families ``laws._l22iv_walk`` checks when every join
    exists, by a take-or-skip recurrence over the sum rows.

    The families are every ascending run of two or more nonzero members
    with every prefix sum defined.  With y_k the k-th nonzero element,
    the runs from index k on that extend a running sum s number
    g_k(s) = g_{k+1}(s) + [s + y_k defined]·(1 + g_{k+1}(s + y_k)), so
    all runs from zero number g_0(0), of which n - 1 are single members.
    It is the only count that reaches the 194,596,316,927 families of a
    255-element chain, which neither the walk nor oracle_l22iv can list
    in a test's time.
    """
    n = ctx.E.size
    runs = [0] * n
    for y in reversed(range(n)):
        if y != ctx.E.zero:
            runs = [
                g if s == _UNDEF else g + 1 + runs[s]
                for g, s in zip(runs, ctx.table[y])
            ]
    return runs[ctx.E.zero] - (n - 1)


def oracle_l22i(E, meet=None, join=None):
    """L2.2.i over every pair x <= y (by index) with x + y defined: both
    bounds must exist and the sum must be the join plus the meet.  ``meet``
    and ``join`` replace the bound tables.  Returns every (witness, reason)
    failure in order."""
    true_meet, true_join = oracle_bounds(E)
    meet = true_meet if meet is None else meet
    join = true_join if join is None else join
    failures = []
    for x in range(E.size):
        for y in range(x, E.size):
            s = E.table[x][y]
            if s is None:
                continue
            pair = f"{E.names[x]}, {E.names[y]}"
            j, m = join[x][y], meet[x][y]
            if j is None or m is None:
                failures.append(((x, y), f"{pair} are summable but lack a bound"))
            elif E.table[j][m] != s:
                failures.append(((x, y), f"sum of {pair} differs from join-plus-meet"))
    return failures


def _atom_multiples(E):
    """Each atom in ascending index, with its multiples a, 2a, ..., ord(a)·a."""
    return {
        a: [oracle_multiple(E, a, k) for k in range(1, oracle_ord(E, a) + 1)]
        for a in sorted(oracle_atoms(E))
    }


def oracle_l23iii(E):
    """L2.3.iii over every atom a, multiple ka and element x, in that
    order: an x with a <= x <= ka must be a multiple of a.  Returns every
    (witness, reason) failure in order."""
    below = oracle_leq(E)
    names = E.names
    failures = []
    for a, ms in _atom_multiples(E).items():
        for ka in ms:
            for x in range(E.size):
                if a in below[x] and x in below[ka] and x not in ms:
                    failures.append(
                        (
                            (a, x, ka),
                            f"{names[x]} sits between atom {names[a]} and "
                            f"{names[ka]} but is no multiple of it",
                        )
                    )
    return failures


def oracle_l23iv(E):
    """L2.3.iv over every pair of distinct atoms a, b, each k < ord(a) and
    each l <= ord(b): ka and lb must differ.  Returns every (witness,
    reason) failure in order."""
    names = E.names
    multiples = _atom_multiples(E)
    failures = []
    for a, ms_a in multiples.items():
        for b, ms_b in multiples.items():
            if a == b:
                continue
            for k, ka in enumerate(ms_a[:-1], start=1):
                for l, lb in enumerate(ms_b, start=1):
                    if ka == lb:
                        failures.append(
                            (
                                (a, b, ka),
                                f"{k} copies of {names[a]} equal {l} copies "
                                f"of {names[b]}",
                            )
                        )
    return failures


def oracle_l23v(E, join=None, sharp=None):
    """L2.3.v over every nonzero x: its greedy parts, taken one at a time
    as the least-indexed atom below the rest of x with the largest
    multiple below it, joined left to right from zero, must give x, and
    they must all be full multiples exactly when x is sharp.  ``join``
    replaces the join table and ``sharp`` the sharp set.  Returns every
    (witness, reason) failure in order."""
    below = oracle_leq(E)
    join = oracle_bounds(E)[1] if join is None else join
    sharp = oracle_sharp(E) if sharp is None else sharp
    names = E.names
    multiples = _atom_multiples(E)
    failures = []
    for x in range(E.size):
        if x == E.zero:
            continue
        parts, rest = [], x
        while rest != E.zero:
            a = min(a for a in multiples if a in below[rest])
            ka = [m for m in multiples[a] if m in below[rest]][-1]
            parts.append((a, ka))
            (rest,) = [c for c in range(E.size) if E.table[ka][c] == rest]
        j = E.zero
        for _, ka in parts:
            j = None if j is None else join[j][ka]
        if j != x:
            failures.append(
                ((x,), f"join of the greedy parts of {names[x]} is not {names[x]}")
            )
        all_full = all(ka == multiples[a][-1] for a, ka in parts)
        if x in sharp and not all_full:
            failures.append(
                ((x,), f"sharp {names[x]} decomposes with a proper multiple")
            )
        elif x not in sharp and all_full:
            failures.append(
                ((x,), f"non-sharp {names[x]} decomposes into full multiples only")
            )
    return failures


def oracle_t24(E, meet=None, join=None, compat=None):
    """T2.4 over every pair of distinct atoms a, b and every k and l, in
    that order: ka <= lb fails unless l = ord(b), the bounds of a and b
    exist, a and b are not compatible (:func:`oracle_compatible`) and
    ord(a)·a <= ord(b)·b.  ``meet`` and ``join`` replace the bound tables
    and ``compat`` (bitmasks, as the package keeps them) the
    compatibility.  Returns every (witness, reason) failure in order."""
    below = oracle_leq(E)
    true_meet, true_join = oracle_bounds(E)
    meet = true_meet if meet is None else meet
    join = true_join if join is None else join
    names = E.names

    def compatible(a, b):
        if compat is None:
            return bool(oracle_compatible(E, a, b))
        return bool(compat[a] >> b & 1)

    multiples = _atom_multiples(E)
    failures = []
    for a, ms_a in multiples.items():
        for b, ms_b in multiples.items():
            if a == b:
                continue
            for k, ka in enumerate(ms_a, start=1):
                for l, lb in enumerate(ms_b, start=1):
                    if ka not in below[lb]:
                        continue
                    if l < len(ms_b):
                        failures.append(
                            (
                                (a, b, ka, lb),
                                f"{k} copies of {names[a]} fit below {l} copies "
                                f"of distinct atom {names[b]} short of its index",
                            )
                        )
                    elif meet[a][b] is None or join[a][b] is None:
                        failures.append(
                            (
                                (a, b),
                                f"compatibility of atoms {names[a]}, {names[b]} "
                                "is not evaluable (missing bounds)",
                            )
                        )
                    elif compatible(a, b) or ms_a[-1] not in below[ms_b[-1]]:
                        failures.append(
                            (
                                (a, b),
                                f"distinct atoms {names[a]}, {names[b]} with "
                                "nested multiples violate the full-index "
                                "alternative",
                            )
                        )
    return failures


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


def oracle_rank(system):
    """The rank of a system's coefficient rows, by dense ``Fraction``
    elimination."""
    rows = [[Fraction(c) for c in row] for row in dense_rows(system)]
    rank = 0
    for col in range(system.nvars):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [u - f * v for u, v in zip(rows[i], rows[rank])]
        rank += 1
    return rank


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


def fraction_verify_point(sys: LinearSystem, point: FeasiblePoint) -> bool:
    """The reference for ``effalg.linear.verify_point``: ``Fraction`` sums."""
    if len(point.values) != sys.nvars:
        return False
    for v in point.values:
        if not 0 <= v <= 1:
            return False
    for row, b in zip(sys.coeffs, sys.rhs):
        if sum((c * point.values[j] for j, c in row), start=Fraction(0)) != b:
            return False
    return True


def fraction_verify_certificate(
    sys: LinearSystem, cert: InfeasibilityCertificate
) -> bool:
    """The reference for ``effalg.linear.verify_certificate``, from its
    definition in ``Fraction`` arithmetic: y, w, z and the gap are exact
    rationals, not bools; w, z >= 0; y^T A = w - z; and y^T b - sum(w) is
    the gap, which is positive."""
    y, w, z = cert.row_multipliers, cert.upper_multipliers, cert.lower_multipliers
    given = (*y, *w, *z, cert.gap)
    if len(y) != len(sys.coeffs) or len(w) != sys.nvars or len(z) != sys.nvars:
        return False
    if any(type(v) not in (int, Fraction) for v in given):
        return False
    if any(v < 0 for v in (*w, *z)):
        return False
    if _transposed_product(sys, y) != [wj - zj for wj, zj in zip(w, z)]:
        return False
    gap = sum(yi * Fraction(bi) for yi, bi in zip(y, sys.rhs)) - sum(w)
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


def fraction_solve_exact(
    sys: LinearSystem,
) -> Union[FeasiblePoint, InfeasibilityCertificate]:
    """The reference for ``effalg.linear.solve_exact``: ``Fraction`` rows.

    The same elimination order, pivot choice and lifting, with every kept
    row normalised to pivot coefficient 1 over ``Fraction``; phase one is
    :func:`dense_phase_one`, which reaches the sparse tableau's outcome
    value for value.  Raises ``RuntimeError`` if an outcome fails
    :func:`fraction_verify_point` or ``verify_certificate``.
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
            return _fraction_certificate(sys, y, {}, {}, abs(rhs))
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
            return _fraction_certificate(
                sys, row.combo, {p: Fraction(1)}, {}, row.rhs - 1
            )
        if row.rhs < 0:
            y = {k: -c for k, c in row.combo.items()}
            return _fraction_certificate(sys, y, {}, {p: Fraction(1)}, -row.rhs)
        values[p] = row.rhs

    linked = [(p, row) for p, row in pivots.items() if row.coef]
    if linked:
        reduced, cols, scales = _fraction_reduced_system(linked)
        outcome = dense_phase_one(reduced)
        if isinstance(outcome, InfeasibilityCertificate):
            y = {}
            for yr, scale, (_, row) in zip(
                outcome.row_multipliers, scales, linked
            ):
                if yr:
                    _add_scaled(y, yr * scale, row.combo)
            w = dict(zip(cols, outcome.upper_multipliers))
            z = dict(zip(cols, outcome.lower_multipliers))
            return _fraction_certificate(sys, y, w, z, outcome.gap)
        for c, v in zip(cols, outcome.values):
            values[c] = v

    point = FeasiblePoint(tuple(values))
    if not fraction_verify_point(sys, point):
        raise RuntimeError("solver produced an invalid feasible point")
    return point


def _fraction_reduced_system(
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


def _fraction_certificate(
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


def _logical_lines_by_line(text: str) -> list[tuple[int, list[str]]]:
    """Non-empty lines as (1-based line number, token list), comments gone."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if tokens:
            out.append((lineno, tokens))
    return out


def parse_eaf_by_line(text: str) -> EafDocument:
    """``effalg.eaf.parse_eaf`` as it read sum lines before the bulk pass:
    one line at a time, each checked for shape and then its names x, y, z.
    Kept verbatim, for reference only, so that the bulk reader can be
    compared with it error for error; it has no cap on the sum lines.

    Enforces the fixed section order and every lexical rule of the format;
    all errors carry the offending line number.  Raises :class:`SizeLimit`
    as soon as the element count exceeds ``_MAX_ELEMENTS``, before the
    names are read.  Semantic validation (axiom checking) is not done here.
    """
    lines = _logical_lines_by_line(text)
    if not lines:
        raise MissingHeader(1, f"missing {_EA_HEADER!r} header")
    pos = 0

    def take(expect: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(lines[-1][0], f"unexpected end of file, expected {expect}")
        item = lines[pos]
        pos += 1
        return item

    lineno, tokens = take("header")
    if tokens != [_EA_HEADER.split()[0], _EA_HEADER.split()[1]]:
        raise MissingHeader(lineno, f"expected {_EA_HEADER!r} header")

    lineno, tokens = take("'elements <n>'")
    if len(tokens) != 2 or tokens[0] != "elements":
        raise ParseError(lineno, "expected 'elements <n>'")
    # int() alone would also take "1_0", "+10" and non-ASCII digits
    if not _COUNT.fullmatch(tokens[1]):
        raise ParseError(lineno, f"element count {tokens[1]!r} is not an integer")
    count = _int(tokens[1], lineno)
    if count < 2:
        raise ParseError(lineno, "an effect algebra needs at least 2 elements")
    if count > _MAX_ELEMENTS:
        raise SizeLimit(
            f"line {lineno}: algebras are read up to {_MAX_ELEMENTS} elements, "
            f"not {count}"
        )

    lineno, tokens = take("'names ...'")
    if not tokens or tokens[0] != "names":
        raise ParseError(lineno, "expected 'names <name...>'")
    names = tuple(tokens[1:])
    if len(names) != count:
        raise ParseError(
            lineno, f"expected {count} names, found {len(names)}"
        )
    name_set = set(names)
    if len(name_set) != len(names):
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        raise ParseError(lineno, f"duplicate element name {dup!r}")
    for name in names:
        if not name.isascii() or "#" in name or "=" in name:
            raise ParseError(
                lineno,
                f"element name {name!r} must be ASCII without '#' or '='",
            )

    def known(name: str, lineno: int) -> str:
        if name not in name_set:
            raise ParseError(lineno, f"unknown element name {name!r}")
        return name

    lineno, tokens = take("'zero <name>'")
    if len(tokens) != 2 or tokens[0] != "zero":
        raise ParseError(lineno, "expected 'zero <name>'")
    zero = known(tokens[1], lineno)

    lineno, tokens = take("'one <name>'")
    if len(tokens) != 2 or tokens[0] != "one":
        raise ParseError(lineno, "expected 'one <name>'")
    one = known(tokens[1], lineno)

    sums = []
    while pos < len(lines):
        lineno, tokens = take("'sum <x> <y> = <z>'")
        if len(tokens) != 5 or tokens[0] != "sum" or tokens[3] != "=":
            raise ParseError(lineno, "expected 'sum <x> <y> = <z>'")
        x = known(tokens[1], lineno)
        y = known(tokens[2], lineno)
        z = known(tokens[4], lineno)
        sums.append((x, y, z))

    return EafDocument(names, zero, one, tuple(sums))


def derive_order_by_lookup(E: EffectAlgebra) -> OrderStructure:
    """``effalg.order.derive_order`` as it was before it read byte rows:
    masks built pair by pair from ``E.table``, every meet looked up among
    the down-sets and every join among the up-sets.  Kept verbatim, apart
    from the name, the per-algebra memo and the bound tables handed to
    :class:`OrderStructure` as byte rows, for reference only."""
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
    return OrderStructure(
        tuple(up), tuple(down), encoded(meet), encoded(join), lattice
    )


def atomic_decomposition_by_walk(E: EffectAlgebra, x: int) -> AtomicDecomposition:
    """``effalg.decompose.atomic_decomposition`` as it was before the
    decomposition table: one greedy walk from x down to zero.  Kept
    verbatim, apart from the name, for reference only."""
    profile = structure_profile(E)
    os = derive_order(E)
    ordered_atoms = sorted(profile.atoms)
    parts: list[AtomMultiple] = []
    r = x
    while r != E.zero:
        # A nonzero residual sits above an atom (finite carrier).
        atom = next(a for a in ordered_atoms if os.down[r] >> a & 1)
        # Multiples of an atom strictly increase, so those below r are a prefix.
        ms = multiples(E)[atom]
        k = 1
        while k < len(ms) and os.down[r] >> ms[k] & 1:
            k += 1
        parts.append(AtomMultiple(atom, k))
        # ms[k - 1] is below r, so the difference is defined.
        r = E.diff(r, ms[k - 1])
    return AtomicDecomposition(x, tuple(parts), os.is_lattice)


def basic_decomposition_by_walk(E: EffectAlgebra, x: int) -> BasicDecomposition:
    """``effalg.decompose.basic_decomposition`` as it was before the
    decomposition table: the walk of :func:`atomic_decomposition_by_walk`,
    validated, split and checked for x alone.  Kept verbatim, apart from
    the names and the block sums, taken by :func:`_family_sum`, for
    reference only."""
    os = derive_order(E)
    if not os.is_lattice:
        raise PreconditionFailed(
            "basic decomposition needs a lattice-ordered algebra"
        )
    profile = structure_profile(E)
    kernel = profile.sharp_kernel[x]
    if kernel is None:
        raise PreconditionFailed(
            f"element {x} has no greatest sharp element below it"
        )
    split = split_atomic_decomposition(E, atomic_decomposition_by_walk(E, x))
    if _family_sum(E, [(p.atom, p.multiplicity) for p in split.full]) != kernel:
        raise RuntimeError(f"full parts of {x} do not sum to its sharp kernel")
    remainder = _family_sum(E, [(p.atom, p.multiplicity) for p in split.partial])
    if remainder not in profile.meager:
        raise RuntimeError(f"proper parts of {x} sum to non-meager {remainder}")
    return BasicDecomposition(kernel, split.partial)


def oracle_atomic(E: EffectAlgebra) -> bool:
    """Whether every nonzero element lies above an atom, by brute force
    over the down-sets of :func:`derive_order_by_lookup`."""
    down = derive_order_by_lookup(E).down
    atoms = [
        a for a in range(E.size) if a != E.zero and down[a] == 1 << E.zero | 1 << a
    ]
    return all(
        any(down[x] >> a & 1 for a in atoms) for x in range(E.size) if x != E.zero
    )


def difference_table_by_loop(
    E: EffectAlgebra,
) -> tuple[tuple[Optional[int], ...], ...]:
    """``effalg.core._difference_table`` as it was before it kept byte
    rows: ``[a][b]`` is the c with a + c == b, or None when a is not
    below b, filled one entry at a time from ``E.table``.  Kept verbatim,
    apart from the name and the per-algebra memo, for reference only."""
    n = E.size
    out = []
    for row in E.table:
        diffs: list[Optional[int]] = [None] * n
        for c, b in enumerate(row):
            if b is not None:
                diffs[b] = c
        out.append(tuple(diffs))
    return tuple(out)


def compatibility_by_tuples(E: EffectAlgebra) -> tuple[int, ...]:
    """``effalg.order.compatibility`` as it was before it read byte rows:
    every pair walked over ``E.table`` and the order's ``meet`` and
    ``join`` tuple tables.  Kept verbatim, apart from the name, the
    per-algebra memo and the difference table, which is
    :func:`difference_table_by_loop`, for reference only."""
    os = derive_order(E)
    # diff[m][y] is y minus m, defined because the meet m lies below y.
    diff = difference_table_by_loop(E)
    masks = []
    for row, meets, joins in zip(E.table, os.meet, os.join):
        mask = 0
        for y, (m, j) in enumerate(zip(meets, joins)):
            if m is not None and j is not None and row[diff[m][y]] == j:
                mask |= 1 << y
        masks.append(mask)
    return tuple(masks)


def nonlattice_witness_by_generator(E: EffectAlgebra) -> dict:
    """``effalg.cli._nonlattice_witness`` as it was before it searched
    each meet and join row with ``bytes.find``: the pairs x < y walked
    in order, the meet before the join of each.  Kept verbatim, apart
    from the name, for reference only; it raises ``StopIteration`` on a
    lattice."""
    os = derive_order(E)
    x, y, missing = next(
        (x, y, bound)
        for x in range(E.size)
        for y in range(x + 1, E.size)
        for bound, rows in (("meet", os.meet_rows), ("join", os.join_rows))
        if rows[x][y] == _UNDEF
    )
    return {"x": E.names[x], "y": E.names[y], "missing": missing}


def mv_chain_by_sums(n: int) -> EffectAlgebra:
    """``effalg.mv_chain`` as it was before the constructions built byte
    rows: a dict of sums handed to ``make_algebra``.  Kept verbatim,
    apart from the name, for reference only."""
    if not 1 <= n <= _MAX_CHAIN_LENGTH:
        raise SizeLimit(f"chains are provided for 1 <= n <= {_MAX_CHAIN_LENGTH}")
    names = ["0"]
    if n >= 2:
        names.append("a")
        names.extend(f"{k}a" for k in range(2, n))
    names.append("1")
    sums = {
        (k, l): k + l
        for k in range(1, n + 1)
        for l in range(k, n + 1)
        if k + l <= n
    }
    return make_algebra(names, 0, n, sums)


def boolean_algebra_by_sums(k: int) -> EffectAlgebra:
    """``effalg.boolean_algebra`` as it was before the constructions built
    byte rows.  Kept verbatim, apart from the name, for reference only."""
    if not 1 <= k <= _MAX_BOOLEAN_EXPONENT:
        raise SizeLimit(
            f"subset algebras are provided for 1 <= k <= {_MAX_BOOLEAN_EXPONENT}"
        )
    n = 1 << k
    names = [_subset_name(m, k) for m in range(n)]
    sums = {
        (x, y): x | y
        for x in range(1, n)
        for y in range(x, n)
        if x & y == 0
    }
    return make_algebra(names, 0, n - 1, sums)


def horizontal_sum_by_sums(parts: list[EffectAlgebra]) -> EffectAlgebra:
    """``effalg.horizontal_sum`` as it was before the constructions built
    byte rows: each part's canonical sums, renamed into a dict.  Kept
    verbatim, apart from the name, for reference only."""
    if not parts:
        raise ValueError("horizontal sum needs at least one part")
    if len(parts) == 1:
        return parts[0]
    if len(parts) > _MAX_BLOCKS:
        raise SizeLimit(f"at most {_MAX_BLOCKS} blocks supported")
    for part in parts:
        if part.size < 3:
            raise DegenerateBlock(
                "every block needs an interior element (size >= 3)"
            )
    _check_size("horizontal sums", 2 + sum(part.size - 2 for part in parts))

    names = ["0"]
    maps: list[dict[int, int]] = []  # per part: part index -> glued index
    for p, part in enumerate(parts):
        letter = ascii_lowercase[p]
        mapping = {part.zero: 0}
        position = 0
        for x in range(part.size):
            if x in (part.zero, part.one):
                continue
            position += 1
            mapping[x] = len(names)
            names.append(letter if position == 1 else f"{position}{letter}")
        maps.append(mapping)
    one = len(names)
    names.append("1")
    for p, part in enumerate(parts):
        maps[p][part.one] = one

    sums: dict[tuple[int, int], int] = {}
    for p, part in enumerate(parts):
        mapping = maps[p]
        for x, y, z in part.canonical_sums():
            sums[(mapping[x], mapping[y])] = mapping[z]
    return make_algebra(names, 0, one, sums)


def direct_product_by_sums(E1: EffectAlgebra, E2: EffectAlgebra) -> EffectAlgebra:
    """``effalg.direct_product`` as it was before the constructions built
    byte rows: every summable pair of pairs walked into a dict.  Kept
    verbatim, apart from the name, for reference only."""
    n1, n2 = E1.size, E2.size
    _check_size("products", n1 * n2)
    names = [
        f"{E1.names[x1]},{E2.names[x2]}"
        for x1 in range(n1)
        for x2 in range(n2)
    ]
    sums: dict[tuple[int, int], int] = {}
    for x1, row1 in enumerate(E1.rows):
        for x2, row2 in enumerate(E2.rows):
            x = x1 * n2 + x2
            for y1, s1 in enumerate(row1):
                if s1 == _UNDEF:
                    continue
                for y2, s2 in enumerate(row2):
                    y = y1 * n2 + y2
                    if y >= x and s2 != _UNDEF:
                        sums[(x, y)] = s1 * n2 + s2
    zero = E1.zero * n2 + E2.zero
    one = E1.one * n2 + E2.one
    return make_algebra(names, zero, one, sums)


def extract_sharp_by_sums(E: EffectAlgebra) -> SharpSubalgebra:
    """``effalg.extract_sharp`` as it was before it built byte rows: the
    sums among sharp elements walked into a dict.  It reads the package's
    profile for the sharp set.  Kept verbatim, apart from the name and the
    per-algebra memo, for reference only."""
    sharp = sorted(structure_profile(E).sharp)
    pos = {x: i for i, x in enumerate(sharp)}
    sums: dict[tuple[int, int], int] = {}
    for i, x in enumerate(sharp):
        row = E.rows[x]
        for j, y in enumerate(sharp[i:], start=i):
            z = row[y]
            if z in pos:  # _UNDEF is no element
                sums[(i, j)] = pos[z]
    names = tuple(E.names[x] for x in sharp)
    algebra = make_algebra(names, pos[E.zero], pos[E.one], sums)
    from_parent: list[Optional[int]] = [None] * E.size
    for x, i in pos.items():
        from_parent[x] = i
    return SharpSubalgebra(algebra, tuple(sharp), tuple(from_parent))
