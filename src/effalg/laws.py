"""Executable law suite: structural identities run as exhaustive checks.

Each law quantifies over the finite carrier (pairs, triples, atoms, or
orthogonal families) and reports pass, fail with witnesses, or skipped
when its structural hypothesis does not hold for the input.  A skip is
never a pass: algebras outside a law's hypothesis contribute nothing.
Every law reads its sums, meets and joins in one encoding: the byte rows
that the algebra and its order keep, ``_UNDEF`` where undefined (see
:class:`_Ctx`).

Most laws pick their instances in C from those rows, or clear a whole
family of instances with one exact mask test, and run their loop only
where a failure is possible.  The loop stays each law's only failure
path, so witnesses, their order and totals are its own, and no test in C
passes where its loop fails, whatever the tables hold.  L2.2.i to
L2.2.iii pick summable or disjoint pairs with ``compress`` over a
translated row, and L2.2.ii checks each (z, x) for every y at once;
L2.3.iii, L2.3.iv and T2.4 test masks of atom multiples against the
order (see each law).  L2.2.iv checks every orthogonal family, of any
size.  A 255-element chain has 194,596,316,927 of them, so they are not
listed one by one: one depth-first walk merges prefixes whose further
checks are the same and counts the families and failures below them
exactly (see :func:`_l22iv_walk`).  A check in C comes first (see
:func:`_l22iv_fast`).  When every pair is compatible and every meet
distributes over every join in the tables as given, as in an MV-effect
algebra, whose lattice is distributive, no family can fail the walk: the
law passes, and the families are counted by a recurrence instead of
walked.  Any other input runs the walk.

Counterexample mode forces laws whose hypothesis includes lattice order to
run their conclusion checks on non-lattice algebras anyway.  There, an
instance whose own sub-hypothesis cannot be evaluated (say, compatibility
of a pair with no join) counts as vacuous, but a conclusion that needs a
missing bound counts as a failure: the law promised that bound would
exist.  This is how the bundled counterexample tables document exactly
which conclusions break without lattice order.

Law ids, in report order:

==================  =========================================================
L2.2.i              x + y = (x v y) + (x ^ y) for summable pairs
L2.2.ii             (x v y) + z distributes over the join when both summable
L2.2.iii            disjointness of x, y spreads to all defined multiples
L2.2.iv             meets distribute over the join of every orthogonal family
L2.3.i              proper atom multiples are non-sharp via their supplement
L2.3.ii             the full multiple of an atom is sharp, others are not
L2.3.iii            elements between an atom and its multiples are multiples
L2.3.iv             equal proper multiples force equal atoms
L2.3.v              greedy decomposition reassembles x as sum and join
T2.4                a multiple below another atom's multiple ties the atoms
T2.6                at most one all-proper atom-multiple sum per element
T3.4                exactly one sharp-plus-proper-multiples form per element
T3.5                the sharp cover of an atom is its full multiple
T4.1                every decomposition splits into kernel and meager parts
T4.2                states on the sharp part smear to states on E
SE-subalgebra       sharp elements form a sub-effect algebra
SE-full-sublattice  meets and joins of sharp pairs are sharp
product-closure     squaring preserves lattice/atomic/sharply-dominating
==================  =========================================================
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import getitem, ne
from typing import Callable, Iterable, Iterator, Optional

from .constructions import direct_product
from .core import (
    _UNDEF,
    _WITNESS_CAP,
    EffectAlgebra,
    Witnesses,
    _difference_table,
    _multiple_masks,
    _padded,
    multiples,
)
from .decompose import _table
from .errors import InvalidState, PreconditionFailed
from .linear import InfeasibilityCertificate
from .order import OrderStructure, compatibility, derive_order
from .states import find_state, smear_state
from .structure import StructureProfile, extract_sharp, structure_profile

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

_PRODUCT_FACTOR_CAP = 8

# A translate table: 1 for a defined byte, 0 for ``_UNDEF``, so that
# ``compress`` over a translated row picks the indices where it is defined.
_DEFINED = b"\x01" * _UNDEF + b"\x00"


@dataclass(frozen=True)
class LawResult:
    law: str
    status: str
    witnesses: tuple[tuple[int, ...], ...] = ()
    reason: str = ""


@dataclass(frozen=True)
class LawReport:
    algebra: EffectAlgebra
    results: tuple[LawResult, ...]

    def result(self, law: str) -> LawResult:
        for r in self.results:
            if r.law == law:
                return r
        raise KeyError(law)

    @property
    def ok(self) -> bool:
        return all(r.status != FAIL for r in self.results)


# A collecting law yields one (witness, reason) pair per failing instance.
_Failures = Iterator[tuple[tuple[int, ...], str]]

# L2.2.iv's deviating x, ascending, each with its running join of meets,
# ``_UNDEF`` when that is missing.
_Deviating = tuple[tuple[int, int], ...]

# An L2.2.iv failure relative to a walk node: x, the members added below
# the node, and ``None`` when x fails the meet check or the family join
# when x is not compatible with it.
_Found = tuple[int, tuple[int, ...], Optional[int]]

# A walk node's failure total, family count and first failures.
_Node = tuple[int, int, tuple[_Found, ...]]


def _collect(
    law: str, failures: _Failures, total: Optional[int] = None
) -> LawResult:
    """Pass, or fail with the capped witnesses and the first reason.

    With ``total`` given, it is the failure count and ``failures`` is
    read only as far as the witnesses kept.
    """
    found = Witnesses()
    if total is None:
        for witness, reason in failures:
            found.add(law, witness, reason)
    elif total:
        found.counted(law, total, failures)
    total = found.totals.get(law, 0)
    if total == 0:
        return LawResult(law, PASS)
    reason = found.kept[0].detail
    if total > 1:
        reason += f" (+{total - 1} more instances)"
    return LawResult(law, FAIL, tuple(v.witnesses for v in found.kept), reason)


class _Ctx:
    """What the laws read of one algebra.

    ``table[z]``, ``meet[x]`` and ``join[x]`` are the byte rows that the
    algebra and its order store (``EffectAlgebra.rows`` and
    ``OrderStructure.meet_rows`` and ``join_rows``): y + z, x ^ y and
    x v y at index y, ``_UNDEF`` where undefined.  ``table`` is
    symmetric.  ``table_t``, ``meet_t`` and ``join_t`` are the same rows
    as translate tables (see :func:`_padded`), built on first use.
    ``os`` is read only for the order itself: ``up``, ``down``, ``leq``
    and ``is_lattice``; no law reads the tuple views ``E.table``,
    ``os.meet`` or ``os.join``.  ``compat`` holds the
    :func:`~effalg.order.compatibility` masks, also built on first use,
    so a suite whose laws do not read them builds none.  The atom
    families and their block sums are folded once, on first use, for
    T2.6, T3.4 and T4.1 to read.
    """

    def __init__(self, E: EffectAlgebra) -> None:
        self.E = E
        self.os: OrderStructure = derive_order(E)
        self.table = E.rows
        self.meet, self.join = self.os.meet_rows, self.os.join_rows
        self.profile: StructureProfile = structure_profile(E)
        self.atoms = sorted(self.profile.atoms)
        self.multiples = multiples(E)
        self.multiple_masks = _multiple_masks(E)

    @cached_property
    def compat(self) -> tuple[int, ...]:
        return compatibility(self.E)

    @cached_property
    def table_t(self) -> list[bytes]:
        return _padded(self.table)

    @cached_property
    def meet_t(self) -> list[bytes]:
        return _padded(self.meet)

    @cached_property
    def join_t(self) -> list[bytes]:
        return _padded(self.join)

    @cached_property
    def atom_families(self) -> list[tuple[int, int, int]]:
        """All orthogonal atom-multiple families, as (sum, full-block sum,
        proper-block sum), each before the families that extend it.

        Atoms ascend, one multiple each, every prefix sum defined; the full
        block holds the multiples at their atom's isotropic index.  The
        sums fold through ``table_t`` as a family grows; by generalized
        associativity (Foulis and Bennett 1994) both block sums exist and
        re-add to the family's sum.
        """
        iso = self.profile.isotropic
        plus = self.table_t
        out: list[tuple[int, int, int]] = []

        def grow(start: int, acc: int, full: int, proper: int) -> None:
            for i in range(start, len(self.atoms)):
                a = self.atoms[i]
                for k, m in enumerate(self.multiples[a], start=1):
                    s = plus[acc][m]
                    if s == _UNDEF:
                        break
                    if k == iso[a]:
                        family = s, plus[full][m], proper
                    else:
                        family = s, full, plus[proper][m]
                    out.append(family)
                    grow(i + 1, *family)

        grow(0, self.E.zero, self.E.zero, self.E.zero)
        return out

    @cached_property
    def proper_families(self) -> Counter[int]:
        """The number of all-proper atom families with each sum.

        A family is all-proper when every multiplicity stays below its
        atom's isotropic index, that is when its full block is empty and
        sums to zero: a sum of nonzero elements is nonzero.
        """
        zero = self.E.zero
        return Counter(s for s, full, _ in self.atom_families if full == zero)

    def names(self, *xs: int) -> str:
        return ", ".join(self.E.names[x] for x in xs)


def _law_l22i(ctx: _Ctx) -> _Failures:
    """x + y = (x v y) + (x ^ y) for each summable x <= y (by index), the
    y picked from the row of x in C."""
    E = ctx.E
    n = E.size
    for x, row in enumerate(ctx.table):
        for y in compress(range(x, n), row[x:].translate(_DEFINED)):
            s = row[y]
            j, m = ctx.join[x][y], ctx.meet[x][y]
            if j == _UNDEF or m == _UNDEF:
                yield (x, y), f"{ctx.names(x, y)} are summable but lack a bound"
                continue
            if ctx.table[j][m] != s:
                yield (
                    (x, y),
                    f"sum of {ctx.names(x, y)} differs from join-plus-meet",
                )


def _law_l22ii(ctx: _Ctx) -> _Failures:
    """For x, y summable with z, (x v y) + z = (x + z) v (y + z), y >= x.

    On byte rows each (z, x) is first checked for every y at once.  With
    sigma the row of z (y + z at index y), ``join[x].translate(sigma)``
    holds (x v y) + z and ``sigma.translate(join_t[x + z])`` holds
    (x + z) v (y + z), ``_UNDEF`` where a join or sum is missing.  The
    second is ``_UNDEF`` wherever sigma is; when the two are equal and
    the second has no other ``_UNDEF``, every y summable with z has both
    sides defined and equal, so no y can fail for this (z, x), whatever
    the tables.  Every other (z, x) runs the loop below, so witnesses,
    their order and the total stay the loop's.  The summable x are
    picked from sigma in C.
    """
    E = ctx.E
    table, join, join_t = ctx.table, ctx.join, ctx.join_t
    for z, (sigma, through) in enumerate(zip(table, ctx.table_t)):
        summable = list(compress(range(E.size), sigma.translate(_DEFINED)))
        holes = sigma.count(_UNDEF)
        for i, x in enumerate(summable):
            lhs = join[x].translate(through)
            rhs = sigma.translate(join_t[sigma[x]])
            if lhs == rhs and rhs.count(_UNDEF) == holes:
                continue
            for y in summable[i:]:
                j = join[x][y]
                if j == _UNDEF:
                    yield (x, y, z), f"{ctx.names(x, y)} have no join"
                    continue
                lhs = table[j][z]
                if lhs == _UNDEF or lhs != join[sigma[x]][sigma[y]]:
                    yield (
                        (x, y, z),
                        f"joining {ctx.names(x, y)} does not commute with "
                        f"adding {E.names[z]}",
                    )


def _law_l22iii(ctx: _Ctx) -> _Failures:
    """Every defined sum kx + ly of a disjoint pair x, y is a disjoint join.

    Each defined sum is visited once, k then l ascending.  Definedness is
    down-closed in k and l: a smaller multiple lies below a larger one,
    and an element below a summand is still summable.  So the first
    undefined ly ends the row of kx.  The y disjoint from x are picked
    from the meet row of x in C.
    """
    E = ctx.E
    table, meet, join = ctx.table, ctx.meet, ctx.join
    disjoint = bytearray(256)  # translates zero to 1, every other byte to 0
    disjoint[E.zero] = 1
    for x in range(E.size):
        mx = ctx.multiples[x]  # empty for zero, which adds no instance
        for y in compress(range(x, E.size), meet[x][x:].translate(disjoint)):
            my = ctx.multiples[y]
            for kx in mx:
                row = table[kx]
                for ly in my:
                    s = row[ly]
                    if s == _UNDEF:
                        break
                    if meet[kx][ly] != E.zero or join[kx][ly] != s:
                        yield (
                            (x, y, kx, ly),
                            f"multiples {ctx.names(kx, ly)} of disjoint "
                            f"{ctx.names(x, y)} are not disjoint-joined",
                        )


def _l22iv_walk(ctx: _Ctx) -> tuple[int, int, _Failures]:
    """L2.2.iv over every orthogonal family, as one merged depth-first walk.

    Returns the exact failure total, the number of families checked and
    the first ``_WITNESS_CAP`` failures in report order: families in
    preorder, each with its failing x ascending.  A family is two or
    more distinct nonzero members in ascending index with every prefix
    sum defined.  Its join is folded left to right; a family without one
    is skipped, and so is every extension of it, which lacks a join too.
    Per family, an x compatible with every member fails when
    ``x ^ join`` differs from the join of the ``x ^ y`` (or either is
    missing), and otherwise when x is not compatible with the join.

    A node of the walk is a family prefix: the next index, the running
    sum and join b, the ``alive`` mask of x compatible with every member,
    and the deviating x, whose running join of meets is not ``x ^ b``,
    with that running value.  For every other alive x the check when y
    joins depends only on (b, y), so one failure mask per pair covers
    them all.  Everything below a node depends only on its state, so
    equal states are walked once and their totals reused, together with
    the node's first ``_WITNESS_CAP`` failures, kept relative to it; a
    parent prefixes them with the member it adds.
    """
    E = ctx.E
    n = E.size
    table, meet, join, join_t = ctx.table, ctx.meet, ctx.join, ctx.join_t
    # ``col[y]`` masks the x with ``compat[x] >> y & 1``: the transpose,
    # since the relation is not assumed symmetric.
    rows = [format(mask, f"0{n}b")[::-1] for mask in ctx.compat]
    col = [int("".join(bits)[::-1], 2) for bits in zip(*rows)]
    # ``summands[s]`` lists the nonzero y with s + y defined, ascending.
    summands = [
        [y for y, v in enumerate(row) if v != _UNDEF and y != E.zero]
        for row in table
    ]
    # ``meet_col[b][x]`` is ``meet[x][b]``, a byte transpose, so each x's
    # join of meets is read in C through the padded joins.
    flat = b"".join(meet)
    meet_col = [flat[b::n] for b in range(n)]
    # ``fail_masks[b][y]``, built on first use: the x for which
    # ``x ^ (b v y)`` and ``(x ^ b) v (x ^ y)`` differ or one is missing.
    fail_masks: list[list[Optional[int]]] = [[None] * n for _ in range(n)]

    def fail_mask(b: int, y: int) -> int:
        row = fail_masks[b]
        mask = row[y]
        if mask is None:
            lhs = meet_col[join[b][y]]
            rhs = bytes(map(getitem, map(join_t.__getitem__, meet_col[b]), meet_col[y]))
            mask = 0
            if rhs != lhs or _UNDEF in lhs:
                for x in compress(range(n), map(ne, rhs, lhs)):
                    mask |= 1 << x
                for x in compress(range(n), map(_UNDEF.__eq__, lhs)):
                    mask |= 1 << x
            row[y] = mask
        return mask

    def step(
        b: int, y: int, b2: int, alive: int, dev: _Deviating
    ) -> tuple[_Deviating, int]:
        """Grow a family with join b by y, to join b2.

        ``alive`` masks the x compatible with every member, y included.
        Returns the deviating x of the grown family, which are exactly
        the x failing its meet check, and the mask of the other alive x
        that are not compatible with b2.
        """
        devmask = 0
        out = []
        for x, rhs in dev:
            devmask |= 1 << x
            if alive >> x & 1:
                rhs = join_t[rhs][meet[x][y]]
                if rhs == _UNDEF or rhs != meet[x][b2]:
                    out.append((x, rhs))
        clean = alive & ~devmask
        bad = fail_mask(b, y) & clean
        while bad:
            x = (bad & -bad).bit_length() - 1
            bad &= bad - 1
            out.append((x, join_t[meet[x][b]][meet[x][y]]))
        out.sort()
        for x, _ in out:
            clean &= ~(1 << x)
        return tuple(out), clean & ~col[b2]

    def own(
        y: int, b2: int, dev2: _Deviating, odd: int, room: int
    ) -> tuple[_Found, ...]:
        """The first ``room`` failures of the family just grown by y, x
        ascending: ``None`` for a deviating x, b2 for one not compatible
        with b2."""
        out: list[tuple[int, Optional[int]]] = [(x, None) for x, _ in dev2]
        while odd:
            x = (odd & -odd).bit_length() - 1
            odd &= odd - 1
            out.append((x, b2))
        out.sort()
        return tuple((x, (y,), top) for x, top in out[:room])

    def below(y: int, found: tuple[_Found, ...], room: int) -> tuple[_Found, ...]:
        """A child's first ``room`` failures, prefixed with the member y."""
        return tuple((x, (y,) + members, top) for x, members, top in found[:room])

    memo: dict[tuple[int, int, int, int, _Deviating], _Node] = {}

    def count(i: int, s: int, b: int, alive: int, dev: _Deviating) -> _Node:
        """Failures, families and the first failures among the extensions
        of one node, each failure relative to the node."""
        failures = families = 0
        found: tuple[_Found, ...] = ()
        ys = summands[s]
        row = table[s]
        jb = join[b]
        masks = fail_masks[b]
        for y in ys[bisect_left(ys, i):]:
            b2 = jb[y]
            if b2 == _UNDEF:
                continue
            alive2 = alive & col[y]
            bad = 0
            if alive2:
                bad = masks[y]
                if bad is None:
                    bad = fail_mask(b, y)
            if dev or bad & alive2:
                dev2, odd = step(b, y, b2, alive2, dev)
            else:
                dev2, odd = (), alive2 & ~col[b2]
            families += 1
            if dev2 or odd:
                failures += len(dev2) + odd.bit_count()
                if len(found) < _WITNESS_CAP:
                    found += own(y, b2, dev2, odd, _WITNESS_CAP - len(found))
            s2 = row[y]
            later = summands[s2]
            if later and later[-1] > y:  # else no family extends this one
                key = (y + 1, s2, b2, alive2, dev2)
                sub = memo.get(key)
                if sub is None:
                    sub = memo[key] = count(*key)
                sub_failures, sub_families, sub_found = sub
                failures += sub_failures
                families += sub_families
                if sub_found and len(found) < _WITNESS_CAP:
                    found += below(y, sub_found, _WITNESS_CAP - len(found))
        return failures, families, found

    failures = families = 0
    found: tuple[_Found, ...] = ()
    for y in summands[E.zero]:
        sub_failures, sub_families, sub_found = count(y + 1, y, y, col[y], ())
        failures += sub_failures
        families += sub_families
        found += below(y, sub_found, _WITNESS_CAP - len(found))
    named = (
        (
            (x,) + members,
            f"meet of {E.names[x]} with the join of "
            f"{ctx.names(*members)} breaks distribution",
        )
        if top is None
        else (
            (x, top),
            f"{E.names[x]} fails to commute with the family join {E.names[top]}",
        )
        for x, members, top in found
    )
    return failures, families, named


def _l22iv_fast(ctx: _Ctx) -> Optional[int]:
    """The number of families :func:`_l22iv_walk` checks, when no family
    can fail it; ``None`` when that is not shown.

    It is shown on byte rows when every compatibility mask is full and,
    for every x and every pair (b, y), ``b v y`` and ``x ^ (b v y)``
    exist and equal ``(x ^ b) v (x ^ y)``.  Then the walk's ``alive``
    mask stays full, its failure mask is empty on every pair it could
    visit, no deviating x arises and no join is missing, so no family
    fails and none is skipped.  This reads the tables as they are and
    does not rely on the axioms; on a lattice effect algebra with every
    pair compatible, an MV-effect algebra, the lattice is distributive
    and the check always passes.  Per x, the left side is the flat join
    matrix translated through x's meet row, and the right side joins,
    for each b, x's meet row translated through the joins of ``x ^ b``.

    The families are then every ascending run of two or more nonzero
    members with every prefix sum defined.  With y_k the k-th nonzero
    element, the runs from index k on that extend a running sum s number
    g_k(s) = g_{k+1}(s) + [s + y_k defined]·(1 + g_{k+1}(s + y_k)), so
    all runs from zero number g_0(0), of which n - 1 are single members.
    """
    n = ctx.E.size
    full = (1 << n) - 1
    if any(mask != full for mask in ctx.compat):
        return None
    flat = b"".join(ctx.join)
    for meets, through in zip(ctx.meet, ctx.meet_t):
        left = flat.translate(through)
        if _UNDEF in left:
            return None
        right = b"".join(map(meets.translate, map(ctx.join_t.__getitem__, meets)))
        if left != right:
            return None
    runs = [0] * n
    for y in reversed(range(n)):
        if y != ctx.E.zero:
            runs = [
                g if s == _UNDEF else g + 1 + runs[s]
                for g, s in zip(runs, ctx.table[y])
            ]
    return runs[ctx.E.zero] - (n - 1)


def _law_l22iv(ctx: _Ctx) -> LawResult:
    if _l22iv_fast(ctx) is not None:
        return LawResult("L2.2.iv", PASS)
    total, _, failures = _l22iv_walk(ctx)
    return _collect("L2.2.iv", failures, total)


def _law_l23i(ctx: _Ctx) -> _Failures:
    E = ctx.E
    for a in ctx.atoms:
        ms = ctx.multiples[a]
        for k in range(1, len(ms)):  # 1 .. ord-1
            ka = ms[k - 1]
            m = ctx.meet[ka][E.supplement[ka]]
            if m == _UNDEF:
                yield (
                    (a, ka),
                    f"{E.names[ka]} and its supplement have no meet",
                )
            elif m == E.zero:
                yield (
                    (a, ka),
                    f"proper multiple {E.names[ka]} of atom {E.names[a]} is sharp",
                )


def _law_l23ii(ctx: _Ctx) -> _Failures:
    E = ctx.E
    sharp = ctx.profile.sharp
    for a in ctx.atoms:
        ms = ctx.multiples[a]
        full = ms[-1]
        if full not in sharp:
            yield (
                (a, full),
                f"full multiple {E.names[full]} of atom {E.names[a]} is not sharp",
            )
        for k in range(1, len(ms)):
            ka = ms[k - 1]
            if ka in sharp:
                yield (
                    (a, ka),
                    f"proper multiple {E.names[ka]} of atom {E.names[a]} is sharp",
                )


def _law_l23iii(ctx: _Ctx) -> _Failures:
    """One mask per (a, k·a) holds the x between them that are no
    multiple of a, so the walk visits only those, each a failure."""
    E = ctx.E
    up, down = ctx.os.up, ctx.os.down
    for a in ctx.atoms:
        others = up[a] & ~ctx.multiple_masks[a]
        for ka in ctx.multiples[a]:
            stray = others & down[ka]
            while stray:
                x = (stray & -stray).bit_length() - 1
                stray &= stray - 1
                yield (
                    (a, x, ka),
                    f"{E.names[x]} sits between atom {E.names[a]} and "
                    f"{E.names[ka]} but is no multiple of it",
                )


def _law_l23iv(ctx: _Ctx) -> _Failures:
    """A pair (a, b) whose proper multiples of a miss every multiple of b,
    one mask test, cannot fail; the loop runs for the other pairs."""
    E = ctx.E
    masks = ctx.multiple_masks
    for a in ctx.atoms:
        ms_a = ctx.multiples[a]
        ord_a = len(ms_a)
        proper = masks[a] & ~(1 << ms_a[-1])
        for b in ctx.atoms:
            if a == b or not proper & masks[b]:
                continue  # for a == b: one atom's multiples are distinct
            ms_b = ctx.multiples[b]
            for k in range(1, ord_a):  # hypothesis asks k != ord(a)
                for l in range(1, len(ms_b) + 1):
                    if ms_a[k - 1] == ms_b[l - 1]:
                        yield (
                            (a, b, ms_a[k - 1]),
                            f"{k} copies of {E.names[a]} equal {l} copies "
                            f"of {E.names[b]}",
                        )


def _law_l23v(ctx: _Ctx) -> _Failures:
    """The greedy parts of each nonzero x join to x, all full iff x is sharp.

    The parts are those of :func:`~effalg.decompose.atomic_decomposition`,
    which takes atoms in ascending index order, read from its table in
    one pass; each element's join is folded left to right through the
    padded joins.  Off lattice order an element may have several
    decompositions, so the counterexample-mode count follows the atom
    order as the greedy decomposition does: example-2.5, where a + a =
    b + b, fails 4 instances in its bundled order and 1 with a and b
    swapped.
    """
    E = ctx.E
    sharp, iso = ctx.profile.sharp, ctx.profile.isotropic
    for x, parts in enumerate(_table(E).parts):
        if x == E.zero:
            continue
        j, all_full = E.zero, True
        for p in parts:
            j = ctx.join_t[j][ctx.multiples[p.atom][p.multiplicity - 1]]
            all_full = all_full and p.multiplicity == iso[p.atom]
        if j != x:
            yield (
                (x,),
                f"join of the greedy parts of {E.names[x]} is not {E.names[x]}",
            )
        if (x in sharp) != all_full:
            if x in sharp:
                reason = (
                    f"sharp {E.names[x]} decomposes with a proper multiple"
                )
            else:
                reason = (
                    f"non-sharp {E.names[x]} decomposes into full multiples only"
                )
            yield (x,), reason


def _law_t24(ctx: _Ctx) -> _Failures:
    """Every multiple of atom a lies above a, so a pair (a, b) can fail
    only where ``up[a]`` meets b's multiples.  It cannot where it meets
    none, or only b's full multiple and the full-index conditions hold:
    both bounds of a and b defined, a and b not compatible, and the full
    multiples nested.  Neither test depends on k; the loop runs for the
    other pairs."""
    E = ctx.E
    up = ctx.os.up
    for a in ctx.atoms:
        ms_a = ctx.multiples[a]
        for b in ctx.atoms:
            if a == b:
                continue  # the conclusion holds on the spot
            ms_b = ctx.multiples[b]
            ord_b = len(ms_b)
            above = up[a] & ctx.multiple_masks[b]
            if not above or (
                above == 1 << ms_b[-1]
                and _UNDEF not in (ctx.meet[a][b], ctx.join[a][b])
                and up[ms_a[-1]] >> ms_b[-1] & 1
                and not ctx.compat[a] >> b & 1
            ):
                continue
            for k in range(1, len(ms_a) + 1):
                for l in range(1, ord_b + 1):
                    if not ctx.os.leq(ms_a[k - 1], ms_b[l - 1]):
                        continue
                    if l < ord_b:
                        yield (
                            (a, b, ms_a[k - 1], ms_b[l - 1]),
                            f"{k} copies of {E.names[a]} fit below {l} copies "
                            f"of distinct atom {E.names[b]} short of its index",
                        )
                        continue
                    full_le = ctx.os.leq(ms_a[-1], ms_b[-1])
                    if _UNDEF in (ctx.meet[a][b], ctx.join[a][b]):
                        yield (
                            (a, b),
                            f"compatibility of atoms {ctx.names(a, b)} is not "
                            "evaluable (missing bounds)",
                        )
                    elif ctx.compat[a] >> b & 1 or not full_le:
                        yield (
                            (a, b),
                            f"distinct atoms {ctx.names(a, b)} with nested "
                            "multiples violate the full-index alternative",
                        )


def _law_t26(ctx: _Ctx) -> _Failures:
    """At most one all-proper family per sum, and nothing else beside it.

    The second half is justified for lattice algebras by kernel
    uniqueness: an element carrying an all-proper decomposition has sharp
    kernel zero, so every decomposition of it must also be all-proper and
    therefore the same multiset.  Stating it this way lets the check catch
    tables where one element is simultaneously a proper and a full
    multiple stack of different atoms.
    """
    E = ctx.E
    family_count = Counter(s for s, _, _ in ctx.atom_families)
    for s, count in sorted(ctx.proper_families.items()):
        if count > 1:
            yield (
                (s,),
                f"{E.names[s]} carries two distinct all-proper "
                "atom-multiple sums",
            )
        elif family_count[s] > 1:
            yield (
                (s,),
                f"{E.names[s]} has an all-proper sum and another "
                "decomposition beside it",
            )


def _law_t34(ctx: _Ctx) -> _Failures:
    E = ctx.E
    sharp = sum(1 << v for v in ctx.profile.sharp)
    proper = ctx.proper_families
    # rest[v][x] is x - v, defined for every v <= x
    rest = _difference_table(E)
    for x in range(E.size):
        if x == E.zero:
            continue
        # one form for a sharp x, and one per all-proper family summing to
        # x - v for each sharp v < x; none sums to x - x = 0
        forms = sharp >> x & 1
        below = ctx.os.down[x] & sharp
        while below:
            v = (below & -below).bit_length() - 1
            below &= below - 1
            forms += proper[rest[v][x]]
        if forms != 1:
            yield (
                (x,),
                f"{E.names[x]} admits {forms} sharp-plus-proper "
                "forms instead of exactly one",
            )


def _law_t35(ctx: _Ctx) -> _Failures:
    E = ctx.E
    for a in ctx.atoms:
        full = ctx.multiples[a][-1]
        cover = ctx.profile.sharp_cover[a]
        if cover != full:
            yield (
                (a, full) + ((cover,) if cover is not None else ()),
                f"sharp cover of atom {E.names[a]} is not its full multiple "
                f"{E.names[full]}",
            )


def _law_t41(ctx: _Ctx) -> _Failures:
    """Each atom family's full block sums to the sharp kernel of its sum
    x, and its partial block to a meager element.

    Both blocks are sub-families of an orthogonal family, so the sums
    that :attr:`_Ctx.atom_families` folds are defined and re-add to x
    (generalized associativity, Foulis and Bennett 1994); neither needs
    a check.
    """
    E = ctx.E
    for x, sf, sp in ctx.atom_families:
        if sf not in ctx.profile.sharp:
            yield (
                (x, sf),
                f"full block of a decomposition of {E.names[x]} sums to "
                f"non-sharp {E.names[sf]}",
            )
        elif sf != ctx.profile.sharp_kernel[x]:
            yield (
                (x, sf),
                f"full block of {E.names[x]} misses its greatest sharp "
                "lower bound",
            )
        elif sp not in ctx.profile.meager:
            yield (
                (x, sp),
                f"partial block of {E.names[x]} sums to non-meager {E.names[sp]}",
            )


def _law_t42(ctx: _Ctx) -> LawResult:
    E = ctx.E
    sub = extract_sharp(E)
    found = find_state(sub.algebra)
    if isinstance(found, InfeasibilityCertificate):
        return LawResult(
            "T4.2", PASS, (), "vacuous: the sharp subalgebra admits no states"
        )
    # smear_state itself checks that the result is a state on E and that
    # it restricts back to ``found``; it raises RuntimeError otherwise.
    try:
        smear_state(E, found)
    except (PreconditionFailed, InvalidState) as exc:
        return LawResult("T4.2", FAIL, ((E.zero,),), f"smearing failed: {exc}")
    return LawResult("T4.2", PASS)


def _law_se_subalgebra(ctx: _Ctx) -> _Failures:
    """The sharp set is closed under +.

    It holds 0 and 1 and is closed under supplement by definition:
    sharpness reads x and x' alike, and 0' = 1.  So closed under + it
    inherits Ei–Eiv from E and is a sub-effect algebra.
    """
    E = ctx.E
    sharp = sorted(ctx.profile.sharp)
    for i, x in enumerate(sharp):
        for y in sharp[i:]:
            s = ctx.table[x][y]
            if s != _UNDEF and s not in ctx.profile.sharp:
                yield (
                    (x, y, s),
                    f"sum of sharp {ctx.names(x, y)} lands outside the "
                    "sharp set",
                )


def _law_se_full_sublattice(ctx: _Ctx) -> _Failures:
    E = ctx.E
    sharp = sorted(ctx.profile.sharp)
    for i, x in enumerate(sharp):
        for y in sharp[i:]:
            m, j = ctx.meet[x][y], ctx.join[x][y]
            if m == _UNDEF or j == _UNDEF:
                yield (x, y), f"sharp pair {ctx.names(x, y)} lacks a bound"
                continue
            if m not in ctx.profile.sharp or j not in ctx.profile.sharp:
                yield (
                    (x, y),
                    f"a bound of sharp pair {ctx.names(x, y)} is not sharp",
                )


def _law_product_closure(ctx: _Ctx) -> LawResult:
    E = ctx.E
    # every finite algebra is atomic (StructureProfile), E and E x E alike
    if not (ctx.os.is_lattice and ctx.profile.sharply_dominating):
        return LawResult(
            "product-closure",
            SKIPPED,
            (),
            "hypothesis needs a lattice, atomic, sharply dominating algebra",
        )
    if E.size > _PRODUCT_FACTOR_CAP:
        return LawResult(
            "product-closure",
            SKIPPED,
            (),
            f"factor larger than {_PRODUCT_FACTOR_CAP} elements; the product "
            "acceptance suite covers big factors",
        )
    P = direct_product(E, E)
    missing = []
    if not derive_order(P).is_lattice:
        missing.append("lattice")
    if not structure_profile(P).sharply_dominating:
        missing.append("sharply dominating")
    if missing:
        return LawResult(
            "product-closure",
            FAIL,
            (),
            "the squared algebra lost: " + ", ".join(missing),
        )
    return LawResult("product-closure", PASS)


# Every law in report order.  A check returns its own ``LawResult`` or
# yields (witness, reason) pairs for ``_collect``.
_LAWS: dict[str, Callable[[_Ctx], LawResult | _Failures]] = {
    "L2.2.i": _law_l22i,
    "L2.2.ii": _law_l22ii,
    "L2.2.iii": _law_l22iii,
    "L2.2.iv": _law_l22iv,
    "L2.3.i": _law_l23i,
    "L2.3.ii": _law_l23ii,
    "L2.3.iii": _law_l23iii,
    "L2.3.iv": _law_l23iv,
    "L2.3.v": _law_l23v,
    "T2.4": _law_t24,
    "T2.6": _law_t26,
    "T3.4": _law_t34,
    "T3.5": _law_t35,
    "T4.1": _law_t41,
    "T4.2": _law_t42,
    "SE-subalgebra": _law_se_subalgebra,
    "SE-full-sublattice": _law_se_full_sublattice,
    "product-closure": _law_product_closure,
}

LAW_IDS = tuple(_LAWS)

# Laws that check their whole hypothesis themselves, in either mode.
_SELF_GATED_LAWS = ("product-closure",)


def run_law_suite(
    E: EffectAlgebra,
    selection: Optional[Iterable[str]] = None,
    counterexample_mode: bool = False,
) -> LawReport:
    """Run the selected laws (all by default) against one algebra.

    The laws run in ``LAW_IDS`` order, each once, however often and in
    whatever order ``selection`` names them; an unknown id raises
    ``KeyError``.

    ``counterexample_mode`` forces lattice-hypothesis laws to evaluate
    their conclusions on non-lattice inputs; see the module docstring.
    """
    if selection is None:
        chosen = list(LAW_IDS)
    else:
        selected = list(selection)
        unknown = [law for law in selected if law not in _LAWS]
        if unknown:
            raise KeyError(f"unknown law id(s): {', '.join(unknown)}")
        # LAW_IDS order, each selected law once
        chosen = [law for law in LAW_IDS if law in selected]
    ctx = _Ctx(E)
    off_lattice = not ctx.os.is_lattice and not counterexample_mode
    results = []
    for law in chosen:
        if off_lattice and law not in _SELF_GATED_LAWS:
            results.append(
                LawResult(law, SKIPPED, (), "algebra is not lattice-ordered")
            )
            continue
        outcome = _LAWS[law](ctx)
        if not isinstance(outcome, LawResult):
            outcome = _collect(law, outcome)
        results.append(outcome)
    return LawReport(E, tuple(results))
