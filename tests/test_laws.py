"""The executable law suite: green on lattices, documented breakage off them."""

import dataclasses

import pytest

from effalg import (
    LAW_IDS,
    boolean_algebra,
    build_effect_algebra,
    derive_order,
    direct_product,
    find_state,
    horizontal_sum,
    mv_chain,
    parse_eaf,
    run_law_suite,
)
from effalg import laws
from effalg.constructions import fixture_text
from effalg.core import _UNDEF, _WITNESS_CAP, _tuples
from effalg.laws import (
    __doc__ as LAWS_DOC,
    _LAWS,
    LawResult,
    _collect,
    _Ctx,
    _l22iv_fast,
    _l22iv_walk,
    _law_l22ii,
    _law_l22iii,
    _law_l22iv,
    _law_l23v,
)

from effalg.order import OrderStructure

from conftest import differential_algebras, interval_4_5_6, off_lattice, zero_last
from oracles import (
    oracle_atom_families,
    oracle_bounds,
    oracle_family_laws,
    oracle_l22i,
    oracle_l22ii,
    oracle_l22iii,
    oracle_l22iv,
    oracle_l23iii,
    oracle_l23iv,
    oracle_l23v,
    oracle_t24,
)

# Frozen status maps for counterexample mode on the bundled non-lattice
# tables.  Any drift, pass included, must be investigated rather than
# re-frozen blindly: the failing laws document exactly which lattice
# conclusions break in these algebras.
CX_SMALL = {
    "L2.2.i": "fail",
    "L2.2.ii": "fail",
    "L2.2.iii": "fail",
    "L2.2.iv": "pass",
    "L2.3.i": "pass",
    "L2.3.ii": "fail",
    "L2.3.iii": "fail",
    "L2.3.iv": "fail",
    "L2.3.v": "fail",
    "T2.4": "fail",
    "T2.6": "fail",
    "T3.4": "pass",
    "T3.5": "fail",
    "T4.1": "fail",
    "T4.2": "fail",
    "SE-subalgebra": "pass",
    "SE-full-sublattice": "pass",
    "product-closure": "skipped",
}

CX_STATELESS = {
    "L2.2.i": "fail",
    "L2.2.ii": "fail",
    "L2.2.iii": "fail",
    "L2.2.iv": "pass",
    "L2.3.i": "pass",
    "L2.3.ii": "pass",
    "L2.3.iii": "fail",
    "L2.3.iv": "pass",
    "L2.3.v": "fail",
    "T2.4": "fail",
    "T2.6": "fail",
    "T3.4": "fail",
    "T3.5": "pass",
    "T4.1": "fail",
    "T4.2": "fail",
    "SE-subalgebra": "pass",
    "SE-full-sublattice": "pass",
    "product-closure": "skipped",
}


def status_map(report):
    return {r.law: r.status for r in report.results}


def test_every_law_has_a_result_in_order():
    report = run_law_suite(mv_chain(3))
    assert tuple(r.law for r in report.results) == LAW_IDS


def test_docstring_table_lists_law_ids_in_report_order():
    lines = LAWS_DOC[LAWS_DOC.index("Law ids, in report order:"):].splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("==")]
    rows = lines[rules[0] + 1 : rules[1]]
    assert tuple(row.split()[0] for row in rows) == LAW_IDS


def test_all_laws_pass_on_small_lattices():
    samples = [
        mv_chain(1),
        mv_chain(4),
        boolean_algebra(2),
        horizontal_sum([mv_chain(2), mv_chain(4)]),
        direct_product(mv_chain(2), boolean_algebra(1)),
    ]
    for E in samples:
        report = run_law_suite(E)
        for r in report.results:
            assert r.status != "fail", (E.names, r)


def test_product_closure_runs_only_on_small_factors():
    small = run_law_suite(mv_chain(2), selection=["product-closure"])
    assert small.results[0].status == "pass"
    big = run_law_suite(mv_chain(8), selection=["product-closure"])
    assert big.results[0].status == "skipped"
    assert "factor" in big.results[0].reason


def test_selection_keeps_canonical_order():
    report = run_law_suite(mv_chain(3), selection=["T3.5", "L2.2.i"])
    assert [r.law for r in report.results] == ["L2.2.i", "T3.5"]


def test_a_repeated_law_id_runs_once():
    report = run_law_suite(
        mv_chain(3), selection=["T3.5", "L2.2.i", "T3.5", "L2.2.i"]
    )
    assert [r.law for r in report.results] == ["L2.2.i", "T3.5"]


def test_unknown_law_ids_are_rejected():
    with pytest.raises(KeyError):
        run_law_suite(mv_chain(2), selection=["L9.9"])
    # a repeated id does not hide an unknown one
    with pytest.raises(KeyError):
        run_law_suite(mv_chain(2), selection=["L2.2.i", "L2.2.i", "L9.9"])


def test_nonlattice_laws_are_skipped_not_passed(example_44):
    report = run_law_suite(example_44)
    for r in report.results:
        assert r.status == "skipped", r
    assert report.ok  # skipped is not a failure, but neither is it a pass


def test_counterexample_mode_statuses_are_frozen(example_25, example_37):
    for E in (example_25, example_37):
        report = run_law_suite(E, counterexample_mode=True)
        assert status_map(report) == CX_SMALL


def test_counterexample_mode_statuses_on_the_stateless_table(example_44):
    report = run_law_suite(example_44, counterexample_mode=True)
    assert status_map(report) == CX_STATELESS


def test_documented_witnesses_in_the_small_counterexample(example_25):
    E = example_25
    report = run_law_suite(E, counterexample_mode=True)
    a, b, dbl = E.index("a"), E.index("b"), E.index("2a")

    sharp_breaker = report.result("L2.3.ii")
    assert sharp_breaker.status == "fail"
    assert (a, dbl) in sharp_breaker.witnesses

    uniqueness = report.result("T2.6")
    assert uniqueness.status == "fail"
    assert (dbl,) in uniqueness.witnesses

    cover = report.result("T3.5")
    assert cover.status == "fail"
    assert cover.witnesses[0][:2] == (a, dbl)

    summable_without_join = report.result("L2.2.i")
    assert (a, b) in summable_without_join.witnesses


def test_double_of_both_atoms_is_the_same_element(example_25):
    # the uniqueness failure is genuine: two copies of either atom meet
    E = example_25
    a, b = E.index("a"), E.index("b")
    assert E.table[a][a] == E.table[b][b] == E.index("2a")


@pytest.mark.parametrize(
    "names, witnesses, reason",
    [
        (
            "names 0 a b ab 2a 1",
            ["ab", "2a", "1", "1"],
            "join of the greedy parts of ab is not ab (+3 more instances)",
        ),
        ("names 0 b a ab 2a 1", ["ab"], "join of the greedy parts of ab is not ab"),
    ],
    ids=["bundled-order", "atoms-swapped"],
)
def test_l23v_counterexample_count_follows_atom_order(names, witnesses, reason):
    # a + a = b + b = 2a, so 1 decomposes greedily as 2a + b when a has
    # the lower index and as 3b when b has it: off lattice order the
    # law's count describes the labelling, not the algebra
    text = fixture_text("example-2.5.eaf")
    assert "names 0 a b ab 2a 1\n" in text
    E = build_effect_algebra(parse_eaf(text.replace("names 0 a b ab 2a 1", names)))
    result = run_law_suite(E, ["L2.3.v"], counterexample_mode=True).results[0]
    assert result.status == "fail"
    assert [E.names[x] for (x,) in result.witnesses] == witnesses
    assert result.reason == reason


@pytest.mark.parametrize("mode", [False, True], ids=["lattice", "counterexample"])
def test_l22iii_does_not_depend_on_where_zero_sits(example_25, mode):
    for E in (mv_chain(4), example_25):
        moved = zero_last(E)
        assert moved.zero == moved.size - 1
        outcomes = []
        for A in (E, moved):
            result = run_law_suite(A, ["L2.2.iii"], counterexample_mode=mode)
            total = sum(1 for _ in _law_l22iii(_Ctx(A)))
            outcomes.append((result.results[0].status, total))
        assert outcomes[0] == outcomes[1], E.names
    assert outcomes[0] == (("fail" if mode else "skipped"), 2)


def test_full_suite_is_deterministic(example_25):
    one = run_law_suite(example_25, counterexample_mode=True)
    two = run_law_suite(example_25, counterexample_mode=True)
    assert one.results == two.results


def test_t42_vacuous_when_the_sharp_part_has_no_states():
    # two glued two-point chains: the halves supplement themselves, the
    # sharp part is {0, 1}, and it carries the unique two-point state,
    # so smearing runs; check it reports pass rather than vacuous skip
    E = horizontal_sum([mv_chain(2), mv_chain(2)])
    report = run_law_suite(E, selection=["T4.2"])
    assert report.results[0].status == "pass"


def test_l23v_folds_the_joins_of_the_greedy_parts_left_to_right():
    # The greedy parts of 1 are s0, s1 and s2.  With s01 v s2 read as
    # missing, the left fold (s0 v s1) v s2 is missing too, while a fold
    # from the right, s0 v (s1 v s2), would still reach 1.
    E = boolean_algebra(3)
    ctx, _, _ = tampered(E, join_entries=[((3, 4), None)])
    assert list(_law_l23v(ctx)) == oracle_l23v(E, join=_tuples(ctx.join))
    assert named(E, law_result(ctx, "L2.3.v")) == (
        "fail",
        "1",
        "join of the greedy parts of 1 is not 1",
    )


def l22iv_outcome(ctx, result=None):
    """The law's result and the walk's totals, shaped as oracle_l22iv's."""
    if result is None:
        result = _law_l22iv(ctx)
    total, families, _ = _l22iv_walk(ctx)
    return result.status, total, result.witnesses, result.reason, families


def suite_outcome(E):
    result = run_law_suite(E, ["L2.2.iv"], counterexample_mode=True).results[0]
    return l22iv_outcome(_Ctx(E), result)


def test_l22iv_matches_the_oracle_on_the_corpus(corpus):
    for name, E in corpus:
        assert suite_outcome(E) == oracle_l22iv(E), name


def test_l22iv_matches_the_oracle_off_lattice(example_25, example_37, example_44):
    for E in off_lattice(example_25, example_37, example_44):
        assert not derive_order(E).is_lattice
        assert suite_outcome(E) == oracle_l22iv(E), E.names


def tampered(E, meet_entries=(), compat_cleared=(), join_entries=(), **profile):
    """A law context whose meet and join byte rows have the given entries
    replaced (``None`` for a missing bound), whose compatibility masks
    lose the given (x, y) bits and whose structure profile has the given
    fields replaced.  Returns the context and the meets and compatibility
    masks as the oracles take them."""
    ctx = _Ctx(E)
    meet = [list(row) for row in ctx.os.meet]
    for (x, y), value in meet_entries:
        meet[x][y] = value
    join = [list(row) for row in ctx.os.join]
    for (x, y), value in join_entries:
        join[x][y] = value
    ctx.meet, ctx.join = (
        [bytes(_UNDEF if v is None else v for v in row) for row in rows]
        for rows in (meet, join)
    )
    compat = list(ctx.compat)
    for x, y in compat_cleared:
        compat[x] &= ~(1 << y)
    ctx.compat = tuple(compat)
    ctx.profile = dataclasses.replace(ctx.profile, **profile)
    return ctx, meet, compat


def test_l22iv_counts_and_orders_failures_like_the_oracle():
    # x = 0,0 has no meet with 0,a: every family holding 0,a fails the
    # meet check for it, all the way down the walk; eleven instances.
    E = direct_product(mv_chain(2), mv_chain(3))
    ctx, meet, _ = tampered(E, [((0, 1), None)])
    outcome = l22iv_outcome(ctx)
    assert outcome == oracle_l22iv(E, meet=meet)
    status, total, witnesses, reason, _ = outcome
    assert (status, total, len(witnesses)) == ("fail", 11, 6)
    assert witnesses[:2] == ((0, 1, 2), (0, 1, 2, 4))
    assert reason.endswith(" (+10 more instances)")


def test_l22iv_deviation_can_heal_further_down():
    # With 3a ^ 2a read as 0, 3a deviates in {a, 2a}; adding 3a brings
    # its join of meets back to 3a ^ 3a, so {a, 2a, 3a} passes.
    E = mv_chain(6)
    ctx, meet, _ = tampered(E, [((3, 2), 0)])
    assert _l22iv_fast(ctx) is None
    outcome = l22iv_outcome(ctx)
    assert outcome == oracle_l22iv(E, meet=meet)
    assert outcome[:4] == (
        "fail",
        1,
        ((3, 1, 2),),
        "meet of 3a with the join of a, 2a breaks distribution",
    )


def test_l22iv_interleaves_both_failure_kinds_by_x():
    # 0,0 no longer commutes with 1,1, and a,a has no meet with itself.
    E = direct_product(mv_chain(2), mv_chain(3))
    ctx, meet, compat = tampered(E, [((5, 5), None)], [(E.zero, E.one)])
    outcome = l22iv_outcome(ctx)
    assert outcome == oracle_l22iv(E, meet=meet, compat=compat)
    assert outcome[1] == 8
    assert (E.zero, E.one) in outcome[2]


@pytest.mark.parametrize(
    "make, families",
    [
        (lambda: mv_chain(30), 2004),
        (lambda: direct_product(mv_chain(7), mv_chain(7)), 4844),
        (lambda: boolean_algebra(6), 813),
    ],
    ids=["chain-31", "c8xc8", "boolean-64"],
)
def test_l22iv_checks_every_orthogonal_family(make, families):
    E = make()
    outcome = l22iv_outcome(_Ctx(E))
    assert outcome == oracle_l22iv(E)
    assert outcome == ("pass", 0, (), "", families)


def test_l22iv_family_count_on_a_61_element_chain():
    # Sets of two or more distinct positive integers summing to 60 or less.
    assert _l22iv_walk(_Ctx(mv_chain(60)))[:2] == (0, 101922)


def test_l22iv_reuses_a_node_with_failures_under_two_prefixes():
    # With 1 ^ 5a read as 7a, x = 1 fails exactly where 6a follows 5a:
    # 1 ^ (5a v 6a) = 6a, but (1 ^ 5a) v (1 ^ 6a) = 7a.  {a, 4a, 5a} and
    # {2a, 3a, 5a} reach one node of the walk (sum 10a, join 5a, next
    # index 6), which is walked once; its failure, 6a added, is reported
    # under both prefixes, third and fifth.
    E = mv_chain(16)
    ctx, meet, _ = tampered(E, [((E.one, 5), 7)])
    outcome = l22iv_outcome(ctx)
    assert outcome == oracle_l22iv(E, meet=meet)
    status, total, witnesses, _, _ = outcome
    assert (status, total) == ("fail", 9)
    assert witnesses == (
        (E.one, 1, 2, 5, 6),
        (E.one, 1, 3, 5, 6),
        (E.one, 1, 4, 5, 6),
        (E.one, 1, 5, 6),
        (E.one, 2, 3, 5, 6),
        (E.one, 2, 5, 6),
    )


@pytest.mark.parametrize("mode", [False, True], ids=["lattice", "counterexample"])
def test_l22ii_matches_the_oracle(corpus, example_25, example_37, example_44, mode):
    algebras = differential_algebras(corpus, example_25, example_37, example_44)
    assert len(algebras) > 100
    for name, E in algebras:
        expected = oracle_l22ii(E)
        assert list(_law_l22ii(_Ctx(E))) == expected, name
        result = run_law_suite(E, ["L2.2.ii"], counterexample_mode=mode).results[0]
        if mode or derive_order(E).is_lattice:
            assert result == _collect("L2.2.ii", iter(expected)), name
        else:
            assert result.status == "skipped", name


@pytest.mark.parametrize(
    "make, join_entries, meet_entries, total",
    [
        # 0 v a read as 2a: (0 v a) + a is 1, but a v 2a is 2a
        (lambda: mv_chain(3), [((0, 1), 2)], [], 2),
        # 2a v 3a read as missing, on one side only
        (lambda: mv_chain(6), [((2, 3), None)], [], 6),
        # 0,a v 0,2a read as a,2a one way and as missing the other, which
        # the loop never reads (y >= x) but the byte rows do
        (
            lambda: direct_product(mv_chain(2), mv_chain(3)),
            [((1, 2), 6), ((2, 1), None)],
            [],
            6,
        ),
        # joins of atom pairs of a Boolean algebra read as zero
        (lambda: boolean_algebra(3), [((1, 2), 0), ((2, 4), 0), ((4, 1), 0)], [], 2),
        # a meet tampered: L2.2.ii reads no meet and stays clean
        (lambda: mv_chain(6), [], [((3, 2), 0)], 0),
    ],
    ids=["chain-4", "chain-7", "c3xc4", "boolean-8", "meet-only"],
)
def test_l22ii_matches_the_oracle_on_tampered_tables(
    make, join_entries, meet_entries, total
):
    E = make()
    ctx, _, _ = tampered(E, meet_entries, join_entries=join_entries)
    found = list(_law_l22ii(ctx))
    assert found == oracle_l22ii(E, join=_tuples(ctx.join))
    assert len(found) == total


def test_l22iv_fast_path_counts_the_walks_families(
    corpus, example_25, example_37, example_44
):
    for name, E in differential_algebras(corpus, example_25, example_37, example_44):
        ctx = _Ctx(E)
        total, families, failures = _l22iv_walk(ctx)
        fast = _l22iv_fast(ctx)
        assert fast is None or (total, families) == (0, fast), name
        if name.split("-")[0] in ("chain", "boolean", "product"):
            assert fast is not None, name
        assert _law_l22iv(ctx) == _collect("L2.2.iv", failures, total), name


def test_l22iv_falls_back_to_the_walk_on_a_missing_join():
    # Every pair stays compatible, but a v 2a reads as missing: {a, 2a}
    # is skipped, and on {a, 3a} the join of 2a ^ a and 2a ^ 3a is missing.
    E = mv_chain(4)
    ctx, _, _ = tampered(E, join_entries=[((1, 2), None)])
    assert all(mask == (1 << E.size) - 1 for mask in ctx.compat)
    assert _l22iv_fast(ctx) is None
    total, families, failures = _l22iv_walk(ctx)
    assert (total, families) == (1, 1)
    assert _law_l22iv(ctx) == LawResult(
        "L2.2.iv",
        "fail",
        ((2, 1, 3),),
        "meet of 2a with the join of a, 3a breaks distribution",
    )


@pytest.mark.parametrize(
    "make, meet_entries, compat_cleared, witnesses",
    [
        # The tables are intact, but 0,0 no longer commutes with 1,1: the
        # one family joining to 1,1, {0,1; 1,0}, fails for x = 0,0.
        (lambda: direct_product(mv_chain(2), mv_chain(3)), [], [(0, 11)], ((0, 11),)),
        # 2a has no meet with 2a or 1, an up-set: where the meet of 2a with
        # a join is missing, so is the join of the meets, and the byte rows
        # agree there; only the missing meet itself sends this to the walk.
        (lambda: mv_chain(3), [((2, 2), None), ((2, 3), None)], [], ((2, 1, 2),)),
    ],
    ids=["c3xc4-compatibility", "chain-4-meets"],
)
def test_l22iv_falls_back_to_the_walk_on_a_tampered_context(
    make, meet_entries, compat_cleared, witnesses
):
    E = make()
    ctx, meet, compat = tampered(E, meet_entries, compat_cleared)
    assert _l22iv_fast(_Ctx(E)) == _l22iv_walk(ctx)[1]
    assert _l22iv_fast(ctx) is None
    outcome = l22iv_outcome(ctx)
    assert outcome == oracle_l22iv(E, meet=meet, compat=compat)
    assert outcome[:3] == ("fail", 1, witnesses)


def test_l22iv_fast_path_counts_the_families_of_a_255_element_chain():
    assert _l22iv_fast(_Ctx(mv_chain(254))) == 194_596_316_927


def test_the_law_suite_at_the_cap(at_the_cap):
    # All three are lattices, so counterexample mode would run the same
    # checks.  Every factor has more than 8 elements, so product-closure
    # is skipped.
    for name, E in at_the_cap:
        assert status_map(run_law_suite(E)) == {
            law: "skipped" if law == "product-closure" else "pass" for law in LAW_IDS
        }, name
    # The horizontal sum is not MV, so the walk runs there: no family
    # crosses a block, and each block holds boolean-64's 813 families.
    ctx = _Ctx(dict(at_the_cap)["hsum-4-boolean-64"])
    assert _l22iv_fast(ctx) is None
    assert _l22iv_walk(ctx)[:2] == (0, 4 * 813)


def test_l22iii_matches_the_oracle(corpus, example_25, example_37, example_44):
    algebras = [E for _, E in corpus] + off_lattice(example_25, example_37, example_44)
    algebras += [
        direct_product(mv_chain(7), mv_chain(7)),
        boolean_algebra(6),
        mv_chain(40),
    ]
    for E in algebras:
        assert list(_law_l22iii(_Ctx(E))) == oracle_l22iii(E), E.names


@pytest.mark.parametrize(
    "make, meet_entries, total",
    [
        # a ^ a read as 0: every defined ka + la fails
        (lambda: mv_chain(4), [((1, 1), 0)], 6),
        # a ^ b read as a: the only disjoint atom pair is gone
        (lambda: boolean_algebra(2), [((1, 2), 1)], 0),
        # 0,a read as disjoint from itself, and 0,2a ^ a,0 read as missing
        (
            lambda: direct_product(mv_chain(2), mv_chain(3)),
            [((1, 1), 0), ((2, 4), None)],
            4,
        ),
    ],
    ids=["chain-5", "boolean-4", "c3xc4"],
)
def test_l22iii_matches_the_oracle_on_tampered_meets(make, meet_entries, total):
    E = make()
    ctx, meet, _ = tampered(E, meet_entries)
    found = list(_law_l22iii(ctx))
    assert found == oracle_l22iii(E, meet=meet)
    assert len(found) == total


def test_split_blocks_of_every_atom_family_re_add(
    corpus, example_25, example_37, example_44
):
    # generalized associativity, which lets T4.1 read both block sums
    # unchecked
    algebras = [E for _, E in corpus] + off_lattice(example_25, example_37, example_44)
    for E in algebras:
        families = oracle_atom_families(E)
        for parts, s, full, proper in families:
            assert full is not None and proper is not None, (E.names, parts)
            assert E.table[full][proper] == s, (E.names, parts)
        assert _Ctx(E).atom_families == [(s, f, p) for _, s, f, p in families]


def test_family_laws_match_the_oracle(corpus, example_25, example_37, example_44):
    # statuses, witnesses, reasons and every failure of T2.6, T3.4 and
    # T4.1, in both modes
    laws_read = ["T2.6", "T3.4", "T4.1"]
    for name, E in differential_algebras(corpus, example_25, example_37, example_44):
        expected = oracle_family_laws(E)
        meet, join = oracle_bounds(E)
        lattice = None not in [v for row in meet + join for v in row]
        for law in laws_read:
            assert list(_LAWS[law](_Ctx(E))) == expected[law], (name, law)
        for mode in (False, True):
            report = run_law_suite(E, laws_read, counterexample_mode=mode)
            for result in report.results:
                failures = expected[result.law]
                if not lattice and not mode:
                    want = LawResult(
                        result.law, "skipped", (), "algebra is not lattice-ordered"
                    )
                elif not failures:
                    want = LawResult(result.law, "pass")
                else:
                    reason = failures[0][1]
                    if len(failures) > 1:
                        reason += f" (+{len(failures) - 1} more instances)"
                    witnesses = tuple(w for w, _ in failures[:_WITNESS_CAP])
                    want = LawResult(result.law, "fail", witnesses, reason)
                assert result == want, (name, mode)


def law_result(ctx, law):
    """The result ``run_law_suite`` gives ``law`` on the context."""
    outcome = _LAWS[law](ctx)
    return outcome if isinstance(outcome, LawResult) else _collect(law, outcome)


def named(E, result):
    """A result's status, its witnesses written as in the text report,
    and its reason."""
    witnesses = ";".join(",".join(E.names[x] for x in w) for w in result.witnesses)
    return result.status, witnesses, result.reason


# Every failing law on the bundled counterexamples, in counterexample mode.
CX_FAILURES = {
    "example-2.5": {
        "L2.2.i": ("a,b", "a, b are summable but lack a bound"),
        "L2.2.ii": (
            "a,b,0;a,b,a;a,b,b",
            "a, b have no join (+2 more instances)",
        ),
        "L2.2.iii": (
            "a,b,a,b;a,b,2a,b",
            "multiples a, b of disjoint a, b are not disjoint-joined "
            "(+1 more instances)",
        ),
        "L2.3.ii": ("a,2a", "full multiple 2a of atom a is not sharp"),
        "L2.3.iii": ("b,ab,1", "ab sits between atom b and 1 but is no multiple of it"),
        "L2.3.iv": ("b,a,2a", "2 copies of b equal 2 copies of a"),
        "L2.3.v": (
            "ab;2a;1;1",
            "join of the greedy parts of ab is not ab (+3 more instances)",
        ),
        "T2.4": (
            "a,b,a,2a;a,b;a,b,2a,2a;a,b;b,a;b,a",
            "1 copies of a fit below 2 copies of distinct atom b short of its "
            "index (+5 more instances)",
        ),
        "T2.6": ("2a", "2a has an all-proper sum and another decomposition beside it"),
        "T3.5": ("a,2a,1", "sharp cover of atom a is not its full multiple 2a"),
        "T4.1": (
            "2a,2a;1,2a",
            "full block of a decomposition of 2a sums to non-sharp 2a "
            "(+1 more instances)",
        ),
        "T4.2": ("0", "smearing failed: smearing needs a lattice-ordered algebra"),
    },
    "example-4.4": {
        "L2.2.i": (
            "a,b;a,c;b,c",
            "a, b are summable but lack a bound (+2 more instances)",
        ),
        "L2.2.ii": (
            "a,b,0;a,c,0;b,c,0;a,b,a;a,c,a;b,c,a",
            "a, b have no join (+11 more instances)",
        ),
        "L2.2.iii": (
            "a,b,a,b;a,c,a,c;b,c,b,c",
            "multiples a, b of disjoint a, b are not disjoint-joined "
            "(+2 more instances)",
        ),
        "L2.3.iii": (
            "a,2c,1;a,3b,1;b,2a,1;b,2c,1;c,2a,1;c,3b,1",
            "2c sits between atom a and 1 but is no multiple of it "
            "(+5 more instances)",
        ),
        "L2.3.v": (
            "2c;3b",
            "join of the greedy parts of 2c is not 2c (+1 more instances)",
        ),
        "T2.4": (
            "a,b,a,3b;a,b;a,b;a,b;a,c,a,2c;a,c",
            "1 copies of a fit below 3 copies of distinct atom b short of its "
            "index (+25 more instances)",
        ),
        "T2.6": (
            "2a;2c;3b;1",
            "2a carries two distinct all-proper atom-multiple sums "
            "(+3 more instances)",
        ),
        "T3.4": (
            "2a;2c;3b;1",
            "2a admits 2 sharp-plus-proper forms instead of exactly one "
            "(+3 more instances)",
        ),
        "T4.1": ("1,0", "full block of 1 misses its greatest sharp lower bound"),
        "T4.2": ("0", "smearing failed: smearing needs a lattice-ordered algebra"),
    },
}


@pytest.mark.parametrize("name", sorted(CX_FAILURES))
def test_counterexample_failures_are_frozen(name, example_25, example_44):
    E = {"example-2.5": example_25, "example-4.4": example_44}[name]
    report = run_law_suite(E, counterexample_mode=True)
    failed = {r.law: named(E, r)[1:] for r in report.results if r.status == "fail"}
    assert failed == CX_FAILURES[name]


# Each law that never fails on a valid table, and each failure branch that
# no table in this suite reaches, fails on a context with one derived table
# tampered.  In mv_chain(3) the elements are 0, a, 2a, 1, indices 0 to 3.


def test_l22i_fails_when_a_sum_is_not_join_plus_meet():
    E = mv_chain(3)
    ctx, _, _ = tampered(E, join_entries=[((1, 1), 2)])
    assert named(E, law_result(ctx, "L2.2.i")) == (
        "fail",
        "a,a",
        "sum of a, a differs from join-plus-meet",
    )


def test_l22ii_fails_when_a_join_does_not_commute_with_a_sum():
    E = mv_chain(3)
    ctx, _, _ = tampered(E, join_entries=[((0, 1), 2)])
    assert named(E, law_result(ctx, "L2.2.ii")) == (
        "fail",
        "0,a,a;0,a,2a",
        "joining 0, a does not commute with adding a (+1 more instances)",
    )


def test_l23i_fails_on_a_missing_meet_and_on_a_sharp_proper_multiple():
    E = mv_chain(4)
    ctx, _, _ = tampered(E, [((1, 3), None), ((2, 2), E.zero)])
    assert named(E, law_result(ctx, "L2.3.i")) == (
        "fail",
        "a,a;a,2a",
        "a and its supplement have no meet (+1 more instances)",
    )


def test_l23ii_fails_on_a_sharp_proper_multiple():
    E = mv_chain(3)
    ctx, _, _ = tampered(E, sharp=frozenset({0, 2, 3}))
    assert named(E, law_result(ctx, "L2.3.ii")) == (
        "fail",
        "a,2a",
        "proper multiple 2a of atom a is sharp",
    )


def test_t24_fails_when_atoms_with_nested_multiples_commute():
    E = horizontal_sum([mv_chain(2), mv_chain(2)])
    a, b = E.index("a"), E.index("b")
    ctx = _Ctx(E)
    ctx.compat = tuple(m | (1 << b) if x == a else m for x, m in enumerate(ctx.compat))
    assert named(E, law_result(ctx, "T2.4")) == (
        "fail",
        "a,b;a,b",
        "distinct atoms a, b with nested multiples violate the full-index "
        "alternative (+1 more instances)",
    )


def test_t41_fails_on_a_non_meager_partial_block():
    E = mv_chain(3)
    ctx, _, _ = tampered(E, meager=frozenset({E.zero}))
    assert named(E, law_result(ctx, "T4.1")) == (
        "fail",
        "a,a;2a,2a",
        "partial block of a sums to non-meager a (+1 more instances)",
    )


def test_t42_passes_vacuously_when_the_sharp_part_has_no_states(
    monkeypatch, example_44
):
    certificate = find_state(example_44)
    monkeypatch.setattr(laws, "find_state", lambda algebra: certificate)
    result = law_result(_Ctx(mv_chain(3)), "T4.2")
    assert result == LawResult(
        "T4.2", "pass", (), "vacuous: the sharp subalgebra admits no states"
    )


def test_se_subalgebra_fails_when_a_sum_of_sharp_elements_is_not_sharp():
    E = mv_chain(3)
    ctx, _, _ = tampered(E, sharp=frozenset({0, 1, 3}))
    assert named(E, law_result(ctx, "SE-subalgebra")) == (
        "fail",
        "a,a,2a",
        "sum of sharp a, a lands outside the sharp set",
    )


def test_se_full_sublattice_fails_on_a_missing_and_a_non_sharp_bound():
    E = mv_chain(3)
    ctx, _, _ = tampered(E, [((0, 3), None)], join_entries=[((0, 0), 1)])
    assert named(E, law_result(ctx, "SE-full-sublattice")) == (
        "fail",
        "0,0;0,1",
        "a bound of sharp pair 0, 0 is not sharp (+1 more instances)",
    )


def test_product_closure_fails_when_the_square_loses_a_property(monkeypatch):
    ctx = _Ctx(mv_chain(2))
    order, profile = laws.derive_order, laws.structure_profile
    monkeypatch.setattr(
        laws, "derive_order", lambda P: dataclasses.replace(order(P), is_lattice=False)
    )
    monkeypatch.setattr(
        laws,
        "structure_profile",
        lambda P: dataclasses.replace(profile(P), sharply_dominating=False),
    )
    assert law_result(ctx, "product-closure") == LawResult(
        "product-closure",
        "fail",
        (),
        "the squared algebra lost: lattice, sharply dominating",
    )


def test_a_law_missing_from_the_report_raises_key_error():
    report = run_law_suite(mv_chain(2), ["L2.2.i"])
    with pytest.raises(KeyError):
        report.result("T4.2")



# The laws whose instances a mask test or a selection in C clears, each
# with its definitional oracle: a brute force over tuple tables, in the
# loop's witness order.
PRECHECKED_ORACLES = {
    "L2.2.i": oracle_l22i,
    "L2.3.iii": oracle_l23iii,
    "L2.3.iv": oracle_l23iv,
    "L2.3.v": oracle_l23v,
    "T2.4": oracle_t24,
}


@pytest.mark.parametrize("law", list(PRECHECKED_ORACLES))
def test_prechecked_laws_match_their_oracles(
    law, corpus, example_25, example_37, example_44
):
    algebras = differential_algebras(corpus, example_25, example_37, example_44)
    algebras.append(("interval-4-5-6", interval_4_5_6()))
    for name, E in algebras:
        expected = PRECHECKED_ORACLES[law](E)
        assert list(_LAWS[law](_Ctx(E))) == expected, name
        for mode in (False, True):
            result = run_law_suite(E, [law], counterexample_mode=mode).results[0]
            if mode or derive_order(E).is_lattice:
                assert result == _collect(law, iter(expected)), (name, mode)
            else:
                assert result.status == "skipped", name


@pytest.mark.parametrize(
    "law, make, meet_entries, join_entries, compat_set, profile, total",
    [
        # a v a read as 2a, and a ^ 2a as missing
        ("L2.2.i", lambda: mv_chain(3), [((1, 2), None)], [((1, 1), 2)], [], {}, 2),
        # s0 v s1 read as s0: the folds of s01 and of 1 miss them, and s1
        # read as not sharp though its one part is full
        (
            "L2.3.v",
            lambda: boolean_algebra(3),
            [],
            [((1, 2), 1)],
            [],
            {"sharp": frozenset({0, 1, 3, 4, 5, 6, 7})},
            3,
        ),
        # 2a read as sharp, though its part is proper
        ("L2.3.v", lambda: mv_chain(3), [], [], [], {"sharp": frozenset({0, 2, 3})}, 1),
        # a ^ b read as missing one way: the loop runs for (a, b), and
        # both multiples of a lie below 3b, the unit, with the bounds missing
        (
            "T2.4",
            lambda: horizontal_sum([mv_chain(2), mv_chain(3)]),
            [((1, 2), None)],
            [],
            [],
            {},
            2,
        ),
        # a v b read as missing one way, and b read as compatible with a:
        # the loop runs for (a, b) and for (b, a), whose three multiples
        # of b lie below 2a, the unit
        (
            "T2.4",
            lambda: horizontal_sum([mv_chain(2), mv_chain(3)]),
            [],
            [((1, 2), None)],
            [(2, 1)],
            {},
            5,
        ),
    ],
    ids=["L2.2.i-chain-4", "L2.3.v-boolean-8", "L2.3.v-chain-4", "T2.4-meet", "T2.4-compat"],
)
def test_prechecked_laws_match_their_oracles_on_tampered_contexts(
    law, make, meet_entries, join_entries, compat_set, profile, total
):
    E = make()
    ctx, meet, compat = tampered(E, meet_entries, (), join_entries, **profile)
    for x, y in compat_set:
        compat[x] |= 1 << y
    ctx.compat = tuple(compat)
    oracle = {
        "L2.2.i": lambda: oracle_l22i(E, meet=meet, join=_tuples(ctx.join)),
        "L2.3.v": lambda: oracle_l23v(
            E, join=_tuples(ctx.join), sharp=ctx.profile.sharp
        ),
        "T2.4": lambda: oracle_t24(
            E, meet=meet, join=_tuples(ctx.join), compat=compat
        ),
    }[law]
    expected = oracle()
    assert list(_LAWS[law](ctx)) == expected
    assert len(expected) == total
    assert law_result(ctx, law) == _collect(law, iter(expected))


def test_t24_clears_the_atom_pairs_of_a_horizontal_sum_by_masks(monkeypatch):
    # Every atom lies below every other atom's full multiple, the unit,
    # and no two atoms of different blocks are compatible: the full-index
    # conditions clear each pair, and no pair is read from the order one
    # multiple at a time.
    def refuse(*args):
        raise AssertionError("T2.4 walked the multiples of a pair")

    E = horizontal_sum([mv_chain(2), mv_chain(3), mv_chain(4)])
    ctx = _Ctx(E)
    monkeypatch.setattr(OrderStructure, "leq", refuse)
    assert law_result(ctx, "T2.4") == LawResult("T2.4", "pass")


def test_l23iv_clears_the_atom_pairs_of_a_horizontal_sum_by_masks():
    # The multiples of two atoms meet only in the unit, the full multiple
    # of each: every pair is cleared by one mask test, and each atom's
    # multiples are read once, as the first atom of its pairs.
    class Spy(tuple):
        def __getitem__(self, x):
            read.append(x)
            return tuple.__getitem__(self, x)

    E = horizontal_sum([mv_chain(2), mv_chain(3), mv_chain(4)])
    ctx = _Ctx(E)
    assert len(ctx.multiple_masks) == 3
    read = []
    ctx.multiples = Spy(ctx.multiples)
    assert law_result(ctx, "L2.3.iv") == LawResult("L2.3.iv", "pass")
    assert read == ctx.atoms


# The full counterexample-mode report on the interval algebra of <4, 5, 6>
# with unit 15, each witness written as in the text report.
INTERVAL_REPORT = {
    "L2.2.i": (
        "fail",
        "4,5;5,6",
        "4, 5 are summable but lack a bound (+1 more instances)",
    ),
    "L2.2.ii": (
        "fail",
        "4,5,0;5,6,0;5,6,4;4,5,5;5,6,5;4,5,6",
        "4, 5 have no join (+5 more instances)",
    ),
    "L2.2.iii": (
        "fail",
        "4,5,4,5;5,6,5,6",
        "multiples 4, 5 of disjoint 4, 5 are not disjoint-joined (+1 more instances)",
    ),
    "L2.2.iv": (
        "fail",
        "9,4,6;11,4,6;9,4,11;11,6,9",
        "meet of 9 with the join of 4, 6 breaks distribution (+3 more instances)",
    ),
    "L2.3.i": ("pass", "", ""),
    "L2.3.ii": ("pass", "", ""),
    "L2.3.iii": (
        "fail",
        "5,9,15;5,11,15",
        "9 sits between atom 5 and 15 but is no multiple of it (+1 more instances)",
    ),
    "L2.3.iv": ("pass", "", ""),
    "L2.3.v": (
        "fail",
        "9;9;10;11;11;15",
        "join of the greedy parts of 9 is not 9 (+6 more instances)",
    ),
    "T2.4": (
        "fail",
        "4,5,4,10;4,5;6,5,6,10;6,5",
        "1 copies of 4 fit below 2 copies of distinct atom 5 short of its index "
        "(+3 more instances)",
    ),
    "T2.6": ("fail", "10", "10 has an all-proper sum and another decomposition beside it"),
    "T3.4": (
        "fail",
        "9;11",
        "9 admits 2 sharp-plus-proper forms instead of exactly one (+1 more instances)",
    ),
    "T3.5": ("fail", "5,15", "sharp cover of atom 5 is not its full multiple 15"),
    "T4.1": (
        "fail",
        "9,4;15,10;10,10;11,6;10,0",
        "full block of 9 misses its greatest sharp lower bound (+4 more instances)",
    ),
    "T4.2": ("fail", "0", "smearing failed: smearing needs a lattice-ordered algebra"),
    "SE-subalgebra": ("fail", "4,6,10", "sum of sharp 4, 6 lands outside the sharp set"),
    "SE-full-sublattice": (
        "fail",
        "4,6;9,11",
        "a bound of sharp pair 4, 6 is not sharp (+1 more instances)",
    ),
    "product-closure": (
        "skipped",
        "",
        "hypothesis needs a lattice, atomic, sharply dominating algebra",
    ),
}


def test_the_interval_algebra_report_is_frozen():
    E = interval_4_5_6()
    report = run_law_suite(E, counterexample_mode=True)
    assert {r.law: named(E, r) for r in report.results} == INTERVAL_REPORT
    assert sum(r.status == "fail" for r in report.results) == 14
