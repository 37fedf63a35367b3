"""Axiom validation and the core table machinery."""

import dataclasses
import gc
import random
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effalg import (
    AxiomViolation,
    DuplicateName,
    EafDocument,
    EffectAlgebra,
    EffectAlgebraError,
    IndexOutOfRange,
    SizeLimit,
    SumTable,
    State,
    UnknownName,
    atomic_decomposition,
    basic_decomposition,
    boolean_algebra,
    build_effect_algebra,
    bundled_fixture,
    classify,
    derive_order,
    direct_product,
    extract_sharp,
    find_state,
    horizontal_sum,
    make_algebra,
    multiple,
    mv_chain,
    parse_eaf,
    run_law_suite,
    serialize_eaf,
    structure_profile,
    verify_axioms,
)
from effalg import core
from effalg.constructions import FIXTURE_FILES
from effalg.core import (
    _MAX_ELEMENTS,
    _WITNESS_CAP,
    Witnesses,
    _UNDEF,
    _eii,
)

from conftest import (
    differential_algebras,
    full_corpus,
    refuse_declared_sums,
    refuse_tuple_views,
    relabelled,
    spy_on_eii,
    zero_last,
)
from oracles import (
    close_table,
    decoded,
    encoded,
    oracle_atoms,
    oracle_axiom_errors,
    oracle_check_rows,
    oracle_eii_failures_near,
    oracle_leq,
    oracle_multiple,
    oracle_ord,
    table_dict,
)


def closed(size, zero, one, sums):
    return close_table(SumTable(size, zero, one, dict(sums)))


def with_zero_rows(table):
    full = dict(table.sums)
    for x in range(table.size):
        full.setdefault((table.zero, x), x)
        full.setdefault((x, table.zero), x)
    return full


def test_two_element_algebra_is_valid():
    report = verify_axioms(closed(2, 0, 1, {}))
    assert report.ok


def test_zero_equal_one_is_a_closure_violation():
    report = verify_axioms(SumTable(1, 0, 0, {}))
    assert not report.ok
    assert report.by_axiom("closure")


def test_missing_supplement_is_reported():
    report = verify_axioms(closed(3, 0, 2, {}))
    bad = report.by_axiom("Eiii")
    assert any(v.witnesses == (1,) for v in bad)


def test_double_supplement_is_reported():
    # 1 + 1 = top and 1 + 2 = top gives element 1 two supplements.
    report = verify_axioms(closed(4, 0, 3, {(1, 1): 3, (1, 2): 3}))
    assert any(v.witnesses[0] == 1 for v in report.by_axiom("Eiii"))


def test_idempotent_nonzero_sum_breaks_the_axioms():
    # a + a = a forces an infinite chain, caught through Eiii/Eiv fallout.
    report = verify_axioms(closed(3, 0, 2, {(1, 1): 1}))
    assert not report.ok


def test_one_plus_nonzero_is_reported():
    report = verify_axioms(closed(3, 0, 2, {(2, 1): 2, (1, 1): 2}))
    assert report.by_axiom("Eiv")


def test_associativity_violation_is_reported():
    # a+a=b and b+a undefined is fine, but a+(a+a) defined while
    # (a+a)+a is not must be flagged when both groupings disagree.
    sums = {(1, 1): 2, (1, 2): 3, (2, 2): 4}
    # (1+1)+2 = 2+2 = 4 while 1+(1+2) = 1+3 undefined
    report = verify_axioms(closed(6, 0, 5, sums))
    assert any(
        v.witnesses == (1, 1, 2) for v in report.by_axiom("Eii")
    )


def clash_report(make, *args):
    """The report of the AxiomViolation that ``make(*args)`` raises."""
    with pytest.raises(AxiomViolation) as err:
        make(*args)
    return err.value.report


def test_conflicting_declarations_are_an_ei_violation():
    sums = {(1, 2): 3, (2, 1): 0}
    report = clash_report(make_algebra, ("0", "a", "b", "1"), 0, 3, sums)
    assert report.by_axiom("Ei") == (
        core.Violation(
            "Ei", (2, 1), "element 2 + element 1 is declared as both element 3 and element 0"
        ),
    )
    assert report.totals["Ei"] == 1
    assert report == verify_axioms(SumTable(4, 0, 3, sums))


def test_declared_zero_row_conflict_is_closure_violation():
    # Straight to the checker: a raw table contradicting the zero row in
    # both orders, one clashing pair.
    report = verify_axioms(SumTable(3, 0, 2, {(0, 1): 2, (1, 0): 2}))
    assert report.by_axiom("closure") == (
        core.Violation(
            "closure",
            (0, 1, 2),
            "declared element 0 + element 1 = element 2 contradicts the implied zero row",
        ),
    )
    assert report.totals["closure"] == 1
    # Through make_algebra, the same contradiction gives the same report.
    names = ("0", "a", "1")
    assert clash_report(make_algebra, names, 0, 2, {(0, 1): 2}) == verify_axioms(
        SumTable(3, 0, 2, {(0, 1): 2})
    )
    assert clash_report(make_algebra, names, 0, 2, {(1, 0): 2}).totals["closure"] == 1


@pytest.mark.parametrize(
    "sums, message",
    [
        ({(1, 1): 3}, r"\(1,1\)->3 out of range"),
        ({(1, 1): -1}, r"\(1,1\)->-1 out of range"),
        ({(1, 1): 1.5}, r"\(1, 1\)->1\.5 is not an index pair and an index"),
        ({(1, 1): "a"}, r"\(1, 1\)->'a' is not an index pair and an index"),
        ({(1,): 2}, r"\(1,\)->2 is not an index pair and an index"),
        ({(1.0, 1): 2}, r"\(1\.0, 1\)->2 is not an index pair and an index"),
        ({(1, "a"): 2}, r"\(1, 'a'\)->2 is not an index pair and an index"),
    ],
    ids=["3", "-1", "float", "str", "short-key", "float-x", "str-y"],
)
def test_unclosed_entry_out_of_range_is_a_named_error(sums, message):
    # Unchecked, these fail deep inside the check as an IndexError (3), a
    # negative shift count (-1), a TypeError (1.5, "a") or a ValueError
    # from unpacking the key (1,).
    with pytest.raises(IndexOutOfRange, match=message):
        verify_axioms(SumTable(3, 0, 2, sums))
    with pytest.raises(IndexOutOfRange, match=message):
        make_algebra(("0", "a", "1"), 0, 2, sums)


def test_bool_entries_are_not_indices():
    # bool is a subclass of int, but True is refused rather than read as 1
    message = r"\(True, True\)->2 is not an index pair and an index"
    with pytest.raises(IndexOutOfRange, match=message):
        make_algebra(("0", "a", "1"), 0, 2, {(True, True): 2})
    message = r"\(1, True\)->2 is not an index pair and an index"
    with pytest.raises(IndexOutOfRange, match=message):
        verify_axioms(SumTable(3, 0, 2, {(1, True): 2}))


@pytest.mark.parametrize("zero, one", [(0, 3), (-1, 2), (3, 0), (0.0, 2), (0, "1")])
def test_zero_or_one_out_of_range_is_a_named_error(zero, one):
    with pytest.raises(IndexOutOfRange, match="zero"):
        verify_axioms(SumTable(3, zero, one, {}))
    with pytest.raises(IndexOutOfRange, match="zero"):
        make_algebra(("0", "a", "1"), zero, one, {})


@pytest.mark.parametrize(
    "size, message",
    [
        (2.5, r"^size 2\.5 is not an element count$"),
        ("3", r"^size '3' is not an element count$"),
        (True, r"^size True is not an element count$"),
    ],
    ids=["size-float", "size-str", "size-bool"],
)
def test_a_size_that_is_not_an_int_is_a_named_error(size, message):
    # Unchecked, a float or a str fails as a bare TypeError while building
    # lookup rows, and True is read as 1.
    with pytest.raises(IndexOutOfRange, match=message):
        verify_axioms(SumTable(size, 0, 1, {}))


def test_a_table_above_255_elements_is_refused_before_it_is_checked():
    assert _MAX_ELEMENTS == 255
    chain = mv_chain(254)
    assert chain.size == 255
    assert verify_axioms(SumTable(255, 0, 254, table_dict(chain))).ok
    names = [f"e{i}" for i in range(256)]
    message = "^tables are checked up to 255 elements, not 256$"
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match=message):
        verify_axioms(SumTable(256, 0, 255, {}))
    with pytest.raises(SizeLimit, match=message):
        make_algebra(names, 0, 255, {(1, 1): 2})
    # refused from the size, before any row of a 10**9-element matrix
    with pytest.raises(SizeLimit, match="not 1000000000$"):
        verify_axioms(SumTable(10**9, 0, 1, {}))
    assert time.perf_counter() - start < 1


def test_out_of_range_is_still_a_value_error():
    assert issubclass(IndexOutOfRange, ValueError)
    with pytest.raises(ValueError):
        make_algebra(("0", "a", "1"), 0, 3, {})


def test_make_algebra_rejects_duplicate_names():
    with pytest.raises(ValueError):
        make_algebra(("0", "0"), 0, 1, {})


def test_duplicate_names_raise_a_named_error():
    assert issubclass(DuplicateName, EffectAlgebraError)
    with pytest.raises(DuplicateName, match="unique"):
        make_algebra(("0", "a", "a"), 0, 2, {})


def test_make_algebra_surfaces_axiom_report():
    with pytest.raises(AxiomViolation) as err:
        make_algebra(("0", "a", "1"), 0, 2, {})
    assert err.value.report.by_axiom("Eiii")


def test_supplement_lookup_matches_table():
    E = mv_chain(4)
    for x in range(E.size):
        assert E.table[x][E.supplement[x]] == E.one


def test_canonical_sums_are_sorted_without_zero():
    E = mv_chain(3)
    sums = E.canonical_sums()
    assert sums == sorted(sums)
    assert all(x <= y and x != E.zero and y != E.zero for x, y, _ in sums)
    # zero last (index 3): a + a = 2a and a + 2a = 1, as indices 0, 1, 2
    assert zero_last(E).canonical_sums() == [(0, 0, 1), (0, 1, 2)]


def test_partial_sum_and_difference_are_inverse(corpus, example_25, example_44):
    """E.diff agrees with a brute-force row scan, undefined cases included."""
    for name, E in corpus + [("ex25", example_25), ("ex44", example_44)]:
        for a in range(E.size):
            for b in range(E.size):
                solutions = [c for c in range(E.size) if E.table[a][c] == b]
                assert len(solutions) <= 1, (name, a, b)
                expected = solutions[0] if solutions else None
                assert E.diff(b, a) == expected, (name, a, b)


def test_an_index_outside_the_elements_is_refused_by_name():
    # mv_chain(3) has elements 0, a, 2a, 1; -1 would wrap round to 1 and
    # True would stand for a
    E = mv_chain(3)
    entry_points = {
        "diff as b": lambda x: E.diff(x, 0),
        "diff as a": lambda x: E.diff(3, x),
        "multiple": lambda x: multiple(E, x, 1),
        "atomic_decomposition": lambda x: atomic_decomposition(E, x),
        "basic_decomposition": lambda x: basic_decomposition(E, x),
    }
    for name, call in entry_points.items():
        for x in (-1, E.size, True):
            with pytest.raises(IndexOutOfRange) as err:
                call(x)
            assert isinstance(err.value, ValueError)
            assert str(err.value) == f"element index {x!r} is not in 0..3", name
        assert call(1) is not None, name


def test_multiple_counts_repeated_sums():
    E = mv_chain(5)
    a = E.index("a")
    assert multiple(E, a, 0) == E.zero
    assert multiple(E, a, 3) == E.index("3a")
    assert multiple(E, a, 5) == E.one
    assert multiple(E, a, 6) is None
    # a bool or a float is refused by name, as a negative count is
    for k in (True, 1.0, -1):
        with pytest.raises(ValueError) as err:
            multiple(E, a, k)
        assert str(err.value) == f"multiplicity {k!r} is not an int >= 0"


def test_multiple_against_the_oracle(corpus, example_25, example_37, example_44):
    fixtures = [("ex25", example_25), ("ex37", example_37), ("ex44", example_44)]
    for name, E in corpus + fixtures:
        for x in range(E.size):
            for k in range(oracle_ord(E, x) + 2):
                assert multiple(E, x, k) == oracle_multiple(E, x, k), (name, x, k)


def test_multiples_refuse_a_table_whose_multiples_never_end():
    # a + a = a, built from byte rows without the axiom check: a's
    # multiples would repeat
    rows = (bytes((0, 1, 2)), bytes((1, 1, _UNDEF)), bytes((2, _UNDEF, _UNDEF)))
    E = EffectAlgebra(("0", "a", "1"), 0, 2, rows, (2, 1, 0))
    with pytest.raises(RuntimeError) as err:
        multiple(E, 1, 1)
    assert str(err.value) == (
        "multiples of 1 exceed the element count; the table is not a valid "
        "effect algebra"
    )


def test_derived_data_is_kept_per_instance():
    E = mv_chain(3)
    assert derive_order(E) is derive_order(E)
    twin = mv_chain(3)
    assert twin is not E
    assert twin == E and hash(twin) == hash(E)
    assert derive_order(twin) is not derive_order(E)
    assert derive_order(twin) == derive_order(E)


def test_derived_data_is_released_with_its_algebra():
    E = mv_chain(3)
    derived = (E, derive_order(E), classify(E), structure_profile(E), extract_sharp(E))
    assert run_law_suite(E).ok  # product-closure also squares E
    refs = [weakref.ref(obj) for obj in derived]
    del E, derived
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_index_rejects_unknown_names():
    E = mv_chain(2)
    with pytest.raises(UnknownName):
        E.index("nope")


def test_build_from_document_resolves_names():
    doc = parse_eaf("ea v1\nelements 3\nnames 0 a 1\nzero 0\none 1\nsum a a = 1\n")
    E = build_effect_algebra(doc)
    assert isinstance(E, EffectAlgebra)
    assert E.table[E.index("a")][E.index("a")] == E.one


def test_build_rejects_conflicting_document_sums():
    doc = parse_eaf(
        "ea v1\nelements 4\nnames 0 a b 1\nzero 0\none 1\n"
        "sum a a = b\nsum a a = 1\n"
    )
    report = clash_report(build_effect_algebra, doc)
    assert report.by_axiom("Ei") == (
        core.Violation(
            "Ei", (1, 1), "element 1 + element 1 is declared as both element 2 and element 3"
        ),
    )
    assert report.totals["Ei"] == 1


def test_build_rejects_names_a_document_does_not_declare():
    # parse_eaf rules these out, so only a hand-built document has them.
    for zero, one, sums in [
        ("z", "1", ()),
        ("0", "1", (("a", "q", "1"),)),
        ("0", "1", (("a", "a", "q"),)),
    ]:
        doc = EafDocument(("0", "a", "1"), zero, one, sums)
        with pytest.raises(UnknownName, match="'[zq]'"):
            build_effect_algebra(doc)


def clashing_pairs(zero, decls):
    """The pairs whose declarations clash, as (Ei pairs, closure pairs).

    A pair with zero clashes when a declaration differs from the zero row;
    any other pair when two declarations, in either order, differ.
    """
    results = {}
    for x, y, z in decls:
        results.setdefault((min(x, y), max(x, y)), set()).add(z)
    ei, closure = set(), set()
    for (x, y), zs in results.items():
        if zero in (x, y):
            if zs != {y if x == zero else x}:
                closure.add((x, y))
        elif len(zs) > 1:
            ei.add((x, y))
    return ei, closure


@st.composite
def clashing_documents(draw):
    """Declarations on up to 6 elements, zero first, that repeat pairs in
    either order with random results, and the document naming them."""
    size = draw(st.integers(min_value=2, max_value=6))
    element = st.integers(min_value=0, max_value=size - 1)
    decls = draw(st.lists(st.tuples(element, element, element), max_size=24))
    names = tuple(str(i) for i in range(size))
    doc = EafDocument(
        names, "0", names[-1], tuple(tuple(names[i] for i in d) for d in decls)
    )
    return size, decls, doc


@given(clashing_documents())
@settings(max_examples=200, deadline=None)
def test_each_clashing_pair_is_one_violation_with_exact_totals(case):
    size, decls, doc = case
    ei, closure = clashing_pairs(0, decls)
    try:
        build_effect_algebra(doc)
        report = None
    except AxiomViolation as exc:
        report = exc.report
    if report is None:
        assert not ei and not closure
        return
    assert report.totals.get("Ei", 0) == len(ei)
    # zero and one differ (size >= 2), so every closure violation is a
    # clashing pair
    assert report.totals.get("closure", 0) == len(closure)
    kept = {tuple(sorted(v.witnesses[:2])) for v in report.by_axiom("Ei")}
    assert len(kept) == min(len(ei), _WITNESS_CAP) and kept <= ei
    kept = {tuple(sorted(v.witnesses[:2])) for v in report.by_axiom("closure")}
    assert len(kept) == min(len(closure), _WITNESS_CAP) and kept <= closure
    # and they are the first clashing pairs in declaration order, each as
    # its first clashing declaration gives it
    _, expected = expected_witnesses(size, 0, size - 1, decls)
    for label in ("Ei", "closure"):
        kept = [v.witnesses for v in report.by_axiom(label)]
        assert kept == expected[label][:_WITNESS_CAP], label
    # The first result declared for each ordered pair, as a dict holds it,
    # gives make_algebra the report verify_axioms gives on the same dict.
    sums = {}
    for x, y, z in decls:
        sums.setdefault((x, y), z)
    try:
        make_algebra(doc.names, 0, size - 1, sums)
    except AxiomViolation as exc:
        assert exc.report == verify_axioms(SumTable(size, 0, size - 1, sums))
    else:
        assert verify_axioms(SumTable(size, 0, size - 1, sums)).ok


def test_accepted_algebras_satisfy_the_oracle_axioms(corpus):
    for name, E in corpus:
        errors = oracle_axiom_errors(
            E.size,
            E.zero,
            E.one,
            {
                **table_dict(E),
                **{(x, E.zero): x for x in range(E.size)},
                **{(E.zero, x): x for x in range(E.size)},
            },
        )
        assert errors == [], f"{name}: {errors[:3]}"


@st.composite
def random_tables(draw):
    size = draw(st.integers(min_value=2, max_value=8))
    n_entries = draw(st.integers(min_value=0, max_value=20))
    sums = {}
    for _ in range(n_entries):
        x = draw(st.integers(min_value=1, max_value=size - 1))
        y = draw(st.integers(min_value=x, max_value=size - 1))
        z = draw(st.integers(min_value=0, max_value=size - 1))
        sums.setdefault((x, y), z)
    return size, sums


@given(random_tables())
@settings(max_examples=200, deadline=None)
def test_verdict_always_matches_the_oracle(table):
    size, sums = table
    closed_table = closed(size, 0, size - 1, sums)
    report = verify_axioms(closed_table)
    oracle_errors = oracle_axiom_errors(
        size, 0, size - 1, with_zero_rows(closed_table)
    )
    assert report.ok == (oracle_errors == [])
    assert_capped_totals_match_the_oracle(report, oracle_errors, closed_table)


def oracle_totals(oracle_errors):
    """Complaints per axiom label, for the labels a closed table can fail."""
    return {
        "Eii": sum(e.startswith("associativity") for e in oracle_errors),
        "Eiii": sum(e.endswith(" supplements") for e in oracle_errors),
        "Eiv": sum(e.startswith("one +") for e in oracle_errors),
    }


def oracle_eii_triples(oracle_errors):
    """The oracle's failing associativity triples, in the order found."""
    prefix = "associativity broken at "
    return [
        tuple(int(w) for w in e[len(prefix):].split(","))
        for e in oracle_errors
        if e.startswith(prefix)
    ]


def assert_capped_totals_match_the_oracle(report, oracle_errors, table):
    """``report`` is ``verify_axioms(table)``."""
    for axiom, expected in oracle_totals(oracle_errors).items():
        assert report.totals.get(axiom, 0) == expected, axiom
        assert len(report.by_axiom(axiom)) == min(expected, _WITNESS_CAP), axiom
    assert set(report.totals) <= {"Eii", "Eiii", "Eiv"}
    assert_the_eii_walk_finds(report, table, oracle_eii_triples(oracle_errors))


def assert_the_eii_walk_finds(report, table, triples):
    """``report``, from ``verify_axioms(table)``, and the Eii walk run on
    ``table``'s rows alone count ``triples`` and keep its first ones, and
    the walk keeps the report's very violations."""
    assert_eii_found(report.totals, report.by_axiom("Eii"), triples)
    found = eii_by_bytes(table)
    assert_eii_found(found.totals, found.kept, triples)
    assert tuple(found.kept) == report.by_axiom("Eii")


def assert_eii_found(totals, kept, triples):
    """Exact Eii total and the first ``_WITNESS_CAP`` triples, in order."""
    assert totals.get("Eii", 0) == len(triples)
    assert [v.witnesses for v in kept] == triples[:_WITNESS_CAP]


def eii_by_bytes(table):
    """What the Eii walk collects on a closed table's byte rows."""
    n = table.size
    sums = table.sums
    rows = [bytes(sums.get((x, y), 255) for y in range(n)) for x in range(n)]
    found = Witnesses()
    _eii(rows, table.zero, b"".join(rows), found)
    return found


@pytest.mark.parametrize(
    "sums",
    [
        # x + y undefined, x + (y + z) defined: 1 + 2 is undefined while
        # 1 + (2 + 2) = 1 + 3 = 4.
        {(2, 2): 3, (1, 3): 4, (3, 3): 5, (3, 4): 6, (1, 4): 6},
        # (x + y) + z defined, y + z undefined: (1 + 1) + 3 = 2 + 3 = 4
        # while 1 + 3 is undefined, and row 2 covers all of row 1.
        {(1, 1): 2, (1, 2): 3, (2, 2): 5, (2, 3): 4, (3, 3): 6},
    ],
    ids=["x+y-undefined", "row-of-x+y-wider"],
)
def test_eii_walk_counts_and_orders_triples_like_the_oracle(sums):
    table = closed(8, 0, 7, sums)
    report = verify_axioms(table)
    oracle_errors = oracle_axiom_errors(8, 0, 7, with_zero_rows(table))
    assert len(oracle_eii_triples(oracle_errors)) > _WITNESS_CAP
    assert_capped_totals_match_the_oracle(report, oracle_errors, table)


def test_dense_broken_table_keeps_capped_witnesses_and_exact_totals():
    # Every nonzero pair summed at random: tens of thousands of Eii failures.
    n = 40
    rng = random.Random(2016)
    sums = {(x, y): rng.randrange(n) for x in range(1, n) for y in range(x, n)}
    table = closed(n, 0, n - 1, sums)
    tracemalloc.start()
    try:
        report = verify_axioms(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    oracle_errors = oracle_axiom_errors(n, 0, n - 1, dict(table.sums))
    assert oracle_totals(oracle_errors)["Eii"] > 10_000
    assert_capped_totals_match_the_oracle(report, oracle_errors, table)
    # Keeping every Eii violation of this table peaks at about 16 MB; with
    # the cap only the lookup matrix and a handful of witnesses remain.
    assert peak < 1_000_000, peak
    message = str(AxiomViolation(report))
    assert message.endswith(f" (+{len(oracle_errors) - 3} more)")


def eii_pair_spans(triples):
    """(x, y) -> (first, last) position of that pair's failing triples."""
    spans = {}
    for i, (x, y, _) in enumerate(triples):
        first, _ = spans.get((x, y), (i, i))
        spans[(x, y)] = (first, i)
    return spans


@pytest.mark.parametrize(
    "size, sums",
    [
        # 1 + 1 = 2 while row 2 reaches 2..9 and row 1 only 1: the pair
        # (1, 1) fails at z = 2..9, outside 1's support, eight times.
        (12, {(1, 1): 2, **{(2, z): z + 1 for z in range(2, 10)}}),
        # Broken at random: (4, 4) fails at z = 1, 3 and 5 after four
        # failures of earlier pairs, so the cap falls on z = 3.
        (7, {(3, 4): 3, (1, 4): 3, (4, 4): 5, (1, 5): 2, (5, 5): 4}),
    ],
    ids=["outside-support", "inside-support"],
)
def test_eii_cap_crossed_partway_through_one_pair(size, sums):
    table = closed(size, 0, size - 1, sums)
    report = verify_axioms(table)
    oracle_errors = oracle_axiom_errors(size, 0, size - 1, dict(table.sums))
    triples = oracle_eii_triples(oracle_errors)
    first, last = eii_pair_spans(triples)[triples[_WITNESS_CAP - 1][:2]]
    assert first < _WITNESS_CAP - 1 and last >= _WITNESS_CAP
    assert_capped_totals_match_the_oracle(report, oracle_errors, table)


def test_eii_pair_past_the_cap_counts_z_outside_y_support():
    # 3 + 1 = 2 and 2 + 1 = 2, but 1 + 1 is undefined: (3, 1, 1) fails
    # with 1 outside row 1's support, and its pair comes after the cap.
    sums = {(3, 3): 4, (2, 2): 2, (1, 2): 2, (1, 3): 2}
    table = closed(5, 0, 4, sums)
    report = verify_axioms(table)
    oracle_errors = oracle_axiom_errors(5, 0, 4, dict(table.sums))
    triples = oracle_eii_triples(oracle_errors)
    spans = eii_pair_spans(triples)
    assert any(
        spans[(x, y)][0] >= _WITNESS_CAP
        and (x, y) in table.sums
        and (y, z) not in table.sums
        for x, y, z in triples
    )
    assert_capped_totals_match_the_oracle(report, oracle_errors, table)


@pytest.mark.parametrize("sums", [{}, {(1, 1): 0}, {(1, 1): 1}])
def test_two_element_tables_match_the_oracle(sums):
    table = closed(2, 0, 1, sums)
    report = verify_axioms(table)
    oracle_errors = oracle_axiom_errors(2, 0, 1, dict(table.sums))
    assert report.ok == (oracle_errors == [])
    assert_capped_totals_match_the_oracle(report, oracle_errors, table)


def test_row_whose_support_is_only_zero():
    # Element 2 sums with nothing but zero, while 1 + 1 = 0: so
    # 2 + (1 + 1) = 2 is defined and (2 + 1) + 1 is not.
    table = closed(4, 0, 3, {(1, 1): 0})
    assert [y for y in range(4) if (2, y) in table.sums] == [0]
    report = verify_axioms(table)
    oracle_errors = oracle_axiom_errors(4, 0, 3, dict(table.sums))
    assert (2, 1, 1) in oracle_eii_triples(oracle_errors)
    assert_capped_totals_match_the_oracle(report, oracle_errors, table)


def test_dense_random_tables_match_the_oracle():
    # Denser and larger than random_tables draws: 10-24 elements with up
    # to 70% of the nonzero pairs summed.
    rng = random.Random(1994)
    for _ in range(40):
        n = rng.randint(10, 24)
        density = rng.choice([0.05, 0.2, 0.4, 0.7])
        sums = {
            (x, y): rng.randrange(n)
            for x in range(1, n)
            for y in range(x, n)
            if rng.random() < density
        }
        table = closed(n, 0, n - 1, sums)
        report = verify_axioms(table)
        oracle_errors = oracle_axiom_errors(n, 0, n - 1, dict(table.sums))
        assert report.ok == (oracle_errors == [])
        assert_capped_totals_match_the_oracle(report, oracle_errors, table)


def test_make_algebra_table_and_supplement_match_brute_force(
    corpus, example_25, example_37, example_44
):
    fixtures = [("ex25", example_25), ("ex37", example_37), ("ex44", example_44)]
    for name, E in corpus + fixtures:
        n = E.size
        sums = {(x, y): z for x, y, z in E.canonical_sums()}
        full = close_table(SumTable(n, E.zero, E.one, dict(sums))).sums
        table = tuple(tuple(full.get((x, y)) for y in range(n)) for x in range(n))
        supplement = tuple(
            next(b for b in range(n) if table[a][b] == E.one) for a in range(n)
        )
        built = make_algebra(E.names, E.zero, E.one, sums)
        assert built.table == table == E.table, name
        assert built.supplement == supplement == E.supplement, name


# Sums of a chain changed, removed (None) or added, away from zero and one.
CHAIN_CORRUPTIONS = {
    (3, 7): 11,
    (100, 100): None,
    (200, 100): 254,
    (1, 253): 253,
    (50, 60): 0,
}


def corrupted_chain(k, changes):
    """``mv_chain(k)``'s closed table with ``changes`` made in both orders."""
    E = mv_chain(k)
    sums = table_dict(E)
    for (a, b), z in changes.items():
        for key in ((a, b), (b, a)):
            if z is None:
                sums.pop(key, None)  # (a, a) is one key
            else:
                sums[key] = z
    return SumTable(E.size, E.zero, E.one, sums)


@pytest.mark.parametrize("k", [254, 255])
def test_chain_tables_on_either_side_of_the_byte_limit(k):
    n = k + 1
    if n > _MAX_ELEMENTS:
        with pytest.raises(SizeLimit, match="^chains are provided for 1 <= n <= 254$"):
            mv_chain(k)
        return
    E = mv_chain(k)
    assert E.table == tuple(
        tuple(x + y if x + y <= k else None for y in range(n)) for x in range(n)
    )
    assert E.supplement == tuple(k - x for x in range(n))


def test_byte_rows_match_the_oracle_at_255_elements():
    table = corrupted_chain(254, CHAIN_CORRUPTIONS)
    assert table.size == 255
    triples = oracle_eii_failures_near(table.size, table.sums, CHAIN_CORRUPTIONS)
    assert len(triples) > _WITNESS_CAP
    report = verify_axioms(table)
    assert_the_eii_walk_finds(report, table, triples)


def test_an_algebra_keeps_the_byte_rows_its_check_read(corpus):
    for name, E in corpus + [("chain-255", mv_chain(254))]:
        index = {x: x for x in range(E.size)}
        rows, found = core._close_sums(E.size, E.zero, E.one, E.canonical_sums(), index)
        report, _ = core._check_rows(rows, E.zero, E.one, found)
        assert report.ok, name
        assert E.rows == tuple(rows), name
        assert E.rows == encoded(E.table), name


def _tampered(changes):
    """The rows of the chain 0 < a < 2a < 3a < 4a = 1 with each
    ``(x, y): z`` of ``changes`` written into row x, ``None`` for
    undefined."""
    rows = [bytearray(row) for row in mv_chain(4).rows]
    for (x, y), z in changes.items():
        rows[x][y] = _UNDEF if z is None else z
    return [bytes(row) for row in rows]


@pytest.mark.parametrize(
    "changes, label, witnesses",
    [
        # a + 2a defined one way round only
        ({(1, 2): None}, "Ei", (1, 2)),
        # zero + a = 2a, both ways round
        ({(0, 1): 2, (1, 0): 2}, "closure", (0, 1)),
        # a + a = 3a: then (a + a) + 2a is undefined, a + (a + 2a) is 1
        ({(1, 1): 3}, "Eii", (1, 1, 2)),
        # a + a = 1 as well as a + 3a = 1
        ({(1, 1): 4}, "Eiii", (1, 1, 3)),
        # 1 + a = 1 and a + 1 = 1
        ({(4, 1): 4, (1, 4): 4}, "Eiv", (1,)),
    ],
)
def test_the_rows_check_refuses_tampered_rows(changes, label, witnesses):
    names = ("0", "a", "2a", "3a", "1")
    with pytest.raises(AxiomViolation) as err:
        core._algebra(names, 0, 4, _tampered(changes), Witnesses())
    kept = err.value.report.by_axiom(label)
    assert kept and kept[0].witnesses == witnesses, err.value.report
    # untampered, the same rows make the chain
    assert core._algebra(names, 0, 4, _tampered({}), Witnesses()) == mv_chain(4)


def test_no_declared_sums_are_closed_for_a_construction(
    corpus, example_25, example_37, example_44, monkeypatch
):
    algebras = [
        E for _, E in differential_algebras(corpus, example_25, example_37, example_44)
    ]
    pairs = list(zip(algebras, reversed(algebras)))

    def build():
        fresh = [dataclasses.replace(E) for E in algebras]  # no memo yet
        return [
            full_corpus(),
            mv_chain(254),
            direct_product(mv_chain(14), mv_chain(16)),
            horizontal_sum([boolean_algebra(6)] * 4),
            [direct_product(E, F) for E, F in pairs if E.size * F.size <= 255],
            [horizontal_sum([E, F]) for E, F in pairs if min(E.size, F.size) > 2],
            [extract_sharp(E) for E in fresh],
            [run_law_suite(E, ["T4.2", "product-closure"]) for E in fresh],
        ]

    before = build()
    refuse_declared_sums(monkeypatch)
    assert build() == before
    with pytest.raises(AssertionError, match="declared sums were closed"):
        make_algebra(("0", "1"), 0, 1, {})


def test_the_tuple_views_decode_the_stored_rows(
    corpus, example_25, example_37, example_44, at_the_cap
):
    algebras = differential_algebras(corpus, example_25, example_37, example_44)
    for name, E in algebras + at_the_cap:
        os = derive_order(E)
        assert E.table == decoded(E.rows), name
        assert os.meet == decoded(os.meet_rows), name
        assert os.join == decoded(os.join_rows), name
        # each view is decoded once and kept
        assert E.table is E.table and os.meet is os.meet and os.join is os.join


def test_equality_and_hash_go_by_the_shown_fields():
    # twins built apart, and the one table published under two fixture ids
    first = full_corpus() + [(name, bundled_fixture(name)) for name in FIXTURE_FILES]
    second = full_corpus() + [(name, bundled_fixture(name)) for name in FIXTURE_FILES]
    for (name, E), (_, twin) in zip(first, second):
        assert E is not twin and E == twin and hash(E) == hash(twin), name

    def shown(E):
        return (E.names, E.zero, E.one, E.table, E.supplement)

    algebras = [E for _, E in first + second]
    for E in algebras:
        for F in algebras:
            assert (E == F) == (shown(E) == shown(F))
            assert E != F or hash(E) == hash(F)


def test_no_analysis_decodes_a_tuple_view_at_the_cap(at_the_cap, monkeypatch):
    refuse_tuple_views(monkeypatch)
    for name, E in at_the_cap:
        E = dataclasses.replace(E)  # a copy, with no view decoded yet
        classify(E)
        structure_profile(E)
        extract_sharp(E)
        for x in range(E.size):
            atomic_decomposition(E, x)
            basic_decomposition(E, x)
        assert isinstance(find_state(E), State), name
        assert run_law_suite(E).ok, name


# --- declared sums, closed in one pass in declaration order ----------------

SMALL_ALGEBRAS = [E for _, E in full_corpus() if E.size <= 8] + [
    bundled_fixture(name) for name in ("example-2.5", "example-4.4")
]


@st.composite
def declared_documents(draw):
    """A document of up to 8 elements: an algebra's sums or random ones,
    in random order, some pairs in both orientations, with exact repeats,
    consistent ``0 + x = x`` lines, dropped sums and likely clashes, and
    the names listed in a shuffled order."""
    if draw(st.booleans()):
        E = draw(st.sampled_from(SMALL_ALGEBRAS))
        n, zero, one, sums = E.size, E.zero, E.one, E.canonical_sums()
    else:
        n = draw(st.integers(min_value=2, max_value=8))
        element = st.integers(min_value=0, max_value=n - 1)
        zero, one = draw(element), draw(element)
        sums = draw(st.lists(st.tuples(element, element, element), max_size=20))
    element = st.integers(min_value=0, max_value=n - 1)
    decls = []
    for x, y, z in sums:
        if draw(st.integers(min_value=0, max_value=9)):  # one in ten dropped
            # one orientation, or both, or one twice
            decls += draw(st.sampled_from(
                [[(x, y, z)], [(y, x, z)], [(x, y, z), (y, x, z)], [(x, y, z)] * 2]
            ))
    decls += [
        (zero, x, x) if draw(st.booleans()) else (x, zero, x)
        for x in draw(st.lists(element, max_size=3))
    ]
    decls += draw(st.lists(st.tuples(element, element, element), max_size=2))
    decls = draw(st.permutations(decls))
    names = [f"e{i}" for i in range(n)]
    listed = tuple(draw(st.permutations(names)))
    return EafDocument(
        listed, names[zero], names[one], tuple(tuple(names[i] for i in d) for d in decls)
    )


def expected_witnesses(n, zero, one, decls):
    """The closure of ``decls``, ``(x, y, x + y)`` triples in order, in
    which the first result declared for a pair wins, as sums in both
    orientations, zero rows included; and per axiom label, the witnesses
    of its every violation, in report order: the first clashing
    declaration of each unordered pair, in declaration order, then the
    failures ``oracle_axiom_errors`` lists on the closure."""
    sums = {(zero, x): x for x in range(n)} | {(x, zero): x for x in range(n)}
    clashes = {}
    for x, y, z in decls:
        prior = sums.setdefault((x, y), z)
        sums[y, x] = prior
        if prior != z:
            clashes.setdefault(frozenset((x, y)), (x, y, z))
    clashes = list(clashes.values())
    expected = {
        "closure": [(zero,)] * (zero == one) + [c for c in clashes if zero in c[:2]],
        "Ei": [(x, y) for x, y, _ in clashes if zero not in (x, y)],
        "Eii": [],
        "Eiii": [],
        "Eiv": [],
    }
    for error in oracle_axiom_errors(n, zero, one, sums):
        words = error.replace(",", " ").split()
        if error.startswith("associativity broken at"):
            expected["Eii"].append(tuple(map(int, words[-3:])))
        elif error.endswith("supplements"):
            a = int(words[0])
            mates = [b for b in range(n) if sums.get((a, b)) == one]
            expected["Eiii"].append((a, *mates[:2]))
        elif error.startswith("one + "):
            expected["Eiv"].append((int(words[2]),))
        else:  # the closure is symmetric with zero rows
            assert error == "zero equals one"
    return sums, expected


def checked(build, *args):
    """The report that ``build(*args)`` returns or raises, and the rows of
    the algebra it returns, ``None`` when it returns none."""
    try:
        got = build(*args)
    except AxiomViolation as exc:
        return exc.report, None
    if isinstance(got, core.AxiomReport):
        return got, None
    return core.AxiomReport((), {}), got.rows


@given(declared_documents())
@settings(max_examples=300, deadline=None)
def test_declared_sums_close_in_declaration_order(doc):
    n = len(doc.names)
    position = {name: i for i, name in enumerate(doc.names)}
    zero, one = position[doc.zero], position[doc.one]
    decls = [tuple(map(position.__getitem__, d)) for d in doc.sums]
    raw = {}
    for x, y, z in decls:
        raw.setdefault((x, y), z)
    raw_decls = [(x, y, z) for (x, y), z in raw.items()]
    rows, _ = core._close_sums(n, doc.zero, doc.one, doc.sums, position)
    from_raw = [
        checked(make_algebra, doc.names, zero, one, raw),
        checked(verify_axioms, SumTable(n, zero, one, raw)),
    ]
    for declared, results in [
        (decls, [checked(build_effect_algebra, doc)]),
        (raw_decls, from_raw),
    ]:
        sums, expected = expected_witnesses(n, zero, one, declared)
        closure = tuple(
            bytes(sums.get((x, y), _UNDEF) for y in range(n)) for x in range(n)
        )
        if declared is decls:
            assert tuple(rows) == closure
        ei, clashing = clashing_pairs(zero, declared)
        assert len(expected["Ei"]) == len(ei)
        assert len(expected["closure"]) == len(clashing) + (zero == one)
        for report, built in results:
            assert built in (None, closure)
            assert set(report.totals) <= set(expected)
            for label, witnesses in expected.items():
                assert report.totals.get(label, 0) == len(witnesses), label
                kept = [v.witnesses for v in report.by_axiom(label)]
                assert kept == witnesses[:_WITNESS_CAP], label


def raised(build, *args):
    """What ``build(*args)`` raises, as its type and message, a report
    with violations counting as the AxiomViolation that carries it;
    ``None`` when it raises and reports nothing."""
    try:
        got = build(*args)
    except EffectAlgebraError as exc:
        return type(exc), str(exc)
    if isinstance(got, core.AxiomReport) and not got.ok:
        return AxiomViolation, str(AxiomViolation(got))
    return None


def names_256():
    return tuple(f"e{i}" for i in range(256))


COINCIDE = (AxiomViolation, "closure: zero and one coincide")
PAST_THE_CAP = (SizeLimit, "tables are checked up to 255 elements, not 256")
UNIQUE = (DuplicateName, "element names must be unique")

HAND_BUILT_DOCUMENTS = [
    # an unknown name in a sum, in zero and in one
    (
        EafDocument(("0", "a", "1"), "0", "1", (("a", "a", "1"), ("a", "q", "1"))),
        (UnknownName, "unknown element name 'q'"),
    ),
    (
        EafDocument(("0", "a", "1"), "0", "1", (("a", "a", "q"),)),
        (UnknownName, "unknown element name 'q'"),
    ),
    (
        EafDocument(("0", "a", "1"), "z", "1", (("a", "a", "1"),)),
        (UnknownName, "unknown element name 'z'"),
    ),
    (
        EafDocument(("0", "a", "1"), "0", "z", (("a", "a", "1"),)),
        (UnknownName, "unknown element name 'z'"),
    ),
    # duplicate names, with and without a clash
    (EafDocument(("0", "a", "a", "1"), "0", "1", (("a", "a", "1"),)), UNIQUE),
    (
        EafDocument(("0", "a", "a", "1"), "0", "1", (("a", "a", "1"), ("a", "a", "0"))),
        UNIQUE,
    ),
    # no names and one name
    (EafDocument((), "0", "1", ()), (UnknownName, "unknown element name '0'")),
    (EafDocument(("0",), "0", "0", ()), COINCIDE),
    (EafDocument(("0",), "0", "0", (("0", "0", "0"),)), COINCIDE),
    # 256 names, one past the cap
    (EafDocument(names_256(), "e0", "e255", ()), PAST_THE_CAP),
    (EafDocument(names_256(), "e0", "e255", (("e1", "e254", "e255"),)), PAST_THE_CAP),
]


@pytest.mark.parametrize(
    "doc, error",
    HAND_BUILT_DOCUMENTS,
    ids=[f"doc{i}" for i in range(len(HAND_BUILT_DOCUMENTS))],
)
def test_one_pass_agrees_with_the_sorted_walk_on_hand_built_documents(doc, error):
    # pinned as the sorted walk over declared sums gave them; none of them
    # reports a clash, so declaration order changes nothing here
    assert raised(build_effect_algebra, doc) == error


RAW_TABLES = [
    # an index out of range
    (3, 0, 2, {(1, 1): 3}, "sum entry (1,1)->3 out of range for size 3"),
    (3, 0, 2, {(1, -1): 2}, "sum entry (1,-1)->2 out of range for size 3"),
    (3, 0, 3, {}, "zero 0 or one 3 out of range for size 3"),
    (3, -1, 2, {}, "zero -1 or one 2 out of range for size 3"),
    # a bool is not an index, as in _check_index; one in each place
    (3, 0, 2, {(True, 1): 2}, "sum entry (True, 1)->2 is not an index pair and an index"),
    # not an int, not a pair: named by the type scan, before the size cap
    (3, 0, 2, {(1, 1): 2.0}, "sum entry (1, 1)->2.0 is not an index pair and an index"),
    (3, 0, 2, {1: 2}, "sum entry 1->2 is not an index pair and an index"),
    (3, 0, "2", {}, "zero 0 or one '2' is not an element index"),
    (0, 0, 0, {}, "zero 0 or one 0 out of range for size 0"),
    (1, 0, 0, {}, COINCIDE),
    (256, 0, 255, {}, PAST_THE_CAP),
    (3, False, 2, {}, "zero False or one 2 is not an element index"),
    (3, 0, True, {}, "zero 0 or one True is not an element index"),
    (3, 0, 2, {(1, True): 2}, "sum entry (1, True)->2 is not an index pair and an index"),
    (3, 0, 2, {(1, 1): True}, "sum entry (1, 1)->True is not an index pair and an index"),
]


@pytest.mark.parametrize(
    "size, zero, one, sums, error",
    RAW_TABLES,
    ids=[f"{t[0]}-{t[1]}-{t[2]}-sums{i}" for i, t in enumerate(RAW_TABLES)],
)
def test_raw_tables_agree_with_the_sorted_walk(size, zero, one, sums, error):
    # pinned as the sorted walk over declared sums gave them, in each
    # SumTable variant; none of them reports a clash, so declaration order
    # changes nothing here
    if isinstance(error, str):
        error = (IndexOutOfRange, error)
    names = tuple(f"e{i}" for i in range(size))
    assert raised(make_algebra, names, zero, one, sums) == error
    assert raised(verify_axioms, SumTable(size, zero, one, sums)) == error
    not_a_size = (IndexOutOfRange, f"size '{size}' is not an element count")
    assert raised(verify_axioms, SumTable(str(size), zero, one, sums)) == not_a_size
    scanned = error is not None and "is not an" in error[1]
    huge = SizeLimit, f"tables are checked up to 255 elements, not {size + 10**9}"
    assert raised(verify_axioms, SumTable(size + 10**9, zero, one, sums)) == (
        error if scanned else huge
    )
    if error is None:
        table = ((0, 1, 2), (1, 2, None), (2, None, None))
        assert make_algebra(names, zero, one, sums).table == table


def test_documents_round_trip_to_the_algebra(
    corpus, example_25, example_37, example_44, at_the_cap
):
    algebras = [E for _, E in corpus + at_the_cap] + [example_25, example_37, example_44]
    texts = [serialize_eaf(E) for E in algebras]
    assert [build_effect_algebra(parse_eaf(text)) for text in texts] == algebras


@st.composite
def any_rows(draw):
    """Byte rows of up to 7 elements, neither symmetric nor closed, any
    entry undefined, with zero and one anywhere, equal included."""
    n = draw(st.integers(min_value=1, max_value=7))
    entry = st.sampled_from([*range(n), _UNDEF])
    rows = [bytes(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(n)]
    element = st.integers(min_value=0, max_value=n - 1)
    return rows, draw(element), draw(element)


@st.composite
def supplemented_rows(draw):
    """Symmetric byte rows of 2 to 7 elements with the identity as zero
    row and exactly one supplement per element, the rows nearest an
    effect algebra's: supplements pair up zero with one and the other
    elements with each other or themselves, and every other entry is
    undefined or any element but one."""
    n = draw(st.integers(min_value=2, max_value=7))
    zero, one, *rest = draw(st.permutations(range(n)))
    mate = {zero: one, one: zero}
    while rest:
        x = rest.pop()
        y = rest.pop() if rest and draw(st.booleans()) else x
        mate[x], mate[y] = y, x
    entry = st.sampled_from([*(a for a in range(n) if a != one), _UNDEF])
    rows = [bytearray(n) for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            if zero in (x, y):
                z = x + y - zero
            else:
                z = one if mate[x] == y else draw(entry)
            rows[x][y] = rows[y][x] = z
    return [bytes(row) for row in rows], zero, one


@given(any_rows(), supplemented_rows())
@settings(max_examples=300, deadline=None)
def test_the_rows_check_agrees_with_the_walk_on_any_rows(case, supplemented):
    # the definitional walk over pairs and triples, on any rows and on
    # rows with the identity zero row and one supplement each
    for rows, zero, one in (case, supplemented):
        report, _ = core._check_rows(rows, zero, one, Witnesses())
        oracle = oracle_check_rows(rows, zero, one)
        assert report.violations == oracle.violations
        assert list(report.totals.items()) == list(oracle.totals.items())
    rows, zero, one = supplemented
    assert rows[zero] == bytes(range(len(rows)))
    assert all(row.count(one) == 1 for row in rows)


# --- Eii compared on the atoms, and past them only where that fails --------


def test_the_generators_of_an_algebra_are_its_atoms(
    corpus, example_25, example_37, example_44, at_the_cap
):
    algebras = differential_algebras(corpus, example_25, example_37, example_44)
    for name, E in algebras + at_the_cap:
        rows = list(E.rows)
        found = Witnesses()
        compared = _eii(rows, E.zero, b"".join(rows), found).atoms
        assert not found.totals, name
        assert len(compared) == len(set(compared)), name
        assert set(compared) == oracle_atoms(E), name


def test_the_walk_an_algebra_keeps_orders_splits_and_finds_its_atoms(
    corpus, example_25, example_37, example_44, at_the_cap
):
    # the walk kept from the axiom check, read against the definitions: a
    # linear extension, the atoms in its order, and each other nonzero
    # element split once as an atom plus an element before it; a
    # dataclasses.replace copy keeps no walk and makes the same one
    named = differential_algebras(corpus, example_25, example_37, example_44)
    named += at_the_cap + [(f"{name}-zero-last", zero_last(E)) for name, E in at_the_cap]
    rng = random.Random(43)
    named += [
        (f"{name}-shuffled", relabelled(E, rng.sample(range(E.size), E.size)))
        for name, E in named
    ]
    for name, E in named:
        walk = core._walk(E)
        at = {x: i for i, x in enumerate(walk.order)}
        assert sorted(walk.order) == list(range(E.size)), name
        for x, below in oracle_leq(E).items():
            assert all(at[y] <= at[x] for y in below), name
        assert set(walk.atoms) == oracle_atoms(E), name
        assert sorted(walk.atoms, key=at.__getitem__) == list(walk.atoms), name
        others = set(range(E.size)) - {E.zero, *walk.atoms}
        assert sorted(x for x, _, _ in walk.splits) == sorted(others), name
        assert sorted(walk.splits, key=lambda s: at[s[0]]) == list(walk.splits), name
        for x, g, r in walk.splits:
            assert E.rows[g][r] == x, name
            assert g in walk.atoms and at[g] < at[x] and at[r] < at[x], name
        copy = dataclasses.replace(E)
        assert core._walk not in copy._memo, name
        assert core._walk(copy) == walk, name


def test_the_state_solver_profile_and_decompositions_make_no_second_walk(
    monkeypatch, example_44
):
    # each algebra is walked once, by the check that builds it: here the
    # horizontal sum, and then its sharp subalgebra
    blocks = [example_44, mv_chain(3), boolean_algebra(2)]
    calls = spy_on_eii(monkeypatch)
    E = horizontal_sum(blocks)
    structure_profile(E)
    find_state(E)
    for x in range(E.size):
        atomic_decomposition(E, x)
    assert len(calls) == 1
    extract_sharp(E)
    run_law_suite(E, counterexample_mode=True)
    assert len(calls) == 2


# Tables of at most five elements, each found by a search over such tables
# for the first that tells the walk from a broken variant of it.
FALL_THROUGH = {
    # 0 + 0 = 1 and 0 + 1 undefined: the walk, taking zero's row for the
    # identity, would skip zero, though zero's own triples fail
    "zero-row-not-identity": ([[1, 255], [0, 1]], 0, 1),
    # a + a = 1 as well as a + 3a = 1, in the chain 0 < a < ... < 4a = 1
    "no-unique-supplement": (
        [
            [0, 1, 2, 3, 4],
            [1, 4, 3, 4, 255],
            [2, 3, 4, 255, 255],
            [3, 4, 255, 255, 255],
            [4, 255, 255, 255, 255],
        ],
        0,
        4,
    ),
    # the first generator fails: (1 + 1) + 2 = 0 but 1 + (1 + 2) = 1
    "failing-generator": ([[0, 1, 2], [1, 2, 0], [2, 0, 0]], 0, 2),
    # 2 = 1 + 2 in generator 1's row, but 2 is not walked before itself:
    # it is compared, and its triples fail
    "reached-only-through-itself": ([[0, 1, 2], [1, 1, 2], [2, 1, 1]], 0, 2),
    # 1 fails, 2 passes and 3 fails; 4 = 2 + 3, but 3 is not good, so 4 is
    # compared, and its triples fail too
    "sum-with-a-failing-element": (
        [
            [0, 1, 2, 3, 4],
            [1, 2, 1, 4, 4],
            [2, 1, 2, 4, 4],
            [3, 4, 4, 2, 2],
            [4, 4, 4, 2, 2],
        ],
        0,
        4,
    ),
}


@pytest.mark.parametrize("case", FALL_THROUGH.values(), ids=FALL_THROUGH)
def test_each_fall_through_counts_every_triple(case):
    rows, zero, one = case
    rows = [bytes(row) for row in rows]
    report, _ = core._check_rows(rows, zero, one, Witnesses())
    oracle = oracle_check_rows(rows, zero, one)
    assert report.totals["Eii"] > 0
    assert report.violations == oracle.violations
    assert list(report.totals.items()) == list(oracle.totals.items())


CORPUS_ALGEBRAS = [E for _, E in full_corpus()]


@st.composite
def corpus_cells_changed(draw):
    """A corpus algebra's rows with one to three symmetric pairs of cells
    away from zero set to any element or undefined."""
    E = draw(st.sampled_from(CORPUS_ALGEBRAS))
    rows = [bytearray(row) for row in E.rows]
    element = st.sampled_from([x for x in range(E.size) if x != E.zero])
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        x, y = draw(element), draw(element)
        rows[x][y] = rows[y][x] = draw(st.sampled_from([*range(E.size), _UNDEF]))
    return [bytes(row) for row in rows], E.zero, E.one


@given(corpus_cells_changed())
@settings(max_examples=200, deadline=None)
def test_eii_totals_and_witnesses_match_every_triple_near_an_algebra(case):
    rows, zero, one = case
    report, _ = core._check_rows(rows, zero, one, Witnesses())
    oracle = oracle_check_rows(rows, zero, one)
    assert report.violations == oracle.violations
    assert list(report.totals.items()) == list(oracle.totals.items())
