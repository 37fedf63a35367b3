"""State systems, exact solving, verification, restriction, and smearing."""

import random
import time
from fractions import Fraction as F
from functools import lru_cache
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effalg import (
    IndexOutOfRange,
    InfeasibilityCertificate,
    InvalidState,
    LinearSystem,
    PreconditionFailed,
    SizeLimit,
    State,
    boolean_algebra,
    build_effect_algebra,
    derive_order,
    direct_product,
    extract_sharp,
    find_state,
    horizontal_sum,
    mv_chain,
    parse_eaf,
    parse_state,
    restrict_to_sharp,
    serialize_state,
    smear_state,
    solve_exact,
    state_row_labels,
    state_system,
    verify_certificate,
    verify_state,
)
from effalg import core, states
from conftest import differential_algebras, full_corpus, relabelled, zero_last
from oracles import (
    dense_rows,
    find_state_by_full_system,
    fraction_verify_certificate,
    gaussian_solve,
    oracle_is_state,
    oracle_rank,
    oracle_smear,
    oracle_state_totals,
)


def test_state_system_has_anchor_rows():
    E = mv_chain(2)
    s = state_system(E)
    labels = state_row_labels(E)
    assert s.nvars == E.size
    assert len(s.coeffs) == len(labels)
    assert labels[-2] == "0 = 0"
    assert labels[-1] == "1 = 1"
    assert s.rhs[-2] == 0 and s.rhs[-1] == 1


def test_chain_state_is_equidistant():
    E = mv_chain(5)
    out = find_state(E)
    assert isinstance(out, State)
    assert out(E.index("a")) == F(1, 5)
    assert out(E.index("3a")) == F(3, 5)
    # forced: the whole system pins every value
    forced = gaussian_solve(dense_rows(state_system(E)), list(state_system(E).rhs))
    assert forced is not None
    for x in range(E.size):
        assert forced[x] == out(x)


def test_boolean_state_found_and_verified():
    E = boolean_algebra(3)
    out = find_state(E)
    assert isinstance(out, State)
    report = verify_state(E, {x: out(x) for x in range(E.size)})
    assert report.ok


@pytest.mark.parametrize(
    "E",
    [
        mv_chain(60),
        direct_product(mv_chain(7), mv_chain(7)),
        direct_product(mv_chain(10), mv_chain(10)),
    ],
    ids=["mv_chain(60)", "c8xc8", "c11xc11"],
)
def test_states_found_beyond_sixteen_elements(E):
    out = find_state(E)
    assert isinstance(out, State)
    assert verify_state(E, dict(enumerate(out.values))).ok


def test_sparse_rows_and_a_state_on_a_121_element_chain(corpus, example_44):
    # each row is v[z] - v[x] - v[y] = 0 by its definition, in any order
    # of the elements
    for name, E in corpus + [("ex44", example_44)] + shuffles(corpus, 39):
        s = state_system(E)
        for (x, y, z), row in zip(E.canonical_sums(), s.coeffs):
            want = [0] * E.size
            want[z] += 1
            want[x] -= 1
            want[y] -= 1
            assert row == tuple((j, c) for j, c in enumerate(want) if c), name
            assert len(row) <= 3, name
        assert s.coeffs[-2:] == (((E.zero, 1),), ((E.one, 1),)), name
    E = mv_chain(3)
    a, a2 = E.index("a"), E.index("2a")
    row = state_row_labels(E).index("a + a = 2a")
    assert state_system(E).coeffs[row] == ((a, -2), (a2, 1))
    E = mv_chain(120)
    out = find_state(E)
    assert isinstance(out, State)
    assert out(E.zero) == 0 and out(E.index("a")) == F(1, 120)
    for k in range(2, 120):
        assert out(E.index(f"{k}a")) == F(k, 120)
    assert out(E.one) == 1


def test_every_state_found_passes_the_bounded_check(
    corpus, example_25, example_37, example_44, at_the_cap
):
    fixtures = [("ex25", example_25), ("ex37", example_37), ("ex44", example_44)]
    denominators = []
    for name, E in corpus + fixtures + at_the_cap:
        out = find_state(E)
        if isinstance(out, InfeasibilityCertificate):
            continue
        values = parse_state(serialize_state(out), E)
        assert values == dict(enumerate(out.values)), name
        assert verify_state(E, values).ok, name
        denominators.append(lcm(*(v.denominator for v in out.values)))
    assert len(denominators) == len(corpus) + 2 + len(at_the_cap)
    assert max(denominators) == 254  # chain-255's, far below the limit
    assert max(denominators).bit_length() < states._MAX_DENOMINATOR_BITS


LIMIT_MESSAGE = (
    "^state values are checked over a common denominator of up to "
    f"{states._MAX_DENOMINATOR_BITS} bits$"
)


def test_a_common_denominator_below_the_limit_is_checked_and_past_it_refused():
    # values 1/q with distinct odd 4,000-digit q, about 13,300 bits each:
    # four of them stay below 2**16 bits, five pass it
    rng = random.Random(16)
    for k, refused in ((5, False), (6, True)):
        E = mv_chain(k)
        candidate = {x: F(1, rng.randrange(10**3999, 10**4000) | 1) for x in range(1, k)}
        candidate.update({E.zero: F(0), E.one: F(1)})
        if refused:
            with pytest.raises(SizeLimit, match=LIMIT_MESSAGE):
                verify_state(E, candidate)
        else:
            assert verify_state(E, candidate).totals == {"additivity": 6}


def test_hostile_denominators_are_refused_within_a_second():
    # 250 values with distinct odd 4,000-digit denominators, on an algebra
    # whose every element is sharp: their lcm has about 3.3 million bits,
    # and the check stops once it passes the limit
    E = horizontal_sum([boolean_algebra(6)] * 4)
    rng = random.Random(4000)
    denominators = set()
    while len(denominators) < E.size:
        denominators.add(rng.randrange(10**3999, 10**4000) | 1)
    candidate = {x: F(1, q) for x, q in enumerate(sorted(denominators))}
    started = time.perf_counter()
    with pytest.raises(SizeLimit, match=LIMIT_MESSAGE):
        verify_state(E, candidate)
    assert time.perf_counter() - started < 1.0


def test_a_value_past_the_digit_limit_is_refused_and_at_it_reported():
    # 2**-65535 has a 19,729-digit denominator: the common denominator
    # is within the bit limit, but no detail could print the value
    E = mv_chain(1)
    past = "^state values are checked up to 4300 digits above and below the line, not at "
    for candidate in (
        {E.zero: F(1, 2**65535), E.one: 1},
        {E.zero: 0, E.one: F(10**4300, 10**4300 + 1)},
        {E.zero: 0, E.one: -(10**4300)},
    ):
        with pytest.raises(SizeLimit, match=past):
            verify_state(E, candidate)
    # 4,300 digits above and below the line, the most a state file gives
    at = F(10**4300 - 1, 10**4300 - 2)
    assert str(at).count("9") == 4300 + 4299
    report = verify_state(E, {E.zero: 0, E.one: at})
    assert [v.detail for v in report.violations] == [
        f"value at one is {at}",
        f"value {at} at 1 is outside [0,1]",
    ]
    with pytest.raises(SizeLimit, match="numbers are read up to 4300 digits, not 4301"):
        parse_state(f"state v1\nvalue 0 0/1\nvalue 1 1/1{'0' * 4300}\n", E)
    assert parse_state(f"state v1\nvalue 0 0/1\nvalue 1 {at}\n", E)[E.one] == at


def test_stateless_fixture_yields_certificate(example_44):
    out = find_state(example_44)
    assert isinstance(out, InfeasibilityCertificate)
    assert out.gap > 0


def test_verify_state_rejects_floats():
    E = mv_chain(2)
    with pytest.raises(TypeError):
        verify_state(E, {0: 0.0, 1: 0.5, 2: 1.0})


def test_verify_state_rejects_bools():
    # bool is an int to Python, so True would otherwise pass as 1
    with pytest.raises(TypeError) as err:
        verify_state(mv_chain(1), {0: False, 1: True})
    assert str(err.value) == "state values must be exact rationals, not bools"


def test_verify_state_refuses_a_key_that_is_not_an_element():
    # True would stand for element 1, and keys outside 0..1 would be
    # passed over whatever they carry
    E = mv_chain(1)
    for candidate, key in [
        ({0: F(0), True: F(1)}, "True"),
        ({0: 0, 1: 1, 7: 5, -1: "x"}, "7"),
        ({0: 0, 1: 1, -1: "x"}, "-1"),
    ]:
        with pytest.raises(IndexOutOfRange) as err:
            verify_state(E, candidate)
        assert str(err.value) == f"element index {key} is not in 0..1"


def test_verify_state_flags_missing_and_range():
    E = mv_chain(2)
    report = verify_state(E, {E.zero: F(0), E.one: F(1)})
    assert any(v.axiom == "missing" for v in report.violations)
    report = verify_state(E, {0: F(0), 1: F(7, 2), 2: F(1)})
    assert any(v.axiom == "range" for v in report.violations)


def test_a_sum_with_a_missing_value_is_not_checked():
    # 0 < a < 2a < 3a < 1 with 2a missing: read as 0, it would fail
    # a + a = 2a, a + 2a = 3a and 2a + 2a = 1; only a + 3a = 1 is checked
    E = mv_chain(4)
    a, a3 = E.index("a"), E.index("3a")
    report = verify_state(E, {E.zero: F(0), a: F(1, 4), a3: F(1, 2), E.one: F(1)})
    assert report.totals == {"missing": 1, "additivity": 1}
    assert [v.witnesses for v in report.violations] == [(2,), (a, a3, E.one)]
    assert report.violations[1].detail == "a + 3a = 1 maps to 1/4 + 1/2 != 1"


def test_verify_state_flags_broken_additivity():
    E = mv_chain(2)
    a = E.index("a")
    report = verify_state(E, {E.zero: F(0), a: F(1, 3), E.one: F(1)})
    assert any(v.axiom == "additivity" for v in report.violations)


def test_verify_state_endpoint_violations():
    E = mv_chain(2)
    report = verify_state(E, {0: F(1, 2), 1: F(1, 2), 2: F(1)})
    assert any(v.axiom == "zero" for v in report.violations)
    report = verify_state(E, {0: F(0), 1: F(1, 2), 2: F(1, 2)})
    assert any(v.axiom == "one" for v in report.violations)


def test_faithfulness_flag():
    E = boolean_algebra(2)
    out = find_state(E)
    assert isinstance(out, State)
    values = {x: out(x) for x in range(E.size)}
    report = verify_state(E, values)
    faithful_expected = all(
        v != 0 for x, v in values.items() if x != E.zero
    )
    assert report.faithful == faithful_expected


def test_restriction_keeps_sharp_values():
    E = mv_chain(4)
    out = find_state(E)
    assert isinstance(out, State)
    restricted = restrict_to_sharp(E, out)
    sub = extract_sharp(E)
    for i, parent in enumerate(sub.to_parent):
        assert restricted(i) == out(parent)


def test_restriction_rejects_foreign_state():
    E, other = mv_chain(4), mv_chain(3)
    out = find_state(other)
    assert isinstance(out, State)
    with pytest.raises(InvalidState):
        restrict_to_sharp(E, out)


@pytest.mark.parametrize("size", [2, 5], ids=["short", "long"])
def test_restriction_rejects_a_state_without_one_value_per_element(size):
    E = mv_chain(3)
    s = State(E, tuple(F(k, size - 1) for k in range(size)))
    with pytest.raises(
        InvalidState, match="^the input state must live on the given algebra$"
    ):
        restrict_to_sharp(E, s)


def test_smearing_the_glued_chains():
    E = horizontal_sum([mv_chain(2), mv_chain(3)])
    sub = extract_sharp(E)
    omega = State(sub.algebra, (F(0), F(1)))
    smeared = smear_state(E, omega)
    assert smeared(E.index("a")) == F(1, 2)
    assert smeared(E.index("b")) == F(1, 3)
    assert smeared(E.index("2b")) == F(2, 3)
    assert smeared(E.zero) == 0 and smeared(E.one) == 1


def test_smearing_a_product_mixes_blocks():
    E = direct_product(boolean_algebra(1), mv_chain(2))
    sub = extract_sharp(E)
    values = {
        sub.algebra.index("0,0"): F(0),
        sub.algebra.index("1,0"): F(1, 2),
        sub.algebra.index("0,1"): F(1, 2),
        sub.algebra.index("1,1"): F(1),
    }
    omega = State(
        sub.algebra, tuple(values[i] for i in range(sub.algebra.size))
    )
    smeared = smear_state(E, omega)
    assert smeared(E.index("1,a")) == F(3, 4)
    assert smeared(E.index("0,a")) == F(1, 4)


def test_smearing_needs_a_lattice(example_25):
    sub = extract_sharp(example_25)
    omega = State(sub.algebra, (F(0), F(1)))
    with pytest.raises(PreconditionFailed):
        smear_state(example_25, omega)


def test_smearing_rejects_a_non_state():
    E = mv_chain(4)
    sub = extract_sharp(E)
    with pytest.raises(InvalidState):
        smear_state(E, State(sub.algebra, (F(1, 2), F(1))))


def test_smearing_rejects_more_values_than_sharp_elements():
    E = mv_chain(3)
    sub = extract_sharp(E)
    assert sub.algebra.size == 2
    with pytest.raises(
        InvalidState, match="^the input state must live on the extracted sharp subalgebra$"
    ):
        smear_state(E, State(sub.algebra, (F(0), F(1), F(1))))


def test_smearing_restricts_back_to_its_input(
    corpus, example_25, example_37, example_44
):
    # the corpus, the off-lattice algebras, their zero-last copies, three
    # larger lattices, and the corpus shuffled
    named = differential_algebras(corpus, example_25, example_37, example_44)
    refused = []
    for name, E in named + shuffles(corpus, 40):
        sub = extract_sharp(E)
        found = find_state(sub.algebra)
        if not isinstance(found, State):
            continue
        if not derive_order(E).is_lattice:
            with pytest.raises(
                PreconditionFailed, match="^smearing needs a lattice-ordered algebra$"
            ):
                smear_state(E, found)
            refused.append(name)
            continue
        smeared = smear_state(E, found)
        assert smeared.values == oracle_smear(E, found), name
        assert verify_state(E, dict(enumerate(smeared.values))).ok, name
        back = restrict_to_sharp(E, smeared)
        assert back.values == found.values, name
    assert refused == [name for name, _ in named if name.startswith("off-lattice")]


HSUM = Path(__file__).resolve().parent.parent / "src/effalg/fixtures/hsum-c2-c3.eaf"


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_effect_algebra(parse_eaf(HSUM.read_text(encoding="ascii"))),
        lambda: mv_chain(254),
        lambda: direct_product(mv_chain(14), mv_chain(16)),
        lambda: horizontal_sum([boolean_algebra(6)] * 4),
    ],
    ids=["hsum-c2-c3", "mv_chain(254)", "c15xc17", "h250"],
)
def test_smearing_equals_the_fraction_oracle(make):
    E = make()
    omega = find_state(extract_sharp(E).algebra)
    smeared = smear_state(E, omega)
    assert smeared.values == oracle_smear(E, omega)


def test_verify_state_takes_any_exact_rational():
    # a Rational that is neither a Fraction nor an int takes the slow path
    class Exact(F):
        pass

    E = mv_chain(2)
    assert verify_state(E, {0: 0, 1: Exact(1, 2), 2: 1}).ok
    report = verify_state(E, {0: 0, 1: Exact(1, 3), 2: 1})
    assert [v.detail for v in report.violations] == [
        "a + a = 1 maps to 1/3 + 1/3 != 1"
    ]


def test_verify_state_rejects_a_value_that_is_not_a_number():
    E = mv_chain(2)
    with pytest.raises(TypeError, match="^state value '1/2' is not a rational number$"):
        verify_state(E, {0: F(0), 1: "1/2", 2: F(1)})


def test_smearing_rejects_a_state_on_another_algebra():
    E = horizontal_sum([mv_chain(2), mv_chain(3)])
    with pytest.raises(
        InvalidState,
        match="^the input state must live on the extracted sharp subalgebra$",
    ):
        smear_state(E, State(mv_chain(2), (F(0), F(1, 2), F(1))))


def glued_chains_and_trivial_state():
    E = horizontal_sum([mv_chain(2), mv_chain(3)])
    return E, State(extract_sharp(E).algebra, (F(0), F(1)))


def multiples_of_a_read_as(monkeypatch, E, edit):
    """Make smearing read the multiples of E's atom a as ``edit`` of them."""
    real = states.multiples
    a = E.index("a")
    monkeypatch.setattr(
        states,
        "multiples",
        lambda E: tuple(edit(m) if m[:1] == (a,) else m for m in real(E)),
    )


def test_smearing_checks_that_a_kernel_is_sharp(monkeypatch):
    # a's multiples cut to (a,), so its last multiple, the sharp element
    # its share is read from, is a itself
    E, omega = glued_chains_and_trivial_state()
    multiples_of_a_read_as(monkeypatch, E, lambda m: m[:1])
    with pytest.raises(RuntimeError, match="^element 1 expected sharp$"):
        smear_state(E, omega)


def test_smearing_checks_its_result_is_a_state(monkeypatch):
    # a's multiples read (a, 1, 1), so its index reads 3 and its share 1/3
    E, omega = glued_chains_and_trivial_state()
    multiples_of_a_read_as(monkeypatch, E, lambda m: m + m[-1:])
    with pytest.raises(RuntimeError) as err:
        smear_state(E, omega)
    assert str(err.value) == (
        "smearing produced a non-state: a + a = 1 maps to 1/3 + 1/3 != 1"
    )


def test_smearing_an_int_valued_state_equals_the_fraction_one():
    # a State does not check its value types; each share is still exact
    E, omega = glued_chains_and_trivial_state()
    smeared = smear_state(E, State(omega.domain, (0, 1)))
    assert smeared.values == smear_state(E, omega).values
    assert {type(v) for v in smeared.values} == {F}


def test_smearing_checks_the_restriction_back(monkeypatch):
    E, omega = glued_chains_and_trivial_state()
    wrong = State(omega.domain, (F(0), F(1, 2)))
    monkeypatch.setattr(states, "restrict_to_sharp", lambda E, s: wrong)
    with pytest.raises(
        RuntimeError, match="^smeared state does not restrict to its input$"
    ):
        smear_state(E, omega)


CORPUS = full_corpus()


@lru_cache(maxsize=None)
def found_values(i):
    return find_state(CORPUS[i][1]).values


# Values an edit may give an element: in the box, at its ends and outside,
# with denominators other than the found state's, and as plain ints.
EDIT_VALUES = [
    F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(3, 2),
    F(1, 7), F(5, 9), F(1, 254), 0, 1,
]


@st.composite
def state_candidates(draw):
    """A corpus algebra and its found state, with some values replaced
    or dropped: zero and one may be edited like any other element."""
    i = draw(st.integers(0, len(CORPUS) - 1))
    E = CORPUS[i][1]
    candidate = dict(enumerate(found_values(i)))
    element = st.integers(0, E.size - 1)
    for x, value in draw(
        st.lists(st.tuples(element, st.sampled_from([None, *EDIT_VALUES])), max_size=4)
    ):
        if value is None:
            candidate.pop(x, None)
        else:
            candidate[x] = value
    return E, candidate


@settings(max_examples=300, deadline=None)
@given(state_candidates())
def test_verify_state_agrees_with_the_whole_table_oracle(case):
    E, candidate = case
    report = verify_state(E, candidate)
    assert report.ok == oracle_is_state(E, candidate)
    assert report.totals == oracle_state_totals(E, candidate)
    kinds = ["missing", "zero", "one", "range", "additivity"]
    kept = [v.axiom for v in report.violations]
    assert kept == sorted(kept, key=kinds.index)
    for kind, total in report.totals.items():
        assert kept.count(kind) == min(total, 6)


def test_verify_state_keeps_six_additivity_failures_and_counts_all():
    # a valued 1/3 on the 9-element chain: a + ka = (k+1)a fails, k = 1..7
    E = mv_chain(8)
    values = dict(enumerate(find_state(E).values))
    values[E.index("a")] = F(1, 3)
    report = verify_state(E, values)
    assert report.totals == {"additivity": 7}
    assert [v.witnesses for v in report.violations] == [
        (1, k, k + 1) for k in range(1, 7)
    ]
    assert report.violations[0].detail == "a + a = 2a maps to 1/3 + 1/3 != 1/4"


def shuffles(named, seed):
    """Each (name, algebra) with its elements in a seeded random order."""
    rng = random.Random(seed)
    return [
        (f"{name}-shuffled", relabelled(E, rng.sample(range(E.size), E.size)))
        for name, E in named
    ]


def stateless_sums(example_44):
    """The stateless horizontal sums with example-4.4 that the states-solve
    benchmark runs, by their ids there."""
    blocks = {
        "hsum-ex44-4": [mv_chain(3)],
        "hsum-ex44-5": [mv_chain(4)],
        "hsum-ex44-6-3": [mv_chain(5), mv_chain(2)],
        "hsum-ex44-ex44": [example_44],
        "hsum-ex44-ex44-ex44": [example_44, example_44],
    }
    return [(name, horizontal_sum([example_44, *rest])) for name, rest in blocks.items()]


def stateless_245(example_44):
    """example-4.4 glued to four 61-element chains: 245 elements."""
    return horizontal_sum([example_44] + [mv_chain(60)] * 4)


def test_states_exist_on_atom_coordinates_exactly_where_on_the_full_system(
    corpus, example_25, example_37, example_44, at_the_cap
):
    named = corpus + [("ex25", example_25), ("ex37", example_37), ("ex44", example_44)]
    named += [(f"{name}-zero-last", zero_last(E)) for name, E in corpus]
    named += at_the_cap + stateless_sums(example_44)
    named += [("hsum-ex44-4x61", stateless_245(example_44))]
    certificates = 0
    for name, E in named + shuffles(named, 38):
        got, want = find_state(E), find_state_by_full_system(E)
        assert type(got) is type(want), name
        if isinstance(got, State):
            assert oracle_is_state(E, dict(enumerate(got.values))), name
        else:
            # lifted from atom coordinates: it refutes E's own sum rows
            assert fraction_verify_certificate(state_system(E), got), name
            assert got.gap == 1, name
            atoms = set(core._walk(E).atoms)
            for x in set(range(E.size)) - atoms:
                assert got.upper_multipliers[x] == got.lower_multipliers[x] == 0, name
            certificates += 1
    # example-4.4, its five stateless sums and the 245-element one, each
    # also shuffled
    assert certificates == 2 * 7


def test_a_stateless_algebra_takes_one_solve(monkeypatch, example_44):
    calls = []

    def counted(system):
        calls.append(system)
        return solve_exact(system)

    monkeypatch.setattr(states, "solve_exact", counted)
    named = [("ex44", example_44), *stateless_sums(example_44)]
    for name, E in named + [("hsum-ex44-4x61", stateless_245(example_44))]:
        calls.clear()
        assert isinstance(find_state(E), InfeasibilityCertificate), name
        assert len(calls) == 1, name


def test_a_state_found_needs_no_full_system(monkeypatch, at_the_cap):
    def refused(E):
        raise AssertionError("state_system called on an algebra with states")

    monkeypatch.setattr(states, "state_system", refused)
    for name, E in at_the_cap:
        assert isinstance(find_state(E), State), name


def free_parameters(system):
    return system.nvars - oracle_rank(system)


def test_atom_rows_are_the_distinct_relations_up_to_sign(
    corpus, example_25, example_37, example_44
):
    named = corpus + [("ex25", example_25), ("ex37", example_37), ("ex44", example_44)]
    for name, E in named + stateless_sums(example_44):
        packed = states._classes(E)
        k = len(core._walk(E).atoms)
        dense = [
            [dict(states._unpacked(p)).get(j, 0) for j in range(k)]
            for p in packed
        ]
        want = set()
        for x, y, z in E.canonical_sums():
            r = tuple(a + b - c for a, b, c in zip(dense[x], dense[y], dense[z]))
            if any(r):
                last = next(v for v in reversed(r) if v)
                want.add(r if last > 0 else tuple(-v for v in r))
        s = states._atom_system(E)
        got = [tuple(dict(row).get(j, 0) for j in range(k)) for row in s.coeffs[1:]]
        assert len(got) == len(want) and set(got) == want, name
        assert s.coeffs[0] == states._unpacked(packed[E.one]), name
        assert s.rhs == (1,) + (0,) * len(want), name


def test_atoms_relations_and_free_parameters_at_the_cap(at_the_cap):
    # (atoms, distinct relations, free parameters) of the atom system
    expected = {
        "chain-255": (1, 0, 0),
        "c15xc17": (2, 0, 1),
        "hsum-4-boolean-64": (24, 3, 20),
    }
    for name, E in at_the_cap:
        s = states._atom_system(E)
        got = (s.nvars, len(s.coeffs) - 1, free_parameters(s))
        assert got == expected[name], name


def test_example_44_is_stateless_by_its_relations_alone(example_44):
    # Three atoms, three distinct relations of rank 3: the only solution of
    # R u = 0 is u = 0, so class(1)·u = 1 fails with no box at all.
    # Classes read from the decomposition table (least-indexed atom first,
    # at its greatest multiple) write 3b as a + c and 1 as 3a, where the
    # walk, which takes the first atom it found, writes 3b and 4b; those
    # classes give four distinct relations, also of rank 3.
    s = states._atom_system(example_44)
    relations = LinearSystem(s.nvars, s.coeffs[1:], s.rhs[1:])
    assert (s.nvars, len(relations.coeffs)) == (3, 3)
    assert oracle_rank(relations) == oracle_rank(s) == 3
    assert [example_44.names[a] for a in core._walk(example_44).atoms] == [
        "b", "a", "c"
    ]
    assert s.coeffs[0] == ((0, 4),)  # 1 = 4b


def test_free_parameters_equal_the_full_systems(
    corpus, example_25, example_37, example_44
):
    # v = class·u and u = v on the atoms map the solutions of the two
    # systems, box aside, onto each other, so their dimensions agree
    for name, E in corpus + [("ex25", example_25), ("ex37", example_37)]:
        atom, full = states._atom_system(E), state_system(E)
        assert free_parameters(atom) == free_parameters(full), name


# A class component lies in 0..254, so a component of class(x) + class(y)
# - class(z) lies in [-254, 508]; 9 bits, [-256, 255], would not hold it.
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-254, 508), max_size=40))
@example([508, -254, 508, -254])
@example([-254, 508, -254, 508])
@example([0, 0, 508, 0, -254])
@example([255, 256, -255, -256, 511 - 3])
def test_a_packed_class_difference_decodes_exactly(components):
    packed = sum(c << states._FIELD * k for k, c in enumerate(components))
    want = tuple((k, c) for k, c in enumerate(components) if c)
    assert states._unpacked(packed) == want


def test_a_lifted_point_that_is_not_a_state_raises(monkeypatch):
    # u = 1 at the 3-chain's one atom a lifts to 2 at 2a, its one
    monkeypatch.setattr(
        states, "_atom_system", lambda E: LinearSystem(1, (((0, 1),),), (1,))
    )
    with pytest.raises(RuntimeError) as err:
        find_state(mv_chain(2))
    assert str(err.value) == (
        "the lifted atom values are not a state: "
        "value at one is 2; value 2 at 1 is outside [0,1]"
    )


def test_bound_multipliers_lift_to_the_atom_columns(example_44):
    # example-4.4's atom certificate with w = z = half its gap on its first
    # atom: the bound terms cancel in y^T A and take that half off the gap,
    # so over the halved gap they lift to w = z = 1 at that atom
    found = solve_exact(states._atom_system(example_44))
    half = found.gap / 2
    bound = (half, F(0), F(0))
    cert = InfeasibilityCertificate(found.row_multipliers, bound, bound, half)
    assert verify_certificate(states._atom_system(example_44), cert)
    lifted = states._lifted_certificate(example_44, cert)
    assert fraction_verify_certificate(state_system(example_44), lifted)
    assert lifted.gap == 1
    b = example_44.index("b")  # the walk's first atom
    want = tuple(int(x == b) for x in range(example_44.size))
    assert lifted.upper_multipliers == lifted.lower_multipliers == want


def test_a_lifted_certificate_that_does_not_refute_raises(monkeypatch):
    # u = 2 at the 3-chain's one atom a lies outside the box, so there is
    # no point; but the lift reads row 0 as class(1)·u = 1, and class(1) is
    # 2a, so the lifted y^T A is 2·y_0 at a where w - z is y_0
    monkeypatch.setattr(
        states, "_atom_system", lambda E: LinearSystem(1, (((0, 1),),), (2,))
    )
    with pytest.raises(RuntimeError) as err:
        find_state(mv_chain(2))
    assert str(err.value) == "the lifted certificate does not refute the state system"
