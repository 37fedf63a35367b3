"""Acceptance suite: the eight behaviors the package must deliver.

Each test is self-contained and states its own evidence: expected values
are either computed here by an independent method (Gaussian elimination,
brute-force search, hand-checked multiplier vectors) or pinned to
reviewed golden bytes under tests/goldens/.
"""

import time
from fractions import Fraction
from pathlib import Path

from oracles import dense_rows, gaussian_solve, oracle_basic_decompositions

from effalg import (
    InfeasibilityCertificate,
    basic_decomposition,
    build_effect_algebra,
    classify,
    direct_product,
    extract_sharp,
    find_state,
    mv_chain,
    parse_eaf,
    parse_state,
    restrict_to_sharp,
    run_law_suite,
    serialize_eaf,
    serialize_state,
    smear_state,
    state_system,
    structure_profile,
    verify_state,
    State,
)
from effalg.cli import main
from effalg.linear import verify_certificate

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "effalg" / "fixtures"
GOLDENS = Path(__file__).resolve().parent / "goldens"


# --- 1. the nine-element table provably admits no state ------------------


def test_acceptance_1_stateless_table_with_checked_certificate(example_44):
    started = time.perf_counter()
    E = example_44
    sys_ = state_system(E)

    outcome = find_state(E)
    assert isinstance(outcome, InfeasibilityCertificate)
    assert verify_certificate(sys_, outcome)
    assert outcome.gap > 0

    # independent cross-check: exact Gaussian elimination on the same
    # rows finds the full system inconsistent
    rows = dense_rows(sys_)
    rhs = list(sys_.rhs)
    assert gaussian_solve(rows, rhs) is None

    # the three single-atom ladders alone force every rung.  row order:
    # canonical sums ascending, then the zero and one anchors.
    names = E.names
    idx = {name: j for j, name in enumerate(names)}
    label = {}
    for i, (x, y, z) in enumerate(E.canonical_sums()):
        label[(names[x], names[y], names[z])] = i
    ladder = [
        label[("a", "a", "2a")],
        label[("a", "2a", "1")],
        label[("b", "b", "2b")],
        label[("b", "2b", "3b")],
        label[("b", "3b", "1")],
        label[("c", "c", "2c")],
        label[("c", "2c", "1")],
        len(rows) - 1,  # one = 1
    ]
    forced = gaussian_solve([rows[i] for i in ladder], [rhs[i] for i in ladder])
    assert forced is not None
    assert forced[idx["a"]] == Fraction(1, 3)
    assert forced[idx["b"]] == Fraction(1, 4)
    assert forced[idx["c"]] == Fraction(1, 3)
    assert forced[idx["2c"]] == Fraction(2, 3)

    # but the cross sum a + b = 2c is then off by exactly 1/12
    assert Fraction(1, 3) + Fraction(1, 4) == Fraction(7, 12)
    assert Fraction(7, 12) != Fraction(2, 3)

    # a hand-built refutation: scale the three ladders to express the
    # top twice and subtract; every variable cancels, the right side
    # keeps 1.  Multipliers are per canonical-sum row as ordered above.
    y = [Fraction(0)] * len(rows)
    y[label[("a", "a", "2a")]] = Fraction(4)
    y[label[("a", "b", "2c")]] = Fraction(-12)
    y[label[("a", "2a", "1")]] = Fraction(4)
    y[label[("b", "b", "2b")]] = Fraction(3)
    y[label[("b", "2b", "3b")]] = Fraction(3)
    y[label[("b", "3b", "1")]] = Fraction(3)
    y[label[("c", "c", "2c")]] = Fraction(4)
    y[label[("c", "2c", "1")]] = Fraction(-8)
    y[len(rows) - 1] = Fraction(1)
    zeros = tuple([Fraction(0)] * E.size)
    hand = InfeasibilityCertificate(tuple(y), zeros, zeros, Fraction(1))
    assert verify_certificate(sys_, hand)

    assert time.perf_counter() - started < 1.0


# --- 2. the bundled tables report their documented structure --------------


def test_acceptance_2_fixture_structure_and_stable_reports(
    capsys, example_25, example_44
):
    E = example_25
    p = structure_profile(E)
    assert p.isotropic[E.index("a")] == 2
    assert p.isotropic[E.index("b")] == 3
    assert set(p.sharp) == {E.zero, E.one}
    assert E.index("2a") not in p.sharp
    assert not classify(E).is_lattice

    F = example_44
    q = structure_profile(F)
    assert q.isotropic[F.index("a")] == 3
    assert q.isotropic[F.index("b")] == 4
    assert q.isotropic[F.index("c")] == 3
    assert set(q.sharp) == {F.zero, F.one}
    assert not classify(F).is_lattice

    for stem in ("example-2.5", "example-4.4"):
        path = str(FIXTURES / f"{stem}.eaf")
        runs = []
        for _ in range(2):
            code = main(["analyze", path])
            out = capsys.readouterr().out
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]
        assert runs[0] == (GOLDENS / f"analyze-{stem}.txt").read_text("ascii")


# --- 3. every law holds across the whole generated corpus -----------------

CORPUS_LAWS = [
    "L2.2.i",
    "L2.2.ii",
    "L2.2.iii",
    "L2.2.iv",
    "L2.3.i",
    "L2.3.ii",
    "L2.3.iii",
    "L2.3.iv",
    "L2.3.v",
    "T2.4",
    "T2.6",
    "T3.4",
    "T3.5",
    "T4.1",
    "SE-subalgebra",
    "SE-full-sublattice",
]


def test_acceptance_3_law_suite_green_on_the_corpus(corpus):
    started = time.perf_counter()
    assert len(corpus) == 44
    for name, E in corpus:
        report = run_law_suite(E, selection=CORPUS_LAWS)
        for r in report.results:
            assert r.status == "pass", (name, r)
    assert time.perf_counter() - started < 60.0


# --- 4. the documented counterexamples are actually caught ----------------


def test_acceptance_4_counterexamples_reported_with_witnesses(
    example_25, example_37
):
    for E in (example_25, example_37):
        report = run_law_suite(
            E, selection=["L2.3.ii", "T2.6"], counterexample_mode=True
        )
        a, dbl = E.index("a"), E.index("2a")

        sharpness = report.result("L2.3.ii")
        assert sharpness.status == "fail"
        assert (a, dbl) in sharpness.witnesses

        uniqueness = report.result("T2.6")
        assert uniqueness.status == "fail"
        assert (dbl,) in uniqueness.witnesses


# --- 5. sharp-part states extend across the corpus ------------------------


def test_acceptance_5_smearing_round_trip_on_the_corpus(corpus):
    smeared = 0
    for name, E in corpus:
        sub = extract_sharp(E)
        omega = find_state(sub.algebra)
        if not isinstance(omega, State):
            continue
        ext = smear_state(E, omega)
        assert verify_state(E, dict(enumerate(ext.values))).ok, name
        back = restrict_to_sharp(E, ext)
        assert back.values == omega.values, name
        smeared += 1
    assert smeared == len(corpus)


def test_acceptance_5_pinned_extension_values():
    doc = parse_eaf((FIXTURES / "hsum-c2-c3.eaf").read_text("ascii"))
    E = build_effect_algebra(doc)
    sub = extract_sharp(E)
    omega = find_state(sub.algebra)
    assert isinstance(omega, State)
    ext = smear_state(E, omega)
    assert ext.by_name("a") == Fraction(1, 2)
    assert ext.by_name("b") == Fraction(1, 3)
    assert ext.by_name("2b") == Fraction(2, 3)

    P = direct_product(mv_chain(1), mv_chain(2))
    subp = extract_sharp(P)
    half = Fraction(1, 2)
    values = []
    for i in range(subp.algebra.size):
        name = subp.algebra.names[i]
        if name == subp.algebra.names[subp.algebra.zero]:
            values.append(Fraction(0))
        elif name == subp.algebra.names[subp.algebra.one]:
            values.append(Fraction(1))
        elif name == "1,0":
            values.append(half)
        else:
            values.append(1 - half)
    omega = State(subp.algebra, tuple(values))
    ext = smear_state(P, omega)
    assert ext.by_name("1,a") == Fraction(3, 4)
    assert ext.by_name("0,a") == Fraction(1, 4)


# --- 6. basic decompositions are found and are the only ones --------------


def test_acceptance_6_basic_decomposition_matches_brute_force(corpus):
    started = time.perf_counter()
    checked = 0
    for name, E in corpus:
        if E.size > 12:
            continue
        for x in range(E.size):
            if x == E.zero:
                continue
            found = basic_decomposition(E, x)
            parts = frozenset(
                (m.atom, m.multiplicity) for m in found.meager_parts
            )
            every = oracle_basic_decompositions(E, x)
            assert every == {(found.sharp_part, parts)}, (name, E.names[x])
            checked += 1
    assert checked > 100
    assert time.perf_counter() - started < 30.0


# --- 7. serialization is canonical and loss-free ---------------------------


def test_acceptance_7_parse_serialize_byte_identity():
    eaf_files = sorted(FIXTURES.glob("*.eaf"))
    assert len(eaf_files) >= 3
    for path in eaf_files:
        text = path.read_text("ascii")
        E = build_effect_algebra(parse_eaf(text))
        assert serialize_eaf(E) == text, path.name

    hsum = build_effect_algebra(
        parse_eaf((FIXTURES / "hsum-c2-c3.eaf").read_text("ascii"))
    )
    sharp = extract_sharp(hsum).algebra
    state_text = (FIXTURES / "trivial-01.state").read_text("ascii")
    values = parse_state(state_text, sharp)
    omega = State(sharp, tuple(values[i] for i in range(sharp.size)))
    assert serialize_state(omega) == state_text


# --- 8. products of well-behaved factors stay well-behaved -----------------


def test_acceptance_8_product_preserves_the_good_properties(corpus):
    products = [(name, E) for name, E in corpus if name.startswith("product-")]
    assert len(products) == 16
    for name, E in products:
        p = structure_profile(E)
        assert classify(E).is_lattice, name
        assert p.atomic, name
        assert p.sharply_dominating, name
