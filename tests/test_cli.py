"""End-to-end checks of the command line front end.

Everything runs through ``effalg.cli.main`` in-process so exit codes and
output bytes are asserted directly.  The files under tests/goldens/ were
produced by the commands they name and then reviewed line by line; the
tests hold the tool to those exact bytes.  Every row of the contract
table in ``cli_contract.py`` runs here too, in-process, and three of
them as a process.
"""

import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import effalg
from effalg import (
    InfeasibilityCertificate,
    boolean_algebra,
    bundled_fixture,
    direct_product,
    horizontal_sum,
    find_state,
    mv_chain,
    parse_eaf,
    serialize_eaf,
    state_system,
    verify_certificate,
)
from effalg import cli, states
from effalg.cli import main
from conftest import (
    off_lattice,
    refuse_compatibility_masks,
    refuse_tuple_views,
    relabelled,
    spy_on_eii,
    zero_last,
)
from cli_contract import NOT_IMPORTABLE, ROWS, Contract, golden, process
from oracles import nonlattice_witness_by_generator

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "effalg" / "fixtures"

EX25 = str(FIXTURES / "example-2.5.eaf")
EX44 = str(FIXTURES / "example-4.4.eaf")
HSUM = str(FIXTURES / "hsum-c2-c3.eaf")
TRIV = str(FIXTURES / "trivial-01.state")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_accepts_the_bundled_files(capsys):
    for path in (EX25, EX44, HSUM):
        code, out, err = run(capsys, "verify", path)
        assert code == 0
        assert out == "valid\n"
        assert err == ""


def test_verify_reports_axiom_violations(capsys, tmp_path):
    bad = tmp_path / "bad.eaf"
    bad.write_text(
        "ea v1\nelements 3\nnames 0 a 1\nzero 0\none 1\n",
        encoding="ascii",
    )
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "invalid"
    assert any(line.startswith("violation Eiii") for line in lines[1:])


def test_verify_json_lists_violations(capsys, tmp_path):
    bad = tmp_path / "bad.eaf"
    bad.write_text(
        "ea v1\nelements 3\nnames 0 a 1\nzero 0\none 1\n",
        encoding="ascii",
    )
    code, out, err = run(capsys, "verify", "--json", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["violations"][0]["axiom"] == "Eiii"
    assert doc["violations"][0]["witnesses"] == ["a"]


def test_verify_caps_listed_violations_and_counts_the_rest(capsys, tmp_path):
    # Ten Eii failures (the oracle's count) and one Eiii failure.
    bad = tmp_path / "bad.eaf"
    bad.write_text(
        "ea v1\nelements 4\nnames 0 a b 1\nzero 0\none 1\n"
        "sum a a = 0\nsum a b = 0\nsum b b = 1\n",
        encoding="ascii",
    )
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "invalid"
    assert sum(line.startswith("violation Eii ") for line in lines) == 6
    assert lines[-2:] == ["violation Eiii [a] element 1 has no orthosupplement", "more Eii 4"]
    code, out, err = run(capsys, "verify", "--json", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["totals"] == {"Eii": 10, "Eiii": 1}
    assert [v["axiom"] for v in doc["violations"]] == ["Eii"] * 6 + ["Eiii"]


CLASHES = (
    "ea v1\nelements 4\nnames 0 a b 1\nzero 0\none 1\n"
    "sum a a = b\nsum a a = 1\nsum a a = b\nsum a a = 0\n"
    "sum a b = 1\nsum b a = a\n"
    "sum 0 b = a\n"
)


def test_verify_lists_every_clashing_pair_with_exact_totals(capsys, tmp_path):
    # a + a is declared three ways, a + b two ways in two orders, and
    # 0 + b against its zero row: two Ei pairs and one closure pair,
    # listed in declaration order.
    bad = tmp_path / "clash.eaf"
    bad.write_text(CLASHES, encoding="ascii")
    code, out, err = run(capsys, "verify", str(bad))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[:4] == [
        "invalid",
        "violation Ei [a, a] element 1 + element 1 is declared as both element 2 and element 3",
        "violation Ei [b, a] element 2 + element 1 is declared as both element 3 and element 1",
        "violation closure [0, b, a] declared element 0 + element 2 = element 1 "
        "contradicts the implied zero row",
    ]
    code, out, err = run(capsys, "verify", "--json", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["totals"]["Ei"] == 2
    assert doc["totals"]["closure"] == 1
    assert [v["witnesses"] for v in doc["violations"][:3]] == [
        ["a", "a"],
        ["b", "a"],
        ["0", "b", "a"],
    ]


@pytest.mark.parametrize(
    "command",
    [
        ["analyze"],
        ["decompose", "a"],
        ["states"],
        ["smear", "--state", TRIV],
        ["props"],
    ],
    ids=["analyze", "decompose", "states", "smear", "props"],
)
def test_commands_other_than_verify_reject_an_invalid_file(capsys, tmp_path, command):
    bad = tmp_path / "clash.eaf"
    bad.write_text(CLASHES, encoding="ascii")
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: Ei: element 1 + element 1 is declared as both")


def test_parse_errors_exit_two_even_under_verify(capsys, tmp_path):
    mangled = tmp_path / "mangled.eaf"
    mangled.write_text("ea v1\nelements two\n", encoding="ascii")
    code, out, err = run(capsys, "verify", str(mangled))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_missing_file_exits_two(capsys):
    code, out, err = run(capsys, "analyze", "/nonexistent/x.eaf")
    assert code == 2
    assert err.startswith("error: ")


def test_analyze_golden_bytes(capsys):
    code, out, err = run(capsys, "analyze", EX25)
    assert code == 0
    assert out == golden("analyze-example-2.5.txt")
    code, out, err = run(capsys, "analyze", EX44)
    assert code == 0
    assert out == golden("analyze-example-4.4.txt")


def test_analyze_is_byte_stable(capsys):
    first = run(capsys, "analyze", EX44)
    second = run(capsys, "analyze", EX44)
    assert first == second


def test_analyze_json_mirrors_the_text_facts(capsys):
    code, out, err = run(capsys, "analyze", "--json", EX25)
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == 6
    assert doc["lattice"] is False
    assert doc["non_lattice_witness"] == {"x": "a", "y": "b", "missing": "join"}
    assert doc["atoms"] == ["a", "b"]
    assert doc["sharp"] == ["0", "1"]
    assert doc["ord"] == {"0": 0, "a": 2, "b": 3, "ab": 1, "2a": 1, "1": 1}
    assert doc["sharply_dominating"] is True
    assert doc["s_dominating"] is True


def test_analyze_names_a_missing_meet_first_when_one_comes_first(capsys, tmp_path):
    # listed as 0 ab 2a a b 1, the first pair without a bound is ab, 2a,
    # whose lower bounds a and b have no greatest
    text = Path(EX25).read_text(encoding="ascii")
    assert "names 0 a b ab 2a 1\n" in text
    moved = tmp_path / "moved.eaf"
    moved.write_text(text.replace("names 0 a b ab 2a 1", "names 0 ab 2a a b 1"))
    code, out, err = run(capsys, "analyze", str(moved))
    assert code == 0
    assert "non-lattice-witness ab 2a meet\n" in out


def test_nonlattice_witness_equals_the_generator_reference(
    example_25, example_37, example_44
):
    # the rows searched with bytes.find against the pair-by-pair walk they
    # replaced, on the off-lattice tables, their zero-last relabellings
    # (joins found first) and their reversals (meets found first)
    algebras = off_lattice(example_25, example_37, example_44)
    algebras += [zero_last(E) for E in algebras if E.zero == 0]
    algebras += [relabelled(E, range(E.size)[::-1]) for E in algebras]
    # a,ab and b,2a lack both a meet and a join: listed first, the meet wins
    square = direct_product(example_25, example_25)
    first = [square.index("a,ab"), square.index("b,2a")]
    order = first + [x for x in range(square.size) if x not in first]
    algebras.append(relabelled(square, order))
    for E in algebras:
        assert cli._nonlattice_witness(E) == nonlattice_witness_by_generator(E)
    missing = {nonlattice_witness_by_generator(E)["missing"] for E in algebras}
    assert missing == {"meet", "join"}
    assert cli._nonlattice_witness(algebras[-1]) == {
        "x": "a,ab",
        "y": "b,2a",
        "missing": "meet",
    }
    assert cli._nonlattice_witness(mv_chain(3)) is None


def test_analyze_builds_no_compatibility_masks(capsys, monkeypatch):
    # on the inputs of the goldens, in text and JSON: with every call of
    # compatibility refused, the output is byte for byte what it is without
    commands = [("analyze", path) for path in (EX25, EX44, HSUM)]
    commands += [argv + ("--json",) for argv in commands]
    expected = {argv: run(capsys, *argv) for argv in commands}
    refuse_compatibility_masks(monkeypatch)
    for argv in commands:
        assert run(capsys, *argv) == expected[argv], argv
    assert run(capsys, "analyze", EX25)[1] == golden("analyze-example-2.5.txt")
    assert run(capsys, "analyze", EX44)[1] == golden("analyze-example-4.4.txt")


def test_no_command_counts_the_triples_of_a_valid_algebra(
    corpus, example_25, example_37, example_44, at_the_cap, capsys, tmp_path, monkeypatch
):
    # every algebra that verify, analyze and props build, extract or
    # construct passes Light's test on its atoms: the walk compares the
    # triples of each atom once, and of no other element
    fixtures = [("ex25", example_25), ("ex37", example_37), ("ex44", example_44)]
    calls = spy_on_eii(monkeypatch)
    for name, E in corpus + fixtures + at_the_cap:
        path = tmp_path / f"{name}.eaf"
        path.write_text(serialize_eaf(E), encoding="ascii")
        for command in ("verify", "analyze", "props"):
            del calls[:]
            assert run(capsys, command, str(path))[0] == 0, (command, name)
            assert calls, (command, name)
            for compared, atoms in calls:
                assert sorted(compared) == sorted(atoms), (command, name)
    # 2a + 2a = 1 as well as 2a + a: a table that fails Eiii, whose only
    # atom a fails Eii, so 2a and 1 are compared as well
    broken = tmp_path / "broken.eaf"
    broken.write_text(
        "ea v1\nelements 4\nnames 0 a 2a 1\nzero 0\none 1\n"
        "sum a a = 2a\nsum a 2a = 1\nsum 2a 2a = 1\n",
        encoding="ascii",
    )
    del calls[:]
    assert main(["verify", str(broken)]) == 1
    assert calls == [([1, 2, 3], {1})]


def test_smear_refuses_state_values_past_the_denominator_limit(capsys, tmp_path):
    # every element of the horizontal sum is sharp, and its 250 values have
    # distinct odd 100-digit denominators, whose lcm passes 2**16 bits
    E = horizontal_sum([boolean_algebra(6)] * 4)
    algebra = tmp_path / "h250.eaf"
    algebra.write_text(serialize_eaf(E), encoding="ascii")
    rng = random.Random(100)
    lines = ["state v1"] + [
        f"value {name} 1/{rng.randrange(10**99, 10**100) | 1}" for name in E.names
    ]
    state = tmp_path / "hostile.state"
    state.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, out, err = run(capsys, "smear", str(algebra), "--state", str(state))
    assert (code, out) == (2, "")
    assert err == (
        f"error: {state}: state values are checked over a common denominator "
        f"of up to {states._MAX_DENOMINATOR_BITS} bits\n"
    )


def test_analyze_on_a_lattice_has_no_witness_line(capsys, tmp_path):
    c3 = tmp_path / "c3.eaf"
    code, out, err = run(capsys, "gen", "mv-chain", "3", "-o", str(c3))
    assert code == 0
    code, out, err = run(capsys, "analyze", str(c3))
    assert code == 0
    assert "non-lattice-witness" not in out
    assert "lattice yes\n" in out
    assert "mv yes\n" in out


def test_decompose_basic_output(capsys, tmp_path):
    c4 = tmp_path / "c4.eaf"
    run(capsys, "gen", "mv-chain", "4", "-o", str(c4))
    code, out, err = run(capsys, "decompose", str(c4), "2a")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "element 2a"
    assert lines[1] == "kind basic"
    assert lines[2] == "sharp 0"
    assert lines[3] == "part a 2"


def test_decompose_falls_back_to_atomic_parts(capsys):
    # example-2.5 is not lattice ordered, so only the atomic layer runs
    code, out, err = run(capsys, "decompose", EX25, "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "element 1"
    assert lines[1] == "kind atomic"
    assert lines[2] in ("unique yes", "unique no")
    assert any(line.startswith("part ") for line in lines)


def test_decompose_json_basic_payload(capsys, tmp_path):
    c4 = tmp_path / "c4.eaf"
    run(capsys, "gen", "mv-chain", "4", "-o", str(c4))
    code, out, err = run(capsys, "decompose", "--json", str(c4), "2a")
    assert code == 0
    assert json.loads(out) == {
        "element": "2a",
        "kind": "basic",
        "sharp": "0",
        "parts": [{"atom": "a", "multiplicity": 2}],
    }


def test_decompose_json_atomic_payload(capsys):
    code, out, err = run(capsys, "decompose", EX25, "1")
    assert code == 0
    assert out == "element 1\nkind atomic\nunique no\npart a 2\npart b 1\n"
    code, out, err = run(capsys, "decompose", "--json", EX25, "1")
    assert code == 0
    assert json.loads(out) == {
        "element": "1",
        "kind": "atomic",
        "unique": False,
        "parts": [
            {"atom": "a", "multiplicity": 2},
            {"atom": "b", "multiplicity": 1},
        ],
    }


def test_decompose_unknown_element_exits_two(capsys):
    code, out, err = run(capsys, "decompose", EX44, "zz")
    assert code == 2
    assert err.startswith("error: ")


def test_states_find_on_a_chain(capsys, tmp_path):
    c4 = tmp_path / "c4.eaf"
    run(capsys, "gen", "mv-chain", "4", "-o", str(c4))
    code, out, err = run(capsys, "states", str(c4))
    assert code == 0
    assert out.splitlines()[0] == "state v1"
    assert "value a 1/4" in out
    assert "value 3a 3/4" in out


def test_states_find_fails_on_the_stateless_table(capsys):
    code, out, err = run(capsys, "states", "--find", EX44)
    assert code == 1
    assert out.splitlines()[0] == "certificate"


def test_states_certify_none_fails_when_states_exist(capsys):
    code, out, err = run(capsys, "states", "--certify-none", HSUM)
    assert code == 1
    assert out.splitlines()[0] == "state v1"


def test_states_certify_none_lists_bound_multipliers(capsys, monkeypatch):
    # the solver's certificate for example-4.4 with w = z = 1/2 on a: the
    # bound terms cancel in y^T A and take 1/2 off the gap
    E = bundled_fixture("example-4.4")
    found = find_state(E)
    half = Fraction(1, 2)
    bound = tuple(half if x == E.index("a") else 0 for x in range(E.size))
    cert = dataclasses.replace(
        found, upper_multipliers=bound, lower_multipliers=bound, gap=found.gap - half
    )
    assert verify_certificate(state_system(E), cert)
    monkeypatch.setattr(states, "find_state", lambda algebra: cert)

    code, out, err = run(capsys, "states", "--certify-none", EX44)
    assert code == 0
    want = golden("states-certify-example-4.4.txt").replace(
        "gap 1/1\n", "upper a 1/2\nlower a 1/2\ngap 1/2\n"
    )
    assert out == want

    code, out, err = run(capsys, "states", "--json", "--certify-none", EX44)
    assert code == 0
    doc = json.loads(out)["certificate"]
    assert doc["upper"] == doc["lower"] == {"a": "1/2"}
    assert doc["gap"] == "1/2"


def test_states_json_values(capsys):
    code, out, err = run(capsys, "states", "--json", HSUM)
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["0"] == "0/1"
    assert doc["values"]["1"] == "1/1"


def test_states_json_certificate(capsys):
    code, out, err = run(capsys, "states", "--json", "--certify-none", EX44)
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["gap"] == "1/1"
    assert doc["certificate"]["upper"] == {}
    assert doc["certificate"]["lower"] == {}
    rows = doc["certificate"]["rows"]
    assert {"index": 0, "multiplier": "4/1", "label": "a + a = 2a"} in rows
    assert {"index": 12, "multiplier": "1/1", "label": "1 = 1"} in rows

    # the parsed multipliers refute the table on their own
    E = bundled_fixture("example-4.4")
    system = state_system(E)
    y = [Fraction(0)] * len(system.coeffs)
    for row in rows:
        y[row["index"]] = Fraction(row["multiplier"])
    bounds = []
    for side in ("upper", "lower"):
        dense = [Fraction(0)] * E.size
        for name, value in doc["certificate"][side].items():
            dense[E.index(name)] = Fraction(value)
        bounds.append(tuple(dense))
    cert = InfeasibilityCertificate(
        tuple(y), bounds[0], bounds[1], Fraction(doc["certificate"]["gap"])
    )
    assert verify_certificate(system, cert)


def test_smear_golden_and_stability(capsys):
    code, out, err = run(capsys, "smear", HSUM, "--state", TRIV)
    assert code == 0
    assert out == golden("smear-hsum.txt")
    again = run(capsys, "smear", HSUM, "--state", TRIV)
    assert again == (code, out, err)


def test_smear_json_values(capsys):
    code, out, err = run(capsys, "smear", "--json", HSUM, "--state", TRIV)
    assert code == 0
    # the values of smear-hsum.txt
    assert json.loads(out) == {
        "values": {
            "0": "0/1",
            "a": "1/2",
            "b": "1/3",
            "2b": "2/3",
            "1": "1/1",
        }
    }


def test_smear_json_error_off_hypothesis(capsys):
    code, out, err = run(capsys, "smear", "--json", EX25, "--state", TRIV)
    assert code == 1
    assert json.loads(out) == {
        "error": "smearing needs a lattice-ordered algebra"
    }
    code, out, err = run(capsys, "smear", EX25, "--state", TRIV)
    assert code == 1
    assert out == "cannot smear: smearing needs a lattice-ordered algebra\n"


def test_smear_rejects_a_state_over_the_wrong_algebra(capsys, tmp_path):
    wrong = tmp_path / "wrong.state"
    wrong.write_text("state v1\nvalue q 1/2\n", encoding="ascii")
    code, out, err = run(capsys, "smear", HSUM, "--state", str(wrong))
    assert code == 2


def test_smear_rejects_a_value_outside_the_grammar(capsys, tmp_path):
    # int() would read "1_0/10" as 1
    bad = tmp_path / "bad.state"
    bad.write_text("state v1\nvalue 0 0/1\nvalue 1 1_0/10\n", encoding="ascii")
    code, out, err = run(capsys, "smear", HSUM, "--state", str(bad))
    assert code == 2
    assert "1_0/10" in err


def test_smear_reports_off_hypothesis_tables(capsys, tmp_path):
    st = tmp_path / "t.state"
    st.write_text("state v1\nvalue 0 0/1\nvalue 1 1/1\n", encoding="ascii")
    code, out, err = run(capsys, "smear", EX25, "--state", str(st))
    assert code == 1
    assert out.startswith("cannot smear: ")
    assert "lattice" in out


def test_gen_writes_canonical_bytes(capsys, tmp_path):
    target = tmp_path / "out.eaf"
    code, out, err = run(capsys, "gen", "fixture", "example-4.4", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_bytes() == Path(EX44).read_bytes()


def test_gen_stdout_equals_file_output(capsys, tmp_path):
    code, out, err = run(capsys, "gen", "boolean", "2")
    assert code == 0
    target = tmp_path / "b2.eaf"
    run(capsys, "gen", "boolean", "2", "-o", str(target))
    assert target.read_text(encoding="ascii") == out


def test_gen_hsum_and_product_consume_files(capsys, tmp_path):
    c2 = tmp_path / "c2.eaf"
    c3 = tmp_path / "c3.eaf"
    run(capsys, "gen", "mv-chain", "2", "-o", str(c2))
    run(capsys, "gen", "mv-chain", "3", "-o", str(c3))
    code, out, err = run(capsys, "gen", "hsum", str(c2), str(c3))
    assert code == 0
    assert out == Path(HSUM).read_text(encoding="ascii")
    code, out, err = run(capsys, "gen", "product", str(c2), str(c3))
    assert code == 0
    assert "elements 12" in out


def test_numerals_past_the_digit_cap_exit_two(capsys, tmp_path):
    # 5,000 digits, past the 4,300 that CPython's int() reads from a string
    long = "1" + "0" * 4999
    limit = "numbers are read up to 4300 digits, not 5000"
    huge = tmp_path / "huge.eaf"
    huge.write_text(f"ea v1\nelements {long}\n")
    assert run(capsys, "verify", str(huge)) == (
        2, "", f"error: {huge}: line 2: {limit}\n"
    )
    state = tmp_path / "huge.state"
    state.write_text(f"state v1\nvalue 0 0/1\nvalue 1 {long}/{long}\n")
    assert run(capsys, "smear", HSUM, "--state", str(state)) == (
        2, "", f"error: {state}: line 3: {limit}\n"
    )
    assert run(capsys, "gen", "mv-chain", long) == (2, "", f"error: {limit}\n")


def test_gen_into_a_directory_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "gen", "mv-chain", "2", "-o", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tmp_path}: ")


def test_props_normal_mode_skips_off_lattice(capsys):
    code, out, err = run(capsys, "props", EX25)
    assert code == 0
    for line in out.splitlines():
        assert " skipped " in line or line.endswith(" skipped")


def test_props_selection_and_exit_zero(capsys, tmp_path):
    c4 = tmp_path / "c4.eaf"
    run(capsys, "gen", "mv-chain", "4", "-o", str(c4))
    code, out, err = run(capsys, "props", "--laws", "L2.2.i,T2.6", str(c4))
    assert code == 0
    assert out == "L2.2.i pass\nT2.6 pass\n"


def test_props_runs_a_repeated_law_once(capsys):
    code, out, err = run(capsys, "props", "--laws", "T2.6,L2.2.i,T2.6", HSUM)
    assert code == 0
    assert out == "L2.2.i pass\nT2.6 pass\n"
    code, out, err = run(
        capsys, "props", "--json", "--laws", "L2.2.i,L2.2.i", HSUM
    )
    assert code == 0
    assert json.loads(out) == {
        "results": [
            {"law": "L2.2.i", "status": "pass", "witnesses": [], "reason": ""}
        ]
    }


def test_props_rejects_unknown_law_names(capsys):
    code, out, err = run(capsys, "props", "--laws", "L0.0", EX25)
    assert code == 2
    assert err.startswith("error: ")
    code, out, err = run(capsys, "props", "--laws", ",", EX25)
    assert (code, out) == (2, "")
    assert err == "error: --laws needs at least one law id\n"


def test_props_json_shape(capsys):
    code, out, err = run(capsys, "props", "--json", "--counterexample-mode", EX25)
    assert code == 1
    doc = json.loads(out)
    by_law = {entry["law"]: entry for entry in doc["results"]}
    assert by_law["T2.6"]["status"] == "fail"
    assert ["2a"] in by_law["T2.6"]["witnesses"]
    assert by_law["product-closure"]["status"] == "skipped"
    assert by_law["product-closure"]["reason"]


def test_gen_sizes_outside_the_grammar_exit_two(capsys):
    # a size is [0-9]+, ASCII digits only; int() alone takes all four
    for size in ("1_0", "+10", "-3", "\u0661\u0660"):
        code, out, err = run(capsys, "gen", "mv-chain", size)
        assert (code, out) == (2, ""), size
        assert err.startswith("error: "), size
    code, out, err = run(capsys, "gen", "mv-chain", "10")
    assert code == 0
    assert "\nelements 11\n" in out


def test_element_count_outside_the_grammar_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.eaf"
    run(capsys, "gen", "mv-chain", "9", "-o", str(bad))
    bad.write_text(bad.read_text().replace("elements 10", "elements 1_0"))
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "is not an integer" in err


def test_non_ascii_input_is_a_clean_error(capsys, tmp_path):
    weird = tmp_path / "weird.eaf"
    weird.write_bytes("eaf 1\nelements 2\nnames 0 \xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "analyze", str(weird))
    assert code == 2
    assert err.startswith("error: ")


# each command's words, with the fixture put right after the first
JSON_COMMANDS = {
    "verify": ["verify"],
    "analyze": ["analyze"],
    "decompose": ["decompose", "1"],
    "states": ["states"],
    "states-certify-none": ["states", "--certify-none"],
    "smear": ["smear", "--state", TRIV],
    "props": ["props"],
    "props-counterexample-mode": ["props", "--counterexample-mode"],
}


@pytest.mark.parametrize("fixture", [EX25, EX44, HSUM], ids=["ex25", "ex44", "hsum"])
@pytest.mark.parametrize("command", JSON_COMMANDS.values(), ids=JSON_COMMANDS.keys())
def test_json_keeps_the_exit_code(capsys, command, fixture):
    argv = [command[0], fixture, *command[1:]]
    text_code, _, _ = run(capsys, *argv)
    json_code, out, err = run(capsys, *argv, "--json")
    assert json_code == text_code
    assert err == ""
    json.loads(out)  # exactly one JSON document


def test_no_command_decodes_a_tuple_view(capsys, monkeypatch):
    # every analysing command on the inputs of the five goldens, in text
    # and JSON: with the decoder of the tuple views refused, the output is
    # byte for byte what it is without
    commands = []
    for path in (EX25, EX44, HSUM):
        names = parse_eaf(Path(path).read_text(encoding="utf-8")).names
        commands += [
            ("analyze", path),
            ("states", "--certify-none", path),
            ("smear", path, "--state", TRIV),
            ("props", path),
            ("props", "--counterexample-mode", path),
        ] + [("decompose", path, name) for name in names]
    commands += [argv + ("--json",) for argv in commands]
    expected = {argv: run(capsys, *argv) for argv in commands}
    refuse_tuple_views(monkeypatch)
    for argv in commands:
        assert run(capsys, *argv) == expected[argv], argv
    goldens = {
        ("analyze", EX25): "analyze-example-2.5.txt",
        ("analyze", EX44): "analyze-example-4.4.txt",
        ("props", "--counterexample-mode", EX25): "props-cx-example-2.5.txt",
        ("smear", HSUM, "--state", TRIV): "smear-hsum.txt",
        ("states", "--certify-none", EX44): "states-certify-example-4.4.txt",
    }
    for argv, name in goldens.items():
        assert run(capsys, *argv)[1] == golden(name), argv


def in_process(argv, within):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def in_process_contract(tmp_path_factory):
    # one directory for every row, so that each file is made once
    return tmp_path_factory.mktemp("contract"), Contract(in_process)


@pytest.mark.parametrize("row", ROWS, ids=[row.argv.replace(" ", "_") for row in ROWS])
def test_contract_row(in_process_contract, row, monkeypatch):
    directory, contract = in_process_contract
    monkeypatch.chdir(directory)
    assert contract.check(row) == []


def test_contract_rows_through_a_process(tmp_path, monkeypatch):
    # console_main turns main's return value into the exit code: one row
    # of each code, on literal files
    src = Path(effalg.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    monkeypatch.chdir(tmp_path)
    contract = Contract(process([sys.executable, "-m", "effalg.cli"], env))
    by_argv = {row.argv: row for row in ROWS}
    picked = [by_argv[a] for a in ("verify b4.eaf", "verify --json clash.eaf", "gen mv-chain")]
    assert [row.code for row in picked] == [0, 1, 2]
    for row in picked:
        assert contract.check(row) == [], row.argv


def test_the_contract_script_refuses_once_where_effalg_is_not_importable():
    # -I ignores PYTHONPATH and the user's site directory, and -S every
    # site directory, so the script cannot import effalg: it says so once
    # and runs no row, whatever the command would do
    script = Path(__file__).resolve().parent / "cli_contract.py"
    done = subprocess.run(
        [sys.executable, "-I", "-S", str(script), sys.executable, "-m", "effalg.cli"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == NOT_IMPORTABLE + "\n"
