"""Self-test of the benchmark: its checks must catch what they claim to.

Run from the root of a checkout:  python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

ea = run.import_effalg()
import inputs  # noqa: E402
import reference  # noqa: E402
from tracing import NullTracer  # noqa: E402

ANSWERS = json.loads((BENCH / "answers.json").read_text())
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_cases(workload, limit=17):
    return [c for c in inputs.cases(workload, 0, ANSWERS) if len(ea.parse_eaf(c.text).names) <= limit]


def bench_cli(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


class Checks(unittest.TestCase):
    def test_planted_wrong_answer_counts_as_failed(self):
        cases = small_cases("analyze-ladder")
        cases[0].expect = dict(cases[0].expect, lattice=not cases[0].expect["lattice"])
        bench = run.Run("analyze-ladder", cases)
        bench.run_pass(NullTracer(), "planted")
        self.assertEqual(len(bench.failures), 1, bench.failures)
        self.assertIn("wrong", bench.failures[0])

    def test_planted_wrong_law_status_and_axiom_set_count_as_failed(self):
        laws = small_cases("laws-suite", limit=5)[:1]
        laws[0].expect = {"laws": dict(laws[0].expect["laws"], **{"L2.2.iv": "fail"})}
        tables = [c for c in inputs.verify_cases(0) if c.id.startswith("corrupt1")][:1]
        tables[0].expect = {"labels": ["Eiv"]}
        for workload, cases in (("laws-suite", laws), ("verify-tables", tables)):
            bench = run.Run(workload, cases)
            bench.run_pass(NullTracer(), "planted")
            self.assertEqual(len(bench.failures), 1, (workload, bench.failures))

    def test_input_over_the_limit_counts_as_failed(self):
        cases = [c for c in inputs.cases("states-solve", 0, ANSWERS) if c.id == "chain-16"]
        bench = run.Run("states-solve", cases, limit=0.001)
        bench.run_pass(NullTracer(), "slow")
        self.assertEqual(bench.failures, ["over the 0.001 s limit: chain-16"])

    def test_no_two_inputs_of_a_run_are_equal(self):
        bench = run.Run("analyze-ladder", small_cases("analyze-ladder")[:2])
        bench.run_pass(NullTracer(), "a")
        with self.assertRaises(RuntimeError):
            bench.run_pass(NullTracer(), "a")

    def test_arithmetic_checks_reject_tampered_answers(self):
        text = inputs.relabel(ea.serialize_eaf(ea.mv_chain(3)), None, "t")
        table = reference.Table(text)
        E = ea.build_effect_algebra(ea.parse_eaf(text))
        values = list(ea.find_state(E).values)
        self.assertEqual(reference.check_state(table, values), "")
        values[1] += Fraction(1, 7)
        self.assertNotEqual(reference.check_state(table, values), "")
        self.assertEqual(reference.check_readd(table, table.zero, [(1, 3)], table.one), "")
        self.assertNotEqual(reference.check_readd(table, table.zero, [(1, 2)], table.one), "")

        text = (inputs.FIXTURES / "example-4.4.eaf").read_text()
        cert = ea.find_state(ea.build_effect_algebra(ea.parse_eaf(text)))
        table = reference.Table(text)
        args = (cert.row_multipliers, cert.upper_multipliers, cert.lower_multipliers)
        self.assertEqual(reference.check_certificate(table, *args, cert.gap), "")
        self.assertNotEqual(reference.check_certificate(table, *args, cert.gap * 2), "")

    def test_stored_answers_match_the_reference(self):
        for base in inputs.base_inputs()["analyze-ladder"]:
            if len(base.text) < 2000:
                expected = ANSWERS[f"analyze-ladder/{base.id}"]
                self.assertEqual(reference.profile(reference.Table(base.text)), expected, base.id)

    def test_every_metric_is_printed_with_its_unit(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            out = bench_cli("--workload", "analyze-ladder", "--seed", "5", "--seconds", "0.1", "--trace", trace)
            self.assertEqual(out.returncode, 0, out.stderr)
            result = json.loads(out.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)
            if trace == "0":
                for name, unit in want.items():
                    self.assertRegex(out.stdout, rf"(?m)^{name} = \S+ {unit}\b")

    def test_fails_without_the_library(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            out = bench_cli("--workload", "analyze-ladder", "--seed", "1", "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
