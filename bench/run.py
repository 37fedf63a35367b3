"""effalg benchmark: time from .eaf text to a checked verdict.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analyze-ladder --seed 1 --seconds 20 --trace 0

Runs whole passes over the workload's inputs, renamed afresh each pass,
until ``--seconds`` have passed (two passes at least).  Prints one line per
metric, then one JSON object as the last line.  With ``--trace 1`` it
alternates untraced and traced passes over the same inputs, reports
per-layer metrics from the traced ones, the tracing overhead as the
difference, and writes the spans to ``bench/out/``.  Exits 1 when any
verdict is wrong, raised, or ran over the time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from hashlib import blake2b
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("analyze-ladder", "states-solve", "laws-suite", "verify-tables")
# Per-verdict hang guard.  The slowest input (c5xc5 find_state in generator
# order, timed once in a traced states-solve run) took 8.8 s before the
# benchmark existed and up to 14 s on a slow stretch of the 2-core machine
# the benchmark was defined on; every other input stays under 5 s.  90 s is
# more than a 5x margin, so a correct run never counts a verdict as over
# the limit, and a run whose verdict hangs still ends within 180 s.
LIMIT_S = 90.0
# Fixed per workload so a run's tail is comparable with its parent's: the
# highest of p70 and p90 that keeps at least ten verdicts beyond it with
# the fewest passes a run makes.  Every pass does the same work on the 25
# inputs of a ladder, so verdict times sort into one block per input; p50,
# p70 and p90 of 25 blocks fall in the middle of a block (at 12.5, 17.5 and
# 22.5), never on the boundary between two inputs of different cost.
TAIL_PERCENTILE = {
    "analyze-ladder": 90,
    "states-solve": 90,
    "laws-suite": 70,
    "verify-tables": 90,
}
SETUP_SPAWNS = 11
# Whole passes in an untraced run, at least, so that p70 of two passes of
# 25 inputs still has ten verdicts beyond it.
MIN_PASSES = 2
# Times are reported at a fixed machine speed: the one at which one round
# of calibration() takes this long.  Small virtual machines switch between
# speeds that differ by up to 2x for seconds at a time (the loop took 0.6 ms
# or 1.1 ms on the 2-core machine the benchmark was defined on), which swung
# throughput by 15-40% between identical runs.  Each verdict's time is
# scaled by this over the mean of calibrations taken before it, after it,
# and every SAMPLE_EVERY_S of CPU time while it runs (their own time is
# taken out of the verdict's).  The loop uses only the standard library, so
# no change to effalg moves it.
REFERENCE_CALIBRATION_S = 0.0006
SAMPLE_EVERY_S = 0.05

FUNCTIONS = (
    "eaf.parse_eaf",
    "core.build_effect_algebra",
    "order.derive_order",
    "order.classify",
    "structure.structure_profile",
    "structure.extract_sharp",
    "decompose.basic_decomposition",
    "decompose.atomic_decomposition",
    "states.find_state",
    "states.state_system",
    "linear.solve_exact",
    "laws.run_law_suite",
)
COUNTS = {
    "eaf.bytes": "B",
    "core.sums": "count",
    "core.violations": "count",
    "states.rows": "count",
    "laws.pass": "count",
    "laws.fail": "count",
    "laws.skipped": "count",
}
MODULES = ("eaf", "core", "order", "structure", "decompose", "states", "linear", "laws", "bench")
# Figures measured before the benchmark existed (single runs, generator
# element order); a traced run should agree with them to within 10x.
PRIOR_FIGURES = (
    ("states-solve", "chain-16", "states.find_state", 1.6),
    ("states-solve", "bool-32", "states.find_state", 5.0),
    ("states-solve", "c5xc5", "states.find_state", 8.8),
    ("laws-suite", "c8xc8", "laws.L2.2.iv", 2.9),
    ("verify-tables", "random-80-0.6", "core.build_effect_algebra", 1.1),
)


class OverLimit(BaseException):
    """Raised by the alarm; a BaseException so no ``except Exception`` eats it."""


def _alarm(signum, frame):
    raise OverLimit()


def import_effalg():
    """Import effalg from this checkout, or exit 2 when it is not there."""
    if (SRC / "effalg" / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        import effalg

        if Path(effalg.__file__).resolve().parent == SRC / "effalg":
            return effalg
    print(f"bench: no effalg package under {SRC}", file=sys.stderr)
    sys.exit(2)


def calibration() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i % 7, i % 11 + 1)
        table[(i, i >> 1)] = i & 0x5F
    return perf_counter() - start


def speed_scale(calibrations) -> float:
    return REFERENCE_CALIBRATION_S / statistics.fmean(calibrations)


def measure_setup() -> tuple[float, float]:
    """Median seconds for a fresh interpreter to ``import effalg`` and exit,
    raw and scaled to the reference speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    raw, scaled = [], []
    for _ in range(SETUP_SPAWNS):
        before = calibration()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import effalg"], env=env, check=True)
        raw.append(perf_counter() - start)
        scaled.append(raw[-1] * speed_scale([before, calibration()]))
    return statistics.median(raw), statistics.median(scaled)


def tail(values, p):
    """The p-th percentile (nearest rank) if at least ten values lie beyond
    it, else the highest percentile that has ten beyond; with its label."""
    ordered = sorted(values)
    rank = max(1, ceil(p / 100 * len(ordered)))
    if len(ordered) - rank < 10:
        rank = max(1, len(ordered) - 10)
        p = 100 * rank / len(ordered)
    beyond = len(ordered) - rank
    return ordered[rank - 1], f"p{p:.4g} of {len(ordered)} verdicts, {beyond} beyond it"


def failing_module(exc: BaseException) -> str:
    """The effalg module whose public call raised, or 'bench'."""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent == SRC / "effalg":
            return path.stem
    return "bench"


class Run:
    """Passes over one workload's cases, with every outcome recorded."""

    def __init__(self, workload, cases, limit=LIMIT_S):
        from verdicts import WORKLOADS as PIPELINES

        self.workload, self.cases, self.limit = workload, cases, limit
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, _alarm)
        signal.signal(signal.SIGVTALRM, lambda signum, frame: self.samples.append(calibration()))
        self.verdict, self.probe = PIPELINES[workload]
        self.seen: set[bytes] = set()
        self.failures: list[str] = []
        self.errors: dict[str, int] = dict.fromkeys(MODULES, 0)
        self.attempted = 0

    def texts(self, cases, tag: str, shuffle=True) -> list[str]:
        """One pass's inputs: every case relabeled, names tagged.

        Each case keeps one element order for the whole run, drawn from its
        id, so every pass does the same work and passes differ only in
        names.  Solver time depends on element order through Bland's rule
        (c5xc5 takes 1.7 s to 3.9 s over six orders); the order is not
        drawn from the seed so that runs with different seeds do the same
        work.  With ``shuffle`` false the generator's order is kept.
        """
        from inputs import relabel

        out = []
        for case in cases:
            rng = random.Random(case.id) if shuffle else None
            text = relabel(case.text, rng, tag)
            digest = blake2b(text.encode()).digest()
            if digest in self.seen:
                raise RuntimeError(f"two inputs of the run are the same table: {case.id}@{tag}")
            self.seen.add(digest)
            out.append(text)
        return out

    def one(self, tracer, case, text, tag, traced):
        """Time one verdict (plus its probe when traced).

        Returns the verdict's seconds, without the speed samples taken
        while it ran, and those samples.
        """
        from verdicts import WrongVerdict

        self.attempted += 1
        tracer.input_id = f"{case.id}@{tag}"
        self.samples = []
        elapsed = None
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit)
            signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            with tracer.span("bench.verdict"):
                result = self.verdict(tracer, case, text)
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            if traced and self.probe:
                signal.setitimer(signal.ITIMER_REAL, self.limit)
                with tracer.span("bench.probe"):
                    self.probe(tracer, case, result)
        except WrongVerdict as exc:
            self.failures.append(f"wrong: {exc}")
        except OverLimit:
            self.failures.append(f"over the {self.limit:g} s limit: {case.id}")
        except Exception as exc:
            module = failing_module(exc)
            self.errors[module] += 1
            self.failures.append(f"{module} raised on {case.id}: {exc!r}")
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        if elapsed is None:
            elapsed = perf_counter() - start
        return elapsed - sum(self.samples), self.samples

    def run_pass(self, tracer, tag, traced=False, cases=None, shuffle=True):
        """Time one pass; return (seconds, speed scale) per verdict."""
        cases = self.cases if cases is None else cases
        out = []
        before = calibration()
        for case, text in zip(cases, self.texts(cases, tag, shuffle)):
            first_span = len(tracer.spans)
            seconds, during = self.one(tracer, case, text, tag, traced)
            after = calibration()
            out.append((seconds, speed_scale([before, *during, after])))
            tracer.add_self_times(first_span, out[-1][1])
            before = after
        return out


def end_to_end(run, passes, rss_mb, setup_s):
    """Metrics of the untraced passes, each a list of (seconds, scale).

    Throughput is the median over passes, which all do the same work, so
    a pass slowed by the machine moves it less than a mean would.  Peak RSS
    is taken after MIN_PASSES passes: effalg's caches keep every algebra
    alive, so later passes would make it depend on how many passes fit.
    """
    scaled = [[d * f for d, f in pass_] for pass_ in passes]
    durations = [d for pass_ in scaled for d in pass_]
    tail_s, tail_note = tail(durations, TAIL_PERCENTILE[run.workload])
    metrics = {
        "verdicts_per_s": (statistics.median(len(p) / sum(p) for p in scaled), "1/s"),
        "verdict_ms_p50": (statistics.median(durations) * 1000, "ms"),
        "verdict_ms_tail": (tail_s * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
    return metrics, tail_note


def per_layer(run, tracer, law_ids, overhead_s, traced_count, untraced_s):
    busy, calls, counts = tracer.busy, tracer.calls, tracer.counts
    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.ms"] = (busy[name] * 1000, "ms")
        metrics[f"{name}.calls"] = (calls[name], "count")
    for law in law_ids:
        metrics[f"laws.{law}.ms"] = (busy[f"laws.{law}"] * 1000, "ms")
    for name, unit in COUNTS.items():
        metrics[name] = (counts[name], unit)
    for module in MODULES:
        metrics[f"{module}.errors"] = (run.errors[module], "count")
    metrics["bench.check.ms"] = (busy["bench.verdict"] * 1000, "ms")
    metrics["trace.overhead.ms"] = (overhead_s * 1000 / traced_count, "ms")
    metrics["trace.overhead.share"] = (overhead_s / untraced_s, "ratio")
    return metrics


def prior_figures(workload, spans):
    lines = []
    for wl, case_id, name, seconds in PRIOR_FIGURES:
        hits = [s for s in spans if s[0] == name and s[4].startswith(case_id + "@")]
        if wl != workload or not hits:
            continue
        traced = statistics.median(end - start for _, start, end, _, _ in hits)
        ok = "ok" if 0.1 <= traced / seconds <= 10 else "OFF BY MORE THAN 10x"
        lines.append(
            f"cross-check {name} on {case_id}: {traced:.3f} s traced (median of "
            f"{len(hits)}), {seconds} s before the benchmark: {ok}"
        )
    return lines


def measure(workload, seed, seconds, trace, cases, prior=(), limit=LIMIT_S):
    """Run one workload; return (result object, human-readable lines).

    Times are scaled to the reference machine speed (see
    REFERENCE_CALIBRATION_S).  ``prior`` cases are timed once, traced and
    in generator order, for the cross-check against figures taken before
    the benchmark existed.
    """
    from tracing import NullTracer, Tracer

    ea = sys.modules["effalg"]
    run = Run(workload, cases, limit)
    lines = [f"workload {workload} seed {seed} trace {trace}, {len(cases)} inputs per pass"]
    setup = None if trace else measure_setup()
    tracer = Tracer() if trace else NullTracer()
    passes, traced, rss_mb = [], [], None
    start = perf_counter()
    while len(passes) < (1 if trace else MIN_PASSES) or perf_counter() - start < seconds:
        k = len(passes)
        passes.append(run.run_pass(NullTracer(), f"s{seed}{'u' if trace else 'p'}{k}"))
        if trace:
            traced.append(run.run_pass(tracer, f"s{seed}t{k}", traced=True))
        if k + 1 == MIN_PASSES or rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    prior_tracer = Tracer()
    prior_raw = [d for d, _ in run.run_pass(prior_tracer, f"s{seed}g", cases=prior, shuffle=False)]
    raw = [d for pass_ in passes for d, _ in pass_]
    metrics, tail_note = end_to_end(run, passes, rss_mb, setup[1] if setup else None)
    lines.append(
        f"{len(passes)} passes, {len(raw)} untraced verdicts in {sum(raw):.2f} s; times "
        f"scaled by {statistics.median(f for p in passes for _, f in p):.3f} (median)"
    )
    failed = len(run.failures)
    lines.append(f"failed_share = {failed / run.attempted:.4f} ratio ({failed} of {run.attempted})")
    notes = {
        "verdicts_per_s": f"median over {len(passes)} passes",
        "verdict_ms_p50": f"unscaled {statistics.median(raw) * 1000:.6g} ms",
        "verdict_ms_tail": tail_note,
        "peak_rss_mb": f"after {min(len(passes), MIN_PASSES)} passes",
    }
    if setup:
        notes["setup_s"] = f"median of {SETUP_SPAWNS} fresh interpreters, unscaled {setup[0]:.6g} s"
    lines += [f"{name} = {v:.6g} {unit} ({notes[name]})" for name, (v, unit) in metrics.items()]
    if trace:
        untraced_s = sum(d * f for pass_ in passes for d, f in pass_)
        overhead = sum(d * f for pass_ in traced for d, f in pass_) - untraced_s
        n_traced = sum(map(len, traced))
        metrics = per_layer(run, tracer, ea.LAW_IDS, overhead, n_traced, untraced_s)
        lines.append(f"tracing overhead {overhead * 1000 / n_traced:.3f} ms per verdict "
                     f"({overhead / untraced_s:+.2%} of untraced time)")
        lines += prior_figures(workload, tracer.spans + prior_tracer.spans)
        out = BENCH / "out" / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(out)
        lines.append(f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    lines.append(
        f"time limit {limit:g} s per verdict; slowest verdict {max(raw + prior_raw):.3f} s "
        f"unscaled (the limit is {limit / max(raw + prior_raw):.0f}x that)"
    )
    lines += [f"FAILED {f}" for f in run.failures[:20]]
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_effalg()
    import inputs

    answers = json.loads((BENCH / "answers.json").read_text())
    cases = inputs.cases(args.workload, args.seed, answers)
    prior = ()
    if args.trace and args.workload == "states-solve":
        prior = inputs.cases("prior-figures", args.seed, answers)
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace, cases, prior)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
