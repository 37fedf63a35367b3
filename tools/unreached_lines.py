"""List each ``src/effalg`` module's executable lines that no test reaches.

Kept out of the test suite, and run in CI as a job of its own, so that
a new fast path cannot leave its failure branches untested.  It runs the
tier-1 tests in this interpreter under a standard-library
``sys.settrace`` line tracer, so ``coverage`` is not needed, and then
prints, per module, the lines that its compiled code can execute but no
test reached, followed by the counts per module.  Lines in
:data:`EXEMPT`, which no test can reach, are counted apart and not
listed.  Run it from anywhere:

    python tools/unreached_lines.py [extra pytest arguments]

Extra arguments go to pytest after the ``tests`` directory, for example
``-k states``.  Tracing makes the suite several times slower.  The exit
status is pytest's when a test fails, else 1 when any unreached line is
listed, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "effalg"

# Statements no test can reach, each found by the text of one of its
# lines (stripped, and on exactly one line of the module), with why.
EXEMPT = [
    ("core.py", "if TYPE_CHECKING:  # pragma: no cover", "imports for type checkers"),
    ("eaf.py", "if TYPE_CHECKING:  # pragma: no cover", "imports for type checkers"),
    (
        "core.py",
        "def __repr__(self) -> str:  # pragma: no cover",
        "a debugging aid that no result reads",
    ),
    (
        "linear.py",
        '"phase-one objective unbounded below; the tableau is corrupt"',
        "the objective is a sum of artificials, never below 0",
    ),
    ("cli.py", "def console_main() -> None:", "runs only as a process"),
    ("cli.py", 'if __name__ == "__main__":', "runs only as a process"),
]


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled module and its functions name."""

    def walk(code: CodeType):
        yield from (line for _, _, line in code.co_lines() if line is not None)
        for const in code.co_consts:
            if isinstance(const, CodeType):
                yield from walk(const)

    return set(walk(compile(path.read_text(encoding="utf-8"), str(path), "exec")))


def exempt_lines(path: Path) -> set[int]:
    """The lines of the innermost statement around each exempt line."""
    source = path.read_text(encoding="utf-8")
    lines = [line.strip() for line in source.splitlines()]
    statements = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.stmt)]
    out: set[int] = set()
    for name, text, _ in EXEMPT:
        if name != path.name:
            continue
        hits = [i for i, line in enumerate(lines, start=1) if line == text]
        if len(hits) != 1:
            raise SystemExit(f"{name}: exempt text {text!r} is on {len(hits)} lines")
        (at,) = hits
        around = [s for s in statements if s.lineno <= at <= s.end_lineno]
        inner = min(around, key=lambda s: s.end_lineno - s.lineno)
        out.update(range(inner.lineno, inner.end_lineno + 1))
    return out


def main(argv: list[str]) -> int:
    if "effalg" in sys.modules:
        raise SystemExit("effalg is already imported; its module lines would be missed")
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    prefix = str(PACKAGE) + os.sep
    ours: dict[str, bool] = {}
    reached: defaultdict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = os.path.abspath(name).startswith(prefix)
        if not mine:
            return None
        reached[name].add(frame.f_lineno)
        return local

    sys.settrace(on_call)
    try:
        tests = str(ROOT / "tests")
        status = pytest.main(["-q", "-p", "no:cacheprovider", tests, *argv])
    finally:
        sys.settrace(None)

    by_path: defaultdict[str, set[int]] = defaultdict(set)
    for name, lines in reached.items():
        by_path[os.path.abspath(name)] |= lines
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - by_path[str(path)]
        exempt = exempt_lines(path)
        counts.append((path.name, len(missed - exempt), len(missed & exempt)))
        for line in sorted(missed - exempt):
            print(f"src/effalg/{path.name}:{line}")
    unreached = sum(c[1] for c in counts)
    counts.append(("total", unreached, sum(c[2] for c in counts)))
    for name, count, exempt in counts:
        print(f"{name:20} {count:4} unreached {exempt:4} exempt")
    return int(status) or int(unreached > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
