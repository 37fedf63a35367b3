"""List each ``src/effalg`` module's executable lines that no test reaches.

An opt-in check, kept out of the test suite and CI.  It runs the tier-1
tests in this interpreter under a standard-library ``sys.settrace`` line
tracer, so ``coverage`` is not needed, and then prints, per module, the
lines that its compiled code can execute but no test reached, followed
by the counts per module.  Run it from anywhere:

    python tools/unreached_lines.py [extra pytest arguments]

Extra arguments go to pytest after the ``tests`` directory, for example
``-k states``.  Tracing makes the suite several times slower.  The exit
status is pytest's.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "effalg"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled module and its functions name."""

    def walk(code: CodeType):
        yield from (line for _, _, line in code.co_lines() if line is not None)
        for const in code.co_consts:
            if isinstance(const, CodeType):
                yield from walk(const)

    return set(walk(compile(path.read_text(encoding="utf-8"), str(path), "exec")))


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
        missed = sorted(executable_lines(path) - by_path[str(path)])
        counts.append((path.name, len(missed)))
        for line in missed:
            print(f"src/effalg/{path.name}:{line}")
    for name, count in counts:
        print(f"{name:20} {count:4} unreached")
    print(f"{'total':20} {sum(c for _, c in counts):4} unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
