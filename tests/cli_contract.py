"""The ``effalg`` command's contract, as one table of rows.

Each row gives the words after the command, the exact exit code, stdout
and stderr (or a JSON check), and a bound on the wall time.  Its files
have relative names, each made once per directory by its recipe in
:data:`FILES`.  :class:`Contract` runs rows through any ``run(argv,
within) -> (code, stdout, stderr)`` in the current directory, so that a
path in a message reads the same in every mode.  ``tests/test_cli.py``
runs every row in-process.  As a script, every row runs against an
installed command, in a new temporary directory, and the exit code is 1
when any row fails:

    python tests/cli_contract.py effalg

Some rows read the fixtures that the ``effalg`` package ships, so the
script needs it importable too; where it is not, the script says so once
and exits 1 before it runs a row.

A new check of the command is a new row.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib.resources import files
from importlib.util import find_spec
from operator import itemgetter
from pathlib import Path
from typing import Callable, Optional

GOLDENS = Path(__file__).resolve().parent / "goldens"


def golden(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="ascii")


@dataclass(frozen=True)
class Row:
    argv: str  # the words after the command, split on spaces; the row's id
    code: int
    out: Optional[str] = None  # stdout exactly; None leaves it unchecked
    err: str = ""
    # (f, want): stdout is one JSON document d with f(d) == want
    json: Optional[tuple[Callable, object]] = None
    within: float = 60  # seconds


def refused(argv: str, reason: str, within: float = 60) -> Row:
    """A refusal: exit 2, nothing on stdout, ``error: REASON`` on stderr."""
    return Row(argv, 2, out="", err=f"error: {reason}\n", within=within)


def shuffled(text: str) -> str:
    """An algebra file with its sum lines in a seeded random order."""
    lines = text.splitlines()
    sums = lines[5:]
    random.Random(30).shuffle(sums)
    return "\n".join(lines[:5] + sums) + "\n"


def edited(source: str, old: str, new: str) -> Callable:
    """A recipe: ``source`` with its one line ``old`` replaced by ``new``."""

    def recipe(read: Callable) -> str:
        lines = read(source).splitlines()
        if lines.count(old) != 1:
            raise RuntimeError(f"{source} has not one line {old!r}")
        return "\n".join(new if line == old else line for line in lines) + "\n"

    return recipe


def bundled(name: str) -> Callable:
    """A recipe: the fixture file ``name`` that the imported effalg ships."""
    return lambda read: (files("effalg") / "fixtures" / name).read_text(encoding="ascii")


def header(n: int) -> str:
    """An algebra file of ``n`` elements with no sum lines."""
    names = " ".join(f"e{i}" for i in range(n))
    return f"ea v1\nelements {n}\nnames {names}\nzero e0\none e{n - 1}\n"


B4 = "ea v1\nelements 4\nnames 0 a b 1\nzero 0\none 1\n"

# name: literal text, the words after `effalg gen` (a tuple), or a
# function of `read(name)`, which makes that file and returns its text
FILES = {
    "x.eaf": ("fixture", "example-4.4"),
    "e25.eaf": ("fixture", "example-2.5"),
    "c.eaf": ("mv-chain", "120"),
    **{f"c{n}.eaf": ("mv-chain", str(n)) for n in (10, 14, 15, 16, 60, 100)},
    "c3.eaf": ("mv-chain", "2"),
    "c255.eaf": ("mv-chain", "254"),
    "b6.eaf": ("boolean", "6"),
    "p.eaf": ("product", "c10.eaf", "c10.eaf"),
    "p255.eaf": ("product", "c14.eaf", "c16.eaf"),
    "h250.eaf": ("hsum", "b6.eaf", "b6.eaf", "b6.eaf", "b6.eaf"),
    "xc3.eaf": ("hsum", "x.eaf", "c3.eaf"),
    "s245.eaf": ("hsum", "x.eaf", "c60.eaf", "c60.eaf", "c60.eaf", "c60.eaf"),
    "e25c3.eaf": ("product", "e25.eaf", "c3.eaf"),
    "hsum.eaf": bundled("hsum-c2-c3.eaf"),
    "trivial.state": bundled("trivial-01.state"),
    "half.state": "state v1\nvalue 0 1/2\nvalue 1 1/1\n",
    # one sum inside the last Boolean block of h250
    "h250-bad.eaf": edited("h250.eaf", "sum 3d 12d = 15d", "sum 3d 12d = 13d"),
    "c255-bad.eaf": edited("c255.eaf", "sum 100a 100a = 200a", "sum 100a 100a = 201a"),
    # 100a without a supplement and 253a with two
    "c255-nosup.eaf": edited("c255.eaf", "sum 100a 154a = 1", "sum 100a 154a = 253a"),
    "c255-shuffled.eaf": lambda read: shuffled(read("c255.eaf")),
    "c256.eaf": header(256),
    "big.eaf": header(20000),
    # a valid table repeated: 2 elements have 4 ordered pairs, not 5
    "repeats.eaf": "ea v1\nelements 2\nnames 0 1\nzero 0\none 1\n" + "sum 0 0 = 0\n" * 5,
    # the pair declared in both orientations, and the zero rows
    "b4.eaf": B4 + "sum a b = 1\nsum b a = 1\nsum 0 0 = 0\nsum 0 a = a\n"
    "sum a 0 = a\nsum 0 b = b\nsum 0 1 = 1\n",
    "b4-bad.eaf": lambda read: read("b4.eaf") + "sum 0 a = b\n",
    "clash.eaf": B4 + "sum a a = b\nsum a a = 1\nsum a b = 1\nsum b a = a\n",
    # a + b is first declared as a, then as 1
    "order.eaf": B4 + "sum a a = b\nsum b a = a\nsum a b = 1\n",
}

totals = itemgetter("totals")
lattice_mv = itemgetter("lattice", "mv")


def results(doc: dict) -> dict:
    return {r["law"]: (r["status"], r["reason"]) for r in doc["results"]}


def first_ei(doc: dict) -> dict:
    return next(v for v in doc["violations"] if v["axiom"] == "Ei")


# Every command that reads an .eaf file, with "{}" for the file.
READERS = (
    "verify {}",
    "analyze {}",
    "decompose {} e1",
    "states {}",
    "smear {} --state trivial.state",
    "props {}",
    "gen hsum {} hsum.eaf",
    "gen product hsum.eaf {}",
)
PRODUCTS = "products are provided up to 255 elements, not"
REPEATS = "line 10: sum lines are read up to 4, the ordered pairs of 2 elements, not 5"
CX_LAWS = {
    "T2.6": (
        "fail",
        "2a,0 has an all-proper sum and another decomposition beside it (+1 more instances)",
    ),
    "T3.4": ("pass", ""),
    "T4.1": (
        "fail",
        "full block of a decomposition of 2a,a sums to non-sharp 2a,0 (+5 more instances)",
    ),
}
ORDER_EI = {
    "axiom": "Ei",
    "witnesses": ["a", "b"],
    "detail": "element 1 + element 2 is declared as both element 1 and element 3",
}
L22IV_PASSES = (lambda d: results(d)["L2.2.iv"], ("pass", ""))


def past_the_cap(name: str, n: int) -> str:
    return f"{name}: line 2: algebras are read up to 255 elements, not {n}"


ROWS = [
    Row("verify x.eaf", 0, out="valid\n"),
    Row("states --certify-none x.eaf", 0, out=golden("states-certify-example-4.4.txt")),
    # usage refusals
    refused("gen mv-chain", "gen mv-chain takes exactly one number"),
    refused("gen mv-chain 1 2", "gen mv-chain takes exactly one number"),
    refused("gen boolean", "gen boolean takes exactly one number"),
    refused("gen boolean 1 2", "gen boolean takes exactly one number"),
    refused("gen fixture", "gen fixture takes exactly one fixture name"),
    refused("gen fixture example-2.5 example-4.4", "gen fixture takes exactly one fixture name"),
    refused("gen product e25.eaf", "gen product takes exactly two eaf files"),
    refused("gen hsum hsum.eaf", "gen hsum takes two or more eaf files"),
    refused("gen mv-chain zero", "expected a number, got 'zero'"),
    refused(
        "gen fixture example-9.9",
        "unknown fixture 'example-9.9' (known: example-2.5, example-3.7, example-4.4)",
    ),
    refused(
        "states --find --certify-none x.eaf",
        "argument --certify-none: not allowed with argument --find",
    ),
    Row("states c.eaf", 0, within=120),
    Row("states p.eaf", 0),
    # states on atom coordinates at the element cap: one atom, two atoms,
    # and 24 atoms under 3 relations
    Row("states --json c255.eaf", 0, json=(lambda d: d["values"]["a"], "1/254"), within=10),
    Row("states p255.eaf", 0, within=10),
    Row("states h250.eaf", 0, within=10),
    # smearing at the element cap lifts the one atom's share, 1/254
    Row(
        "smear --json c255.eaf --state trivial.state",
        0,
        json=(lambda d: d["values"]["a"], "1/254"),
        within=10,
    ),
    # example-4.4 glued to a 3-chain has no state; the certificate is
    # lifted from atom coordinates to the algebra's own sum rows
    Row("states xc3.eaf", 1),
    Row("states --certify-none xc3.eaf", 0),
    # and glued to four 61-element chains, 245 elements, the same
    Row("states s245.eaf", 1),
    Row(
        "states --certify-none --json s245.eaf",
        0,
        json=(lambda d: d["certificate"]["gap"], "1/1"),
        within=10,
    ),
    Row("props p.eaf", 0),
    Row("decompose p.eaf 1,5a", 0, out="element 1,5a\nkind basic\nsharp 1,0\npart 0,a 5\n"),
    # every algebra gen built on byte rows, re-read and re-checked through
    # the declared sums
    *(Row(f"verify {f}.eaf", 0, out="valid\n") for f in ("p", "c255", "p255", "h250")),
    Row("analyze c255.eaf", 0),
    # L2.2.ii and L2.2.iv on byte rows, at the element cap
    Row("props c255.eaf", 0, within=10),
    # the order and the decomposition table at the element cap: a
    # 255-element product and a 250-element horizontal sum
    Row("analyze p255.eaf", 0),
    Row(
        "decompose p255.eaf 2a,3a",
        0,
        out="element 2a,3a\nkind basic\nsharp 0,0\npart 0,a 3\npart a,0 2\n",
    ),
    # 254 atom families, each folded with its two block sums for T2.6,
    # T3.4 and T4.1
    Row("props p255.eaf", 0),
    Row("analyze h250.eaf", 0),
    # L2.2.iv runs its walk on the horizontal sum, off the MV fast path
    Row("props h250.eaf", 0),
    # the atoms of the first three blocks pass the certificate, the first
    # atom of the last fails: every Eii failure is counted (36, by
    # oracles.oracle_eii_failures_near)
    Row("verify --json h250-bad.eaf", 1, json=(totals, {"Eii": 36})),
    Row("verify --json c255-bad.eaf", 1, json=(lambda d: d["totals"]["Eii"], 306)),
    # the associativity walk runs as on any table, with the totals of the
    # definitional check in tests/oracles.py
    Row("verify --json c255-nosup.eaf", 1, json=(totals, {"Eii": 506, "Eiii": 2})),
    Row("verify b4.eaf", 0, out="valid\n"),
    Row("verify --json b4-bad.eaf", 1, json=(totals, {"closure": 1})),
    # the one pass must not come to depend on sorted input
    Row("verify c255-shuffled.eaf", 0, out="valid\n"),
    # one element past the cap, generated or read, and far past it
    refused("gen mv-chain 255", "chains are provided for 1 <= n <= 254", within=10),
    refused("gen mv-chain 20000", "chains are provided for 1 <= n <= 254", within=10),
    refused("gen boolean 7", "subset algebras are provided for 1 <= k <= 6"),
    refused("gen product c15.eaf c15.eaf", f"{PRODUCTS} 256", within=10),
    # refused from the factors' sizes, before the 10,201-element table
    refused("gen product c100.eaf c100.eaf", f"{PRODUCTS} 10201", within=10),
    *(refused(r.format("c256.eaf"), past_the_cap("c256.eaf", 256), within=1) for r in READERS),
    *(refused(r.format("repeats.eaf"), f"repeats.eaf: {REPEATS}") for r in READERS),
    # refused from the count alone
    *(
        refused(f"{command} big.eaf", past_the_cap("big.eaf", 20000), within=1)
        for command in ("verify", "analyze", "props")
    ),
    # one JSON document, with exit 0
    Row(
        "verify --json x.eaf",
        0,
        out='{\n  "totals": {},\n  "valid": true,\n  "violations": []\n}\n',
    ),
    Row("analyze --json x.eaf", 0, json=(type, dict)),
    Row("decompose --json x.eaf 2a", 0, json=(type, dict)),
    Row("states --certify-none --json x.eaf", 0, json=(type, dict)),
    Row("props --json x.eaf", 0, json=(type, dict)),
    Row("props --json c255.eaf", 0, json=L22IV_PASSES, within=10),
    Row("props --json h250.eaf", 0, json=L22IV_PASSES),
    # the chain and the product of chains are MV, the four glued Boolean
    # blocks a lattice that is not
    Row("analyze --json c255.eaf", 0, json=(lattice_mv, (True, True))),
    Row("analyze --json p255.eaf", 0, json=(lattice_mv, (True, True))),
    Row("analyze --json h250.eaf", 0, json=(lattice_mv, (True, False))),
    # yielded witnesses and a result built by the check itself
    Row("props --laws L2.2.i,L2.2.iv,T4.2,product-closure c10.eaf", 0),
    Row("verify --json clash.eaf", 1, json=(lambda d: d["totals"]["Ei"], 2)),
    # a clash is named in declaration order, against the first result
    Row("verify --json order.eaf", 1, json=(first_ei, ORDER_EI)),
    # a sharp "state" with zero at 1/2: zero is checked once, not again
    # through each zero row 0 + y = y
    Row(
        "smear hsum.eaf --state half.state",
        1,
        out="cannot smear: the input is not a state on the sharp subalgebra: "
        "value at zero is 1/2\n",
    ),
    Row("props --counterexample-mode e25.eaf", 1, out=golden("props-cx-example-2.5.txt")),
    # the family laws on example-2.5 times a 3-chain
    Row(
        "props --counterexample-mode --laws T2.6,T3.4,T4.1 --json e25c3.eaf",
        1,
        json=(results, CX_LAWS),
    ),
]
assert len({row.argv for row in ROWS}) == len(ROWS)


class Contract:
    """Rows run through ``run`` in the current directory, each file made
    once."""

    def __init__(self, run: Callable) -> None:
        self.run = run
        self.made: set[str] = set()

    def read(self, name: str) -> str:
        self.make(name)
        return Path(name).read_text(encoding="ascii")

    def make(self, name: str) -> None:
        if name in self.made:
            return
        recipe = FILES[name]
        if isinstance(recipe, tuple):
            problems = self.check(Row(f"gen {' '.join(recipe)} -o {name}", 0, out=""))
            if problems:
                raise RuntimeError(f"making {name}: " + "; ".join(problems))
        else:
            text = recipe if isinstance(recipe, str) else recipe(self.read)
            Path(name).write_text(text, encoding="ascii")
        self.made.add(name)

    def check(self, row: Row) -> list[str]:
        """What the command does against ``row``, as lines; none when it
        holds."""
        argv = row.argv.split(" ")
        # a gen row makes the file after -o
        for before, arg in zip(["", *argv], argv):
            if arg in FILES and before != "-o":
                self.make(arg)
        start = time.perf_counter()
        code, out, err = self.run(argv, row.within)
        took = time.perf_counter() - start
        problems = []
        if code != row.code:
            problems.append(f"exit code {code}, not {row.code}")
        if row.out is not None and out != row.out:
            problems.append(f"stdout {out[:400]!r}, not {row.out[:400]!r}")
        if err != row.err:
            problems.append(f"stderr {err[:400]!r}, not {row.err!r}")
        if row.json is not None:
            f, want = row.json
            try:
                got = f(json.loads(out))
            except (ValueError, LookupError, TypeError, StopIteration) as exc:
                got = f"{type(exc).__name__}: {exc}"
            if got != want:
                problems.append(f"JSON check {got!r}, not {want!r}")
        if took > row.within:
            problems.append(f"took {took:.2f} s, past {row.within} s")
        return problems


def process(command: list[str], env: Optional[dict] = None) -> Callable:
    """``run`` for :class:`Contract`: ``command`` and the row's words as a
    child process, killed at the row's bound."""

    def run(argv: list[str], within: float) -> tuple:
        try:
            done = subprocess.run(
                [*command, *argv], capture_output=True, timeout=within, env=env
            )
        except subprocess.TimeoutExpired:
            return None, "", ""
        return done.returncode, done.stdout.decode(), done.stderr.decode()

    return run


NOT_IMPORTABLE = (
    "error: effalg is not importable by this script, which reads the fixtures "
    "it ships; install it or put its src directory on PYTHONPATH"
)


def main(command: list[str]) -> int:
    if not command:
        sys.exit("usage: python tests/cli_contract.py COMMAND...")
    if find_spec("effalg") is None:
        sys.exit(NOT_IMPORTABLE)
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        contract = Contract(process(command))
        for row in ROWS:
            try:
                problems = contract.check(row)
            except Exception as exc:  # a file the row needs was not made
                problems = [f"{type(exc).__name__}: {exc}"]
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'ok'} {row.argv}")
            for problem in problems:
                print(f"    {problem}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
