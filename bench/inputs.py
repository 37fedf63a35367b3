"""The four workloads' inputs, made from the seed before any timing.

Each workload has a fixed ladder of base tables (canonical .eaf text from
``effalg.constructions`` or the bundled fixture files).  Every pass of a run
relabels every base table with names of its own (see ``Run.texts`` in
run.py), so no two inputs of a run are equal tables and the value-keyed
caches in ``effalg.order`` and ``effalg.structure`` can never serve one
input with another input's work.  ``verify-tables`` uses seeded random and
corrupted tables instead, whose violated axioms are found by brute force in
:mod:`reference` when they are made, outside the timed part.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "effalg" / "fixtures"


@dataclass(frozen=True)
class Base:
    id: str
    text: str
    has_state: bool = True
    cx_fixture: str = ""  # run the law suite in counterexample mode


@dataclass
class Case:
    """One base table of a workload with the answer its verdict must give."""

    id: str
    text: str
    expect: dict = field(default_factory=dict)
    cx: bool = False


def _fixture(name: str) -> str:
    return (FIXTURES / f"{name}.eaf").read_text(encoding="ascii")


def base_inputs() -> dict[str, list[Base]]:
    """The fixed ladders: the same tables for every seed, 25 per workload
    (see ``TAIL_PERCENTILE`` in run.py for why the count is 25)."""
    import effalg as ea

    text, C, B = ea.serialize_eaf, ea.mv_chain, ea.boolean_algebra
    P, H = ea.direct_product, ea.horizontal_sum
    ex44 = ea.build_effect_algebra(ea.parse_eaf(_fixture("example-4.4")))

    def chain(k):  # k elements
        return Base(f"chain-{k}", text(C(k - 1)))

    def boolean(k):
        return Base(f"bool-{1 << k}", text(B(k)))

    def product(a, b):  # chain lengths a and b
        return Base(f"c{a}xc{b}", text(P(C(a - 1), C(b - 1))))

    def hsum(*ks):
        return Base("hsum-" + "-".join(f"c{k}" for k in ks), text(H([C(k - 1) for k in ks])))

    def fixture(name, **kw):
        return Base(name, _fixture(name), **kw)

    def stateless(*blocks):  # horizontal sums with an example-4.4 block
        parts = [ex44 if b == "ex44" else C(b - 1) for b in blocks]
        return Base("hsum-" + "-".join(map(str, blocks)), text(H(parts)), has_state=False)

    return {
        "analyze-ladder": [
            *map(chain, (5, 9, 17, 24, 33, 64)),
            *map(boolean, (3, 4, 5, 6)),
            product(2, 2), product(3, 5), product(4, 4), product(4, 8), product(2, 16),
            product(6, 6), product(8, 8), product(2, 32),
            hsum(3, 4, 5), hsum(4, 4, 4, 4), hsum(5, 5, 5, 5, 5, 5), hsum(*range(3, 13)),
            fixture("example-2.5"), fixture("example-4.4"), fixture("hsum-c2-c3"),
        ],
        "states-solve": [
            *map(chain, (6, 8, 10, 11, 13, 16)),
            *map(boolean, (3, 4)),
            product(2, 2), product(2, 3), product(2, 4), product(3, 3), product(3, 4),
            product(4, 4),
            hsum(3, 4, 5), hsum(4, 5, 6), hsum(3, 3, 3, 3, 3), fixture("hsum-c2-c3"),
            fixture("example-2.5"),
            fixture("example-4.4", has_state=False),
            stateless("ex44", 4), stateless("ex44", 5), stateless("ex44", 6, 3),
            stateless("ex44", "ex44"), stateless("ex44", "ex44", "ex44"),
        ],
        "laws-suite": [
            *map(chain, (3, 4, 6, 8, 11, 16, 21, 31, 41)),
            *map(boolean, (2, 3, 4)),
            product(2, 2), product(2, 4), product(3, 3), product(4, 4), product(6, 6),
            product(7, 7), product(8, 8),
            hsum(3, 3), hsum(3, 4, 5, 3, 4, 6), hsum(10, 10, 10, 10, 10, 10),
            fixture("hsum-c2-c3"),
            fixture("example-2.5", cx_fixture="example-2.5"),
            fixture("example-4.4", cx_fixture="example-4.4"),
        ],
        # Timed once per traced states-solve run, in generator order, to
        # compare with figures taken before the benchmark existed.  They
        # are not in the ladder: over six element orders they take 2.2 s to
        # 4.0 s and 1.7 s to 3.9 s, which alone would swing a run's figures.
        "prior-figures": [boolean(5), product(5, 5)],
    }


def relabel(text: str, rng: random.Random | None, tag: str) -> str:
    """The same table with names suffixed by tag and its element order
    shuffled by ``rng`` (kept when ``rng`` is None).

    The result is in canonical form: sums written once, smaller index
    first, sorted by operand index.
    """
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    names = lines[2][1:]
    order = names[:]
    if rng is not None:
        rng.shuffle(order)
    index = {name: i for i, name in enumerate(order)}
    new = [f"{name}_{tag}" for name in order]
    sums = []
    for _, xs, ys, _, zs in lines[5:]:
        x, y = sorted((index[xs], index[ys]))
        sums.append((x, y, index[zs]))
    out = [
        "ea v1",
        f"elements {len(new)}",
        "names " + " ".join(new),
        f"zero {new[index[lines[3][1]]]}",
        f"one {new[index[lines[4][1]]]}",
    ]
    out += [f"sum {new[x]} {new[y]} = {new[z]}" for x, y, z in sorted(sums)]
    return "\n".join(out) + "\n"


# --- verify-tables ----------------------------------------------------------

# (elements, density): the share of nonzero pairs given a random sum.  At
# these sizes verdict times differ by 1.4x or more between neighbours, so
# the tail percentile falls on one table, not on two that swap places.
RANDOM_TABLES = tuple((n, d) for d in (0.1, 0.6) for n in (40, 50, 60, 70, 80))
# Valid 64-element tables, each used intact and with 1 and 5 sums corrupted.
VALID_64 = ("chain-64", "bool-64", "c8xc8", "c4xc16", "c2xc32")


def _random_table(n: int, density: float, rng: random.Random) -> str:
    names = ["0", *(f"e{i}" for i in range(1, n - 1)), "1"]
    sums = [
        f"sum {names[x]} {names[y]} = {names[rng.randrange(n)]}"
        for x in range(1, n)
        for y in range(x, n)
        if rng.random() < density
    ]
    head = ["ea v1", f"elements {n}", "names " + " ".join(names), "zero 0", "one 1"]
    return "\n".join(head + sums) + "\n"


def _corrupt(text: str, count: int, rng: random.Random) -> str:
    """Change, drop or add ``count`` sum lines of a canonical table."""
    lines = text.splitlines()
    head, sums = lines[:5], lines[5:]
    results = lines[2].split()[1:]
    names = results[1:]  # the zero comes first in generated tables
    declared = {tuple(ln.split()[1:3]) for ln in sums}
    for _ in range(count):
        kind = rng.randrange(3)
        if kind < 2 and sums:
            i = rng.randrange(len(sums))
            if kind == 0:
                _, x, y, _, z = sums[i].split()
                sums[i] = f"sum {x} {y} = {rng.choice([w for w in results if w != z])}"
            else:
                declared.discard(tuple(sums.pop(i).split()[1:3]))
            continue
        while True:
            i, j = sorted(rng.sample(range(len(names)), 2))
            pair = (names[i], names[j])
            if pair not in declared:
                break
        declared.add(pair)
        sums.append(f"sum {pair[0]} {pair[1]} = {rng.choice(results)}")
    return "\n".join(head + sums) + "\n"


def verify_cases(seed: int) -> list[Case]:
    """Random, corrupted and intact tables with brute-force verdicts."""
    import effalg as ea

    C, B, P = ea.mv_chain, ea.boolean_algebra, ea.direct_product
    valid = {
        "chain-64": C(63),
        "bool-64": B(6),
        "c8xc8": P(C(7), C(7)),
        "c4xc16": P(C(3), C(15)),
        "c2xc32": P(C(1), C(31)),
    }
    cases = []
    for n, density in RANDOM_TABLES:
        rng = random.Random(f"{seed}:random:{n}:{density}")
        cases.append(Case(f"random-{n}-{density}", _random_table(n, density, rng)))
    for name in VALID_64:
        text = ea.serialize_eaf(valid[name])
        cases.append(Case(f"intact-{name}", text, {"labels": []}))
        for count in (1, 5):
            rng = random.Random(f"{seed}:corrupt:{name}:{count}")
            cases.append(Case(f"corrupt{count}-{name}", _corrupt(text, count, rng)))
    for case in cases:
        if not case.expect:
            case.expect = {"labels": reference.axiom_labels(reference.Table(case.text))}
    return cases


def cases(workload: str, seed: int, answers: dict) -> list[Case]:
    """Base cases of a workload with their expected answers."""
    if workload == "verify-tables":
        return verify_cases(seed)
    return [
        Case(b.id, b.text, answers[f"{workload}/{b.id}"], bool(b.cx_fixture))
        for b in base_inputs()[workload]
    ]
