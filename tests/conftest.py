import importlib
import itertools
import pkgutil
import sys

import pytest

import effalg
from effalg import (
    boolean_algebra,
    direct_product,
    horizontal_sum,
    make_algebra,
    mv_chain,
    bundled_fixture,
)


def chain_corpus():
    return [(f"chain-{n}", mv_chain(n)) for n in range(1, 9)]


def boolean_corpus():
    return [(f"boolean-{k}", boolean_algebra(k)) for k in range(1, 5)]


def hsum_corpus():
    out = []
    for size in (2, 3):
        for combo in itertools.combinations_with_replacement((2, 3, 4), size):
            name = "hsum-" + "-".join(str(c) for c in combo)
            out.append((name, horizontal_sum([mv_chain(c) for c in combo])))
    return out


def product_corpus():
    factors = [
        ("b1", boolean_algebra(1)),
        ("b2", boolean_algebra(2)),
        ("c2", mv_chain(2)),
        ("c3", mv_chain(3)),
    ]
    out = []
    for (n1, f1), (n2, f2) in itertools.product(factors, repeat=2):
        out.append((f"product-{n1}-{n2}", direct_product(f1, f2)))
    return out


def full_corpus():
    return chain_corpus() + boolean_corpus() + hsum_corpus() + product_corpus()


def relabelled(E, order):
    """E with its elements listed in ``order``, a permutation of E's
    indices: old element ``order[i]`` becomes element i."""
    n = E.size
    new = [None] * n
    for i, x in enumerate(order):
        new[x] = i
    names = [E.names[x] for x in order]
    sums = {
        (new[x], new[y]): new[z]
        for x in range(n)
        for y in range(n)
        if (z := E.table[x][y]) is not None
    }
    return make_algebra(names, new[E.zero], new[E.one], sums)


def zero_last(E):
    """E, with zero at index 0, relabelled so that zero has the last
    index and the other elements keep their order."""
    assert E.zero == 0
    return relabelled(E, [*range(1, E.size), 0])


def _refuse(monkeypatch, attr, what):
    """Make ``attr`` raise, naming ``what``, in each ``effalg`` module that
    names it.

    Every module is imported first: one that the package would load only
    on first use must neither escape the refusal nor bind the refusing
    stub for good by importing ``attr`` while it is patched.
    """

    def refuse(*args):
        raise AssertionError(what)

    for info in pkgutil.iter_modules(effalg.__path__):
        module = importlib.import_module(f"effalg.{info.name}")
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, refuse)
    return refuse


def refuse_tuple_views(monkeypatch):
    """Make every decoding of byte rows into a tuple view raise, in each
    ``effalg`` module that names the decoder."""
    refuse = _refuse(monkeypatch, "_tuples", "a tuple view was decoded")
    assert sys.modules["effalg.core"]._tuples is refuse


def refuse_declared_sums(monkeypatch):
    """Make every closing of declared sums into rows, by the one pass or a
    raw sum table's entry point to it, raise in each ``effalg`` module
    that names them, so that only rows built directly reach the axiom
    check."""
    core = sys.modules["effalg.core"]
    for attr in ("_close_sums", "_declared_rows"):
        refuse = _refuse(monkeypatch, attr, "declared sums were closed")
        assert getattr(core, attr) is refuse


def spy_on_eii(monkeypatch):
    """Record, for each call of the associativity walk ``core._eii``, the
    elements it compared and the atoms of its rows, read from the rows as
    the nonzero elements that are not a sum of two nonzero elements.
    Returns the list of ``(compared, atoms)`` pairs, one per call."""
    core = importlib.import_module("effalg.core")
    eii = core._eii
    calls = []

    def spy(rows, zero, flat, found):
        walk = eii(rows, zero, flat, found)
        nonzero = [x for x in range(len(rows)) if x != zero]
        sums = set(b"".join(rows[x][:zero] + rows[x][zero + 1 :] for x in nonzero))
        calls.append((list(walk.atoms), {a for a in nonzero if a not in sums}))
        return walk

    monkeypatch.setattr(core, "_eii", spy)
    return calls


def refuse_compatibility_masks(monkeypatch):
    """Make every call of ``compatibility`` raise, in each ``effalg``
    module that names it, so that no mask is built."""
    refuse = _refuse(monkeypatch, "compatibility", "compatibility masks were built")
    assert sys.modules["effalg.order"].compatibility is refuse


def off_lattice(example_25, example_37, example_44):
    """The bundled non-lattice tables, and sums and products built on them."""
    return [
        example_25,
        example_37,
        example_44,
        direct_product(example_44, mv_chain(1)),
        horizontal_sum([example_44, mv_chain(2)]),
        direct_product(example_25, mv_chain(2)),
        horizontal_sum([example_37, mv_chain(3)]),
        direct_product(example_37, example_25),
    ]


def interval_4_5_6():
    """The interval algebra of the numerical semigroup <4, 5, 6> with unit
    15: the integers 0, 4, 5, 6, 9, 10, 11 and 15, each named by its value,
    with x + y defined when the integer sum is one of them.  It is not a
    lattice, and 5 has no sharp cover and 10 no sharp kernel."""
    values = [0, 4, 5, 6, 9, 10, 11, 15]
    sums = {
        (i, j): values.index(x + y)
        for i, x in enumerate(values)
        for j, y in enumerate(values)
        if x + y in values
    }
    return make_algebra([str(v) for v in values], 0, len(values) - 1, sums)


def differential_algebras(corpus, example_25, example_37, example_44):
    """(name, algebra) for the corpus, the off-lattice algebras, each of
    them relabelled with zero last, and three larger lattices."""
    named_algebras = list(corpus) + [
        (f"off-lattice-{i}", E)
        for i, E in enumerate(off_lattice(example_25, example_37, example_44))
    ]
    named_algebras += [
        (f"{name}-zero-last", zero_last(E))
        for name, E in named_algebras
        if E.zero == 0
    ]
    return named_algebras + [
        ("product-c8-c8", direct_product(mv_chain(7), mv_chain(7))),
        ("boolean-6", boolean_algebra(6)),
        ("chain-40", mv_chain(40)),
    ]


@pytest.fixture(scope="session")
def at_the_cap():
    """(name, algebra) for three algebras of 250 to 255 elements; a table
    may have at most 255."""
    return [
        ("chain-255", mv_chain(254)),
        ("c15xc17", direct_product(mv_chain(14), mv_chain(16))),
        ("hsum-4-boolean-64", horizontal_sum([boolean_algebra(6)] * 4)),
    ]


@pytest.fixture(scope="session")
def corpus():
    return full_corpus()


@pytest.fixture(scope="session")
def example_25():
    return bundled_fixture("example-2.5")


@pytest.fixture(scope="session")
def example_37():
    return bundled_fixture("example-3.7")


@pytest.fixture(scope="session")
def example_44():
    return bundled_fixture("example-4.4")
