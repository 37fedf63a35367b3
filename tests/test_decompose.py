"""Greedy atomic decomposition, splitting, and the basic decomposition."""

from dataclasses import replace

import pytest

from effalg import decompose
from effalg import (
    AtomicDecomposition,
    AtomMultiple,
    IndexOutOfRange,
    InvalidDecomposition,
    PreconditionFailed,
    atomic_decomposition,
    basic_decomposition,
    boolean_algebra,
    direct_product,
    horizontal_sum,
    multiple,
    mv_chain,
    split_atomic_decomposition,
)
from conftest import differential_algebras
from oracles import (
    atomic_decomposition_by_walk,
    basic_decomposition_by_walk,
    oracle_basic_decompositions,
)


def reassemble(E, d):
    acc = E.zero
    for p in d.parts:
        acc = E.table[acc][multiple(E, p.atom, p.multiplicity)]
    return acc


def test_atomic_decomposition_reassembles(corpus, example_25, example_44):
    for name, E in corpus + [("ex25", example_25), ("ex44", example_44)]:
        for x in range(E.size):
            d = atomic_decomposition(E, x)
            assert reassemble(E, d) == x, (name, x)
            atoms = [p.atom for p in d.parts]
            assert atoms == sorted(set(atoms)), (name, x)


def test_chain_element_is_one_stacked_atom():
    E = mv_chain(6)
    d = atomic_decomposition(E, E.index("4a"))
    assert d.parts == (AtomMultiple(E.index("a"), 4),)
    assert d.unique_guaranteed


def test_boolean_top_uses_every_atom_once():
    E = boolean_algebra(3)
    d = atomic_decomposition(E, E.one)
    assert len(d.parts) == 3
    assert all(p.multiplicity == 1 for p in d.parts)


def test_decomposition_of_zero_is_empty():
    E = mv_chain(3)
    d = atomic_decomposition(E, E.zero)
    assert d.parts == ()


def test_split_separates_full_and_partial():
    E = mv_chain(4)
    a = E.index("a")
    d = AtomicDecomposition(E.index("2a"), (AtomMultiple(a, 2),), True)
    s = split_atomic_decomposition(E, d)
    assert s.full == ()
    assert s.partial == (AtomMultiple(a, 2),)

    d_top = atomic_decomposition(E, E.one)
    s_top = split_atomic_decomposition(E, d_top)
    assert s_top.full == (AtomMultiple(a, 4),)
    assert s_top.partial == ()


def test_split_rejects_foreign_parts():
    E = mv_chain(4)
    bogus = AtomicDecomposition(
        E.index("2a"), (AtomMultiple(E.index("2a"), 1),), False
    )
    with pytest.raises(InvalidDecomposition, match="^element 2 is not an atom$"):
        split_atomic_decomposition(E, bogus)


def test_split_rejects_wrong_total():
    E = mv_chain(4)
    bogus = AtomicDecomposition(E.one, (AtomMultiple(E.index("a"), 2),), False)
    with pytest.raises(
        InvalidDecomposition, match="^parts sum to 2, not to the decomposed element 4$"
    ):
        split_atomic_decomposition(E, bogus)


def test_split_rejects_repeated_atoms():
    E = mv_chain(4)
    a = E.index("a")
    bogus = AtomicDecomposition(
        E.index("2a"), (AtomMultiple(a, 1), AtomMultiple(a, 1)), False
    )
    with pytest.raises(InvalidDecomposition, match="^atom 1 appears twice$"):
        split_atomic_decomposition(E, bogus)


@pytest.mark.parametrize("k", [0, 5])
def test_split_rejects_a_multiplicity_outside_the_index(k):
    E = mv_chain(4)
    bogus = AtomicDecomposition(E.one, (AtomMultiple(E.index("a"), k),), False)
    with pytest.raises(
        InvalidDecomposition, match=f"^multiplicity {k} of atom 1 is outside 1..4$"
    ):
        split_atomic_decomposition(E, bogus)


def test_split_rejects_parts_without_a_sum():
    # a and b are atoms of different blocks, so a + b is undefined
    E = horizontal_sum([mv_chain(2), mv_chain(3)])
    parts = (AtomMultiple(E.index("a"), 1), AtomMultiple(E.index("b"), 1))
    bogus = AtomicDecomposition(E.one, parts, False)
    with pytest.raises(
        InvalidDecomposition, match="^parts are not summable in the given order$"
    ):
        split_atomic_decomposition(E, bogus)


NOT_INTS = "does not hold two ints"


@pytest.mark.parametrize(
    "x, part, error, message",
    [
        (True, (1, True), IndexOutOfRange, "element index True is not in 0..4"),
        (7, (1, 2), IndexOutOfRange, "element index 7 is not in 0..4"),
        (2, (1, 2.0), InvalidDecomposition, f"AtomMultiple(atom=1, multiplicity=2.0) {NOT_INTS}"),
        (1, (True, 1), InvalidDecomposition, f"AtomMultiple(atom=True, multiplicity=1) {NOT_INTS}"),
    ],
    ids=["bool-element", "element-7", "float-multiplicity", "bool-atom"],
)
def test_split_checks_the_element_and_the_types_of_the_parts(x, part, error, message):
    # checked as every other entry point checks an element, and a part of
    # another type named, not a bare TypeError or a wrong sum
    d = AtomicDecomposition(x, (AtomMultiple(*part),), False)
    with pytest.raises(error) as err:
        split_atomic_decomposition(mv_chain(4), d)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "parts, message",
    [
        (((1, 2),), "part (1, 2) is not an AtomMultiple"),
        (None, "parts None are not a tuple or list"),
    ],
    ids=["bare-pair", "none"],
)
def test_split_refuses_parts_that_are_not_atom_multiples(parts, message):
    # named as a bad decomposition, not a bare AttributeError or TypeError
    d = AtomicDecomposition(2, parts, False)
    with pytest.raises(InvalidDecomposition) as err:
        split_atomic_decomposition(mv_chain(4), d)
    assert str(err.value) == message


def test_basic_decomposition_on_chains():
    E = mv_chain(4)
    b = basic_decomposition(E, E.index("2a"))
    assert b.sharp_part == E.zero
    assert b.meager_parts == (AtomMultiple(E.index("a"), 2),)
    top = basic_decomposition(E, E.one)
    assert top.sharp_part == E.one
    assert top.meager_parts == ()


def test_basic_decomposition_in_a_product():
    E = direct_product(boolean_algebra(1), mv_chain(2))
    x = E.index("1,a")
    b = basic_decomposition(E, x)
    assert E.names[b.sharp_part] == "1,0"
    assert [E.names[p.atom] for p in b.meager_parts] == ["0,a"]
    assert [p.multiplicity for p in b.meager_parts] == [1]


def test_basic_decomposition_needs_a_lattice(example_25):
    with pytest.raises(
        PreconditionFailed, match="^basic decomposition needs a lattice-ordered algebra$"
    ):
        basic_decomposition(example_25, example_25.index("2a"))


def tamper_profile(monkeypatch, E, **fields):
    """Make ``effalg.decompose`` read E's profile with ``fields`` replaced."""
    tampered = replace(decompose.structure_profile(E), **fields)
    monkeypatch.setattr(decompose, "structure_profile", lambda _: tampered)


def test_basic_decomposition_needs_a_sharp_kernel(monkeypatch):
    E = mv_chain(4)
    x = E.index("2a")
    tamper_profile(monkeypatch, E, sharp_kernel=(None,) * E.size)
    with pytest.raises(
        PreconditionFailed, match="^element 2 has no greatest sharp element below it$"
    ):
        basic_decomposition(E, x)


def test_basic_decomposition_checks_the_full_block_against_the_kernel(monkeypatch):
    E = mv_chain(4)
    # the full multiple 4a sums to 1, not to the tampered kernel 0
    tamper_profile(monkeypatch, E, sharp_kernel=(E.zero,) * E.size)
    with pytest.raises(
        RuntimeError, match="^full parts of 4 do not sum to its sharp kernel$"
    ):
        basic_decomposition(E, E.one)


def test_basic_decomposition_checks_the_proper_block_is_meager(monkeypatch):
    E = mv_chain(4)
    tamper_profile(monkeypatch, E, meager=frozenset({E.zero}))
    with pytest.raises(
        RuntimeError, match="^proper parts of 2 sum to non-meager 2$"
    ):
        basic_decomposition(E, E.index("2a"))


def tamper_walk(monkeypatch, E, x, step):
    """Make the greedy walk of ``effalg.decompose`` give x the first part
    and residual ``step``, an (atom, multiplicity, residual) triple."""
    walk = decompose._greedy

    def tampered(*args):
        steps = walk(*args)
        steps[x] = step
        return steps

    monkeypatch.setattr(decompose, "_greedy", tampered)


def test_basic_decomposition_checks_the_greedy_walk(monkeypatch):
    # a greedy walk that returned a wrong decomposition is caught: here
    # 3a, with nothing left over, is given as the parts of 2a
    E = mv_chain(4)
    a, x = E.index("a"), E.index("2a")
    tamper_walk(monkeypatch, E, x, (a, 3, E.zero))
    with pytest.raises(
        InvalidDecomposition, match="^parts sum to 3, not to the decomposed element 2$"
    ):
        basic_decomposition(E, x)
    assert atomic_decomposition(E, x).parts == (AtomMultiple(a, 3),)


def test_basic_decomposition_checks_the_parts_are_summable(monkeypatch):
    # 4a followed by the parts of a, given as the parts of 2a, has no sum
    E = mv_chain(4)
    a, x = E.index("a"), E.index("2a")
    tamper_walk(monkeypatch, E, x, (a, 4, a))
    with pytest.raises(
        InvalidDecomposition, match="^parts are not summable in the given order$"
    ):
        basic_decomposition(E, x)
    assert atomic_decomposition(E, x).parts == (AtomMultiple(a, 4), AtomMultiple(a, 1))


@pytest.mark.parametrize(
    "kernel, error, message",
    [
        (None, PreconditionFailed, "element 1 has no greatest sharp element below it"),
        ("one", RuntimeError, "full parts of 1 do not sum to its sharp kernel"),
    ],
    ids=["no-kernel", "wrong-kernel"],
)
def test_a_broken_element_fails_alone(monkeypatch, kernel, error, message):
    # 0,a is the residual of 1,a: tampering with the kernel of 0,a fails
    # 0,a alone, and every element is still decomposed as in an
    # untampered copy
    E, intact = (direct_product(mv_chain(1), mv_chain(2)) for _ in range(2))
    x = E.index("0,a")
    assert x == 1
    kernels = list(decompose.structure_profile(E).sharp_kernel)
    kernels[x] = E.one if kernel == "one" else None
    tamper_profile(monkeypatch, E, sharp_kernel=tuple(kernels))
    with pytest.raises(error, match=f"^{message}$"):
        basic_decomposition(E, x)
    for y in range(E.size):
        assert atomic_decomposition(E, y) == atomic_decomposition(intact, y)
        if y != x:
            assert basic_decomposition(E, y) == basic_decomposition(intact, y)
    with pytest.raises(error, match=f"^{message}$"):
        basic_decomposition(E, x)


def outcome(decomposition, E, x):
    """The decomposition of x, or the type and message it raised."""
    try:
        return decomposition(E, x)
    except Exception as exc:
        return type(exc), str(exc)


def test_table_equals_the_walk(corpus, example_25, example_37, example_44, at_the_cap):
    # the 107 algebras of the law differential tests and three at the cap,
    # in atomic and basic form, raised preconditions included
    algebras = differential_algebras(corpus, example_25, example_37, example_44)
    assert len(algebras) == 107
    for name, E in algebras + at_the_cap:
        for x in range(E.size):
            assert atomic_decomposition(E, x) == atomic_decomposition_by_walk(E, x)
            assert outcome(basic_decomposition, E, x) == outcome(
                basic_decomposition_by_walk, E, x
            ), (name, x)


def test_basic_matches_brute_force_everywhere(corpus):
    small = [(name, E) for name, E in corpus if E.size <= 12]
    assert small
    for name, E in small:
        for x in range(E.size):
            found = oracle_basic_decompositions(E, x)
            assert len(found) == 1, (name, x, found)
            b = basic_decomposition(E, x)
            got = (
                b.sharp_part,
                frozenset((p.atom, p.multiplicity) for p in b.meager_parts),
            )
            assert got == next(iter(found)), (name, x)


def test_glued_chain_decomposition_picks_the_right_block():
    E = horizontal_sum([mv_chain(2), mv_chain(3)])
    b = basic_decomposition(E, E.index("2b"))
    assert b.sharp_part == E.zero
    assert b.meager_parts == (AtomMultiple(E.index("b"), 2),)
