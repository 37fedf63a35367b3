"""Atoms, sharpness, isotropic indices, domination, and extraction."""

from dataclasses import replace

from effalg import structure
from effalg import (
    boolean_algebra,
    derive_order,
    extract_sharp,
    horizontal_sum,
    mv_chain,
    structure_profile,
)
from effalg.core import _UNDEF
from conftest import differential_algebras, interval_4_5_6
from oracles import (
    oracle_atomic,
    oracle_atoms,
    oracle_leq,
    oracle_ord,
    oracle_sharp,
    oracle_sharp_bounds,
)


def test_profile_against_the_oracle(corpus, example_25, example_44):
    for name, E in corpus + [("ex25", example_25), ("ex44", example_44)]:
        prof = structure_profile(E)
        assert prof.atoms == oracle_atoms(E), name
        assert prof.sharp == oracle_sharp(E), name
        for x in range(E.size):
            assert prof.isotropic[x] == oracle_ord(E, x), (name, x)
        # what lets the SE-subalgebra law check only closure under +
        assert {E.zero, E.one} <= prof.sharp, name
        assert {E.supplement[x] for x in prof.sharp} == prof.sharp, name


def test_meager_means_no_sharp_below(corpus, example_25, example_44):
    for name, E in corpus + [("ex25", example_25), ("ex44", example_44)]:
        prof = structure_profile(E)
        below = oracle_leq(E)
        sharp = oracle_sharp(E)
        expected = {
            x for x in range(E.size) if below[x] & sharp == {E.zero}
        }
        assert prof.meager == expected, name


def test_chain_facts():
    E = mv_chain(4)
    prof = structure_profile(E)
    assert prof.atoms == {E.index("a")}
    assert prof.sharp == {E.zero, E.one}
    assert prof.isotropic[E.index("a")] == 4
    assert prof.isotropic[E.index("2a")] == 2
    assert prof.isotropic[E.index("3a")] == 1
    assert prof.atomic and prof.archimedean


def test_boolean_everything_is_sharp():
    E = boolean_algebra(3)
    prof = structure_profile(E)
    assert prof.sharp == set(range(E.size))
    assert prof.meager == {E.zero}
    assert all(prof.isotropic[x] == 1 for x in range(E.size) if x != E.zero)


def test_zero_has_no_isotropic_index():
    E = mv_chain(2)
    assert structure_profile(E).isotropic[E.zero] == 0


def test_fixture_indices(example_25, example_44):
    E = example_25
    prof = structure_profile(E)
    assert prof.isotropic[E.index("a")] == 2
    assert prof.isotropic[E.index("b")] == 3
    assert prof.sharp == {E.zero, E.one}
    assert E.index("2a") not in prof.sharp

    F = example_44
    prof = structure_profile(F)
    assert prof.isotropic[F.index("a")] == 3
    assert prof.isotropic[F.index("b")] == 4
    assert prof.isotropic[F.index("c")] == 3
    assert prof.sharp == {F.zero, F.one}


def test_sharp_bounds_against_the_oracle(
    corpus, example_25, example_37, example_44
):
    fixtures = [("ex25", example_25), ("ex37", example_37), ("ex44", example_44)]
    for name, E in corpus + fixtures:
        prof = structure_profile(E)
        for x in range(E.size):
            got = (prof.sharp_cover[x], prof.sharp_kernel[x])
            assert got == oracle_sharp_bounds(E, x), (name, x)


def test_sharp_bounds_on_a_chain():
    E = mv_chain(3)
    mid = E.index("a")
    prof = structure_profile(E)
    assert prof.sharp_cover[mid] == E.one
    assert prof.sharp_kernel[mid] == E.zero
    assert prof.sharp_cover[E.one] == prof.sharp_kernel[E.one] == E.one


def test_sharp_bounds_in_a_boolean_are_the_element():
    E = boolean_algebra(2)
    prof = structure_profile(E)
    for x in range(E.size):
        assert prof.sharp_cover[x] == x and prof.sharp_kernel[x] == x


def test_an_interval_algebra_has_no_sharp_cover_of_5_and_no_sharp_kernel_of_10():
    # The sharp elements above 5 are 9, 11 and 15, and 9 and 11 are not
    # comparable; those below 10 are 0, 4 and 6, and 4 and 6 are not
    # comparable.  So one set of sharp bounds has two minimal elements
    # and the other two maximal ones, and neither has a least or greatest.
    E = interval_4_5_6()
    prof = structure_profile(E)
    assert not derive_order(E).is_lattice
    assert {E.names[x] for x in prof.sharp} == {"0", "4", "6", "9", "11", "15"}
    assert not prof.sharply_dominating
    assert not prof.s_dominating
    assert prof.sharp_cover[E.index("5")] is None
    assert prof.sharp_kernel[E.index("10")] is None
    for x in range(E.size):
        got = (prof.sharp_cover[x], prof.sharp_kernel[x])
        assert got == oracle_sharp_bounds(E, x), E.names[x]


def test_domination_flags(corpus, example_25, example_44):
    for name, E in corpus:
        assert structure_profile(E).sharply_dominating, name
        assert structure_profile(E).s_dominating, name
    # both small counterexamples have a two-element sharp part, so every
    # element is covered by one and meets with sharp elements are trivial
    assert structure_profile(example_25).sharply_dominating
    assert structure_profile(example_25).s_dominating
    assert structure_profile(example_44).sharply_dominating
    assert structure_profile(example_44).s_dominating


def test_a_missing_meet_with_a_sharp_element_is_not_s_dominating(monkeypatch):
    # off lattice order the meets with sharp elements are scanned: here
    # every element of a Boolean algebra is sharp and covers itself, and
    # the order is read with the meet of its two atoms missing
    E = boolean_algebra(2)
    a, b = E.index("s0"), E.index("s1")
    meet = [bytearray(row) for row in derive_order(E).meet_rows]
    meet[a][b] = meet[b][a] = _UNDEF
    os = replace(
        derive_order(E), meet_rows=tuple(map(bytes, meet)), is_lattice=False
    )
    monkeypatch.setattr(structure, "derive_order", lambda _: os)
    prof = structure_profile(E)
    assert prof.sharp == frozenset(range(E.size))
    assert prof.sharply_dominating
    assert not prof.s_dominating


def test_sharp_cover_exists_exactly_when_sharp_kernel_does(corpus):
    lattices = [(name, E) for name, E in corpus if derive_order(E).is_lattice]
    assert lattices
    for name, E in lattices:
        prof = structure_profile(E)
        for x in range(E.size):
            cover, kernel = prof.sharp_cover[x], prof.sharp_kernel[x]
            assert (cover is None) == (kernel is None), (name, x)


def test_extract_sharp_of_boolean_is_everything():
    E = boolean_algebra(2)
    sub = extract_sharp(E)
    assert sub.algebra.size == E.size
    assert sub.to_parent == tuple(range(E.size))


def test_extract_sharp_of_chain_is_two_points():
    E = mv_chain(5)
    sub = extract_sharp(E)
    assert sub.algebra.size == 2
    assert sub.algebra.names == ("0", "1")
    assert sub.from_parent[E.index("2a")] is None


def test_extract_sharp_keeps_block_structure():
    E = horizontal_sum([boolean_algebra(2), boolean_algebra(2)])
    sub = extract_sharp(E)
    assert sub.algebra.size == 6
    inner = [x for x in range(sub.algebra.size)
             if x not in (sub.algebra.zero, sub.algebra.one)]
    for x in inner:
        assert sub.algebra.table[x][sub.algebra.supplement[x]] == sub.algebra.one
    # round trip through the index maps
    for i, parent in enumerate(sub.to_parent):
        assert sub.from_parent[parent] == i


def test_sharp_sums_stay_sharp_in_lattices(corpus):
    for name, E in corpus:
        sharp = structure_profile(E).sharp
        for x in sharp:
            for y in sharp:
                s = E.table[x][y]
                if s is not None:
                    assert s in sharp, name


def test_every_nonzero_element_lies_above_an_atom(
    corpus, example_25, example_37, example_44, at_the_cap
):
    # why the profile's atomic flag is True without a scan: a finite
    # carrier has an atom below each nonzero element
    algebras = differential_algebras(corpus, example_25, example_37, example_44)
    for name, E in algebras + at_the_cap:
        assert oracle_atomic(E), name
        assert structure_profile(E).atomic, name
