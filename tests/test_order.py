"""Induced order, bounds, compatibility, and classification."""

import dataclasses

from effalg import (
    atomic_decomposition,
    basic_decomposition,
    boolean_algebra,
    classify,
    compatibility,
    derive_order,
    direct_product,
    extract_sharp,
    horizontal_sum,
    mv_chain,
    structure_profile,
)
from effalg.core import _difference_table
from conftest import differential_algebras, refuse_compatibility_masks, zero_last
from oracles import (
    compatibility_by_tuples,
    decoded,
    derive_order_by_lookup,
    difference_table_by_loop,
    oracle_compatible,
    oracle_join,
    oracle_leq,
    oracle_meet,
    oracle_sharp,
)


def test_chain_order_is_total():
    E = mv_chain(5)
    os = derive_order(E)
    for x in range(E.size):
        for y in range(E.size):
            assert os.leq(x, y) == (x <= y)


def test_boolean_order_is_subset_inclusion():
    E = boolean_algebra(3)
    os = derive_order(E)
    for x in range(E.size):
        for y in range(E.size):
            assert os.leq(x, y) == (x & y == x)


def test_order_against_the_oracle(corpus, example_25, example_44):
    everything = corpus + [("ex25", example_25), ("ex44", example_44)]
    for name, E in everything:
        below = oracle_leq(E)
        os = derive_order(E)
        for x in range(E.size):
            for y in range(E.size):
                assert os.leq(x, y) == (x in below[y]), (name, x, y)
                assert bool(os.down[y] >> x & 1) == (x in below[y])


def beyond_the_corpus(example_25, example_37, example_44):
    """The fixtures, a non-lattice sum of a fixture with a chain, and a
    chain-by-chain product larger than the corpus's."""
    return [
        ("ex25", example_25),
        ("ex37", example_37),
        ("ex44", example_44),
        ("ex44+chain3", horizontal_sum([example_44, mv_chain(3)])),
        ("chain4xchain5", direct_product(mv_chain(4), mv_chain(5))),
    ]


def test_bounds_against_the_oracle(corpus, example_25, example_37, example_44):
    everything = corpus + beyond_the_corpus(example_25, example_37, example_44)
    for name, E in everything:
        os = derive_order(E)
        for x in range(E.size):
            for y in range(E.size):
                assert os.meet[x][y] == oracle_meet(E, x, y), (name, x, y)
                assert os.join[x][y] == oracle_join(E, x, y), (name, x, y)


def test_order_equals_the_lookup_reference(
    corpus, example_25, example_37, example_44, at_the_cap
):
    # the corpus, the fixtures and the off-lattice algebras, each with its
    # zero-last relabelling, and the three tables at the element cap
    algebras = differential_algebras(corpus, example_25, example_37, example_44)
    assert len(algebras) > 100
    for name, E in algebras + at_the_cap:
        assert derive_order(E) == derive_order_by_lookup(E), name


def test_a_missing_join_is_a_missing_meet_of_the_supplements(example_25):
    # x v y = (x' ^ y')', so a and b lack a join exactly as their
    # supplements ab and 2a lack a meet
    E = example_25
    a, b = E.index("a"), E.index("b")
    a_, b_ = E.supplement[a], E.supplement[b]
    assert (E.names[a_], E.names[b_]) == ("ab", "2a")
    os = derive_order(E)
    assert not os.is_lattice
    missing_joins = {
        (x, y) for x in range(E.size) for y in range(E.size) if os.join[x][y] is None
    }
    missing_meets = {
        (E.supplement[x], E.supplement[y])
        for x in range(E.size)
        for y in range(E.size)
        if os.meet[x][y] is None
    }
    assert missing_joins == missing_meets == {(a, b), (b, a)}


def test_compatibility_against_the_oracle(
    corpus, example_25, example_37, example_44
):
    fixtures = [("ex25", example_25), ("ex37", example_37), ("ex44", example_44)]
    for name, E in corpus + fixtures:
        compat = compatibility(E)
        all_compatible = True
        for x in range(E.size):
            for y in range(E.size):
                expected = oracle_compatible(E, x, y)
                # A pair without a meet or a join has no bit set.
                got = bool(compat[x] >> y & 1)
                assert got == bool(expected), (name, x, y)
                all_compatible = all_compatible and expected is True
        # MV: every pair has a meet and a join, and every pair commutes.
        assert classify(E).is_mv == all_compatible, name


def test_compatibility_and_differences_equal_the_tuple_references(
    corpus, example_25, example_37, example_44, at_the_cap
):
    # the byte-row masks and differences against the loops over the tuple
    # tables that they replaced, with zero last as well at the element cap
    algebras = differential_algebras(corpus, example_25, example_37, example_44)
    algebras += at_the_cap
    algebras += [(f"{name}-zero-last", zero_last(E)) for name, E in at_the_cap]
    for name, E in algebras:
        assert compatibility(E) == compatibility_by_tuples(E), name
        diff = difference_table_by_loop(E)
        assert decoded(_difference_table(E)) == diff, name
        if E.size <= 64:
            assert all(
                E.diff(b, a) == diff[a][b] for a in range(E.size) for b in range(E.size)
            ), name


def mixed_lattices():
    """Products and horizontal sums mixing Boolean algebras and chains:
    lattices, and none of them MV."""
    return [
        (
            "b2x(c2+c3)",
            direct_product(
                boolean_algebra(2), horizontal_sum([mv_chain(2), mv_chain(3)])
            ),
        ),
        (
            "(b2+c3)xc2",
            direct_product(
                horizontal_sum([boolean_algebra(2), mv_chain(3)]), mv_chain(2)
            ),
        ),
        ("b3+c4", horizontal_sum([boolean_algebra(3), mv_chain(4)])),
    ]


def test_the_mv_flag_equals_full_compatibility_masks(
    corpus, example_25, example_37, example_44, at_the_cap
):
    # classify reads MV as "x ^ y = 0 implies x + y defined" on a lattice;
    # the masks, computed pair by pair from the tuple tables, say whether
    # every pair is compatible
    algebras = differential_algebras(corpus, example_25, example_37, example_44)
    algebras += at_the_cap + mixed_lattices()
    lattices_not_mv = 0
    for name, E in algebras:
        full = (1 << E.size) - 1
        cls = classify(E)
        assert cls.is_mv == all(m == full for m in compatibility_by_tuples(E)), name
        lattices_not_mv += cls.is_lattice and not cls.is_mv
    assert lattices_not_mv >= 30


def test_the_analysis_path_builds_no_compatibility_masks(
    corpus, example_25, example_37, example_44, at_the_cap, monkeypatch
):
    # with every call of compatibility refused, a copy of each algebra,
    # with a memo of its own, analyses as the algebra did before
    def analysis(E):
        cls = classify(E)
        parts = [atomic_decomposition(E, x) for x in range(E.size)]
        if cls.is_lattice:
            parts += [basic_decomposition(E, x) for x in range(E.size)]
        return cls, structure_profile(E), extract_sharp(E), parts

    algebras = differential_algebras(corpus, example_25, example_37, example_44)
    algebras += at_the_cap
    expected = [analysis(E) for _, E in algebras]
    refuse_compatibility_masks(monkeypatch)
    for (name, E), want in zip(algebras, expected):
        assert analysis(dataclasses.replace(E)) == want, name


def test_the_orthomodular_image_flag_is_a_lattice_of_sharp_elements(
    corpus, example_25, example_37, example_44, at_the_cap
):
    # classify reads the sharp set from structure_profile; the oracle
    # tests each element against its supplement from the table
    algebras = differential_algebras(corpus, example_25, example_37, example_44)
    images = lattices_not_images = 0
    for name, E in algebras + at_the_cap:
        lattice = derive_order(E).is_lattice
        image = lattice and oracle_sharp(E) == set(range(E.size))
        assert classify(E).is_orthomodular_image == image, name
        images += image
        lattices_not_images += lattice and not image
    assert images >= 20 and lattices_not_images >= 70


def test_boolean_bounds_are_bitwise():
    E = boolean_algebra(3)
    os = derive_order(E)
    for x in range(E.size):
        for y in range(E.size):
            assert os.meet[x][y] == x & y
            assert os.join[x][y] == x | y


def test_lattice_flags(corpus, example_25, example_37, example_44):
    for _, E in corpus:
        assert derive_order(E).is_lattice
    beyond = dict(beyond_the_corpus(example_25, example_37, example_44))
    assert derive_order(beyond.pop("chain4xchain5")).is_lattice
    for name, E in beyond.items():
        assert not derive_order(E).is_lattice, name


def test_join_of_atoms_is_missing_in_the_small_counterexample(example_25):
    a, b = example_25.index("a"), example_25.index("b")
    os = derive_order(example_25)
    assert os.join[a][b] is None
    assert os.meet[a][b] == example_25.zero


def test_compatibility_on_chains_is_universal():
    E = mv_chain(4)
    assert compatibility(E) == ((1 << E.size) - 1,) * E.size


def test_glued_chains_are_not_mv():
    E = horizontal_sum([mv_chain(2), mv_chain(2)])
    a, b = E.index("a"), E.index("b")
    assert not compatibility(E)[a] >> b & 1
    cls = classify(E)
    assert cls.is_lattice and not cls.is_mv


def test_compatibility_needs_bounds(example_25):
    a, b = example_25.index("a"), example_25.index("b")
    assert derive_order(example_25).join[a][b] is None
    assert not compatibility(example_25)[a] >> b & 1


def test_classification_of_standard_families():
    for n in range(1, 6):
        cls = classify(mv_chain(n))
        assert cls.is_lattice and cls.is_mv
        assert cls.is_orthomodular_image == (n <= 1)
    for k in range(1, 4):
        cls = classify(boolean_algebra(k))
        assert cls.is_lattice and cls.is_mv and cls.is_orthomodular_image


def test_self_supplemented_glue_point_is_not_sharp():
    # In two glued two-element chains the halfway elements supplement
    # themselves, so the algebra is a lattice but no longer an image of
    # an orthomodular structure.
    E = horizontal_sum([mv_chain(2), mv_chain(2)])
    cls = classify(E)
    assert cls.is_lattice
    assert not cls.is_orthomodular_image


def test_glued_boolean_blocks_are_orthomodular():
    E = horizontal_sum([boolean_algebra(2), boolean_algebra(2)])
    cls = classify(E)
    assert cls.is_lattice
    assert cls.is_orthomodular_image
    assert not cls.is_mv


def test_nonlattice_classifies_all_false(example_44):
    cls = classify(example_44)
    assert not cls.is_lattice
    assert not cls.is_mv
    assert not cls.is_orthomodular_image
