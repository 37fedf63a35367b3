"""Generators: chains, powers of two, gluings, products, bundled tables."""

import itertools

import pytest

from effalg import (
    DegenerateBlock,
    EffectAlgebra,
    SizeLimit,
    boolean_algebra,
    direct_product,
    horizontal_sum,
    mv_chain,
    bundled_fixture,
    serialize_eaf,
    structure_profile,
)
from effalg import EffectAlgebraError, extract_sharp
from effalg import constructions
from effalg.constructions import FIXTURE_FILES, fixture_text

from conftest import off_lattice, zero_last
from oracles import (
    boolean_algebra_by_sums,
    direct_product_by_sums,
    extract_sharp_by_sums,
    horizontal_sum_by_sums,
    mv_chain_by_sums,
)


def test_chain_is_total_addition_capped_at_n():
    n = 6
    E = mv_chain(n)
    assert E.size == n + 1
    for i in range(E.size):
        for j in range(E.size):
            expected = i + j if i + j <= n else None
            assert E.table[i][j] == expected


def test_chain_size_limit():
    with pytest.raises(SizeLimit):
        mv_chain(0)
    assert mv_chain(254).size == 255
    with pytest.raises(SizeLimit, match="^chains are provided for 1 <= n <= 254$"):
        mv_chain(255)


def test_products_and_horizontal_sums_share_the_chain_cap(monkeypatch):
    # refused from the parts' sizes, before any table is built
    with pytest.raises(
        SizeLimit, match="^products are provided up to 255 elements, not 256$"
    ):
        direct_product(mv_chain(15), mv_chain(15))
    # 2 + 127 + 126 interior elements, then 2 + 127 + 127
    assert horizontal_sum([mv_chain(128), mv_chain(127)]).size == 255
    with pytest.raises(
        SizeLimit, match="^horizontal sums are provided up to 255 elements, not 256$"
    ):
        horizontal_sum([mv_chain(128), mv_chain(128)])
    # the cap itself is allowed, one more element is not
    monkeypatch.setattr(constructions, "_MAX_ELEMENTS", 12)
    assert direct_product(mv_chain(2), mv_chain(3)).size == 12
    assert horizontal_sum([mv_chain(6), mv_chain(6)]).size == 12
    with pytest.raises(SizeLimit, match="not 13"):
        horizontal_sum([mv_chain(6), mv_chain(7)])
    with pytest.raises(SizeLimit, match="not 16"):
        direct_product(mv_chain(3), mv_chain(3))


def test_smallest_chain_is_the_two_point_algebra():
    E = mv_chain(1)
    assert E.size == 2
    assert E.names == ("0", "1")


def test_boolean_sums_are_disjoint_unions():
    E = boolean_algebra(3)
    for x in range(E.size):
        for y in range(E.size):
            expected = x | y if x & y == 0 else None
            assert E.table[x][y] == expected


def test_boolean_names_list_member_digits():
    E = boolean_algebra(3)
    assert E.names[0] == "0"
    assert E.names[7] == "1"
    assert E.names[0b011] == "s01"
    assert E.names[0b100] == "s2"


def test_boolean_size_limit():
    with pytest.raises(SizeLimit):
        boolean_algebra(0)
    with pytest.raises(SizeLimit):
        boolean_algebra(7)


def test_horizontal_sum_of_one_part_is_that_part():
    E = mv_chain(3)
    assert horizontal_sum([E]) is E


def test_horizontal_sum_keeps_blocks_apart():
    E = horizontal_sum([mv_chain(2), mv_chain(3)])
    assert E.names == ("0", "a", "b", "2b", "1")
    a, b = E.index("a"), E.index("b")
    assert E.table[a][b] is None
    assert E.table[a][a] == E.one
    assert E.table[b][E.index("2b")] == E.one


def test_horizontal_sum_interior_names_are_positional():
    E = horizontal_sum([mv_chain(4), mv_chain(2)])
    assert E.names == ("0", "a", "2a", "3a", "b", "1")


def test_horizontal_sum_takes_one_block_per_letter():
    with pytest.raises(SizeLimit) as err:
        horizontal_sum([mv_chain(2)] * 27)
    assert str(err.value) == "at most 26 blocks supported"


def test_horizontal_sum_rejects_two_point_blocks():
    with pytest.raises(DegenerateBlock):
        horizontal_sum([mv_chain(1), mv_chain(3)])


def test_horizontal_sum_needs_at_least_one_part():
    with pytest.raises(ValueError):
        horizontal_sum([])


def test_product_is_componentwise():
    E1, E2 = mv_chain(2), mv_chain(3)
    P = direct_product(E1, E2)
    assert P.size == E1.size * E2.size
    for x1, x2 in itertools.product(range(E1.size), range(E2.size)):
        for y1, y2 in itertools.product(range(E1.size), range(E2.size)):
            s1 = E1.table[x1][y1]
            s2 = E2.table[x2][y2]
            got = P.table[x1 * E2.size + x2][y1 * E2.size + y2]
            if s1 is None or s2 is None:
                assert got is None
            else:
                assert got == s1 * E2.size + s2


def test_product_names_pair_the_factors():
    P = direct_product(boolean_algebra(1), mv_chain(2))
    assert P.names == ("0,0", "0,a", "0,1", "1,0", "1,a", "1,1")


def test_fixture_aliases_share_a_table():
    one = bundled_fixture("example-2.5")
    other = bundled_fixture("example-3.7")
    assert one.table == other.table
    assert one.names == other.names


def test_fixture_names_are_curated():
    with pytest.raises(KeyError):
        bundled_fixture("example-9.9")
    assert set(FIXTURE_FILES) == {"example-2.5", "example-3.7", "example-4.4"}


def test_bundled_files_are_canonical():
    from effalg import build_effect_algebra, parse_eaf

    for filename in sorted(set(FIXTURE_FILES.values())) + ["hsum-c2-c3.eaf"]:
        text = fixture_text(filename)
        E = build_effect_algebra(parse_eaf(text))
        assert serialize_eaf(E) == text, filename


def test_glued_chain_fixture_matches_the_generator():
    generated = horizontal_sum([mv_chain(2), mv_chain(3)])
    from effalg import build_effect_algebra, parse_eaf

    bundled = build_effect_algebra(parse_eaf(fixture_text("hsum-c2-c3.eaf")))
    assert bundled.names == generated.names
    assert bundled.table == generated.table


def test_products_of_sharp_algebras_stay_sharp_everywhere():
    P = direct_product(boolean_algebra(2), boolean_algebra(1))
    prof = structure_profile(P)
    assert prof.sharp == set(range(P.size))


def _outcome(build, *args):
    """``build(*args)``, or the type and message of the error it raises."""
    try:
        return build(*args)
    except EffectAlgebraError as err:
        return type(err), str(err)


def _assert_same(got, want, name):
    assert got == want, name
    if isinstance(want, EffectAlgebra):
        assert (got.names, got.zero, got.one) == (want.names, want.zero, want.one), name


def test_the_byte_row_builds_equal_the_dict_path_references(
    corpus, example_25, example_37, example_44, at_the_cap
):
    for n in [*range(1, 41), 254, 255]:
        _assert_same(_outcome(mv_chain, n), _outcome(mv_chain_by_sums, n), n)
    for k in range(8):
        got, want = _outcome(boolean_algebra, k), _outcome(boolean_algebra_by_sums, k)
        _assert_same(got, want, k)
    algebras = [E for _, E in corpus] + off_lattice(example_25, example_37, example_44)
    algebras += [zero_last(E) for E in algebras if E.zero == 0]
    # each algebra with the next, the last with the first
    pairs = list(zip(algebras, algebras[1:] + algebras[:1]))
    built = []
    for i, (E, F) in enumerate(pairs):
        for got, want in (
            (_outcome(direct_product, E, F), _outcome(direct_product_by_sums, E, F)),
            (
                _outcome(horizontal_sum, [E, F]),
                _outcome(horizontal_sum_by_sums, [E, F]),
            ),
        ):
            _assert_same(got, want, i)
            if isinstance(got, EffectAlgebra):
                built.append(got)
    cap = dict(at_the_cap)
    _assert_same(cap["c15xc17"], direct_product_by_sums(mv_chain(14), mv_chain(16)), 0)
    _assert_same(
        cap["hsum-4-boolean-64"], horizontal_sum_by_sums([boolean_algebra(6)] * 4), 1
    )
    for i, E in enumerate(algebras + built + list(cap.values())):
        got, want = extract_sharp(E), extract_sharp_by_sums(E)
        _assert_same(got, want, i)
        _assert_same(got.algebra, want.algebra, i)
    assert len(built) > 1.5 * len(pairs)
