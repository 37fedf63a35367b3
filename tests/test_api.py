"""The public API: one entry point per derived result."""

import effalg

# Wrappers that read one field of ``structure_profile(E)`` or one bit of
# ``compatibility(E)``, the two errors only they raised, the error for a
# pair declared twice, now an ``Ei`` violation of ``AxiomViolation``, the
# error for an element with no atom below it, which no finite algebra has,
# and the state report's own violation type, now ``Violation``.
REMOVED = (
    "atoms",
    "sharp_elements",
    "meager_elements",
    "is_sharp",
    "isotropic_index",
    "sharp_bounds",
    "SharpBounds",
    "is_sharply_dominating",
    "is_s_dominating",
    "is_atomic",
    "is_archimedean",
    "compatible",
    "ZeroElement",
    "BoundsMissing",
    "DuplicateSum",
    "NotDecomposable",
    "StateViolation",
)


def test_all_lists_each_export_once_and_every_one_resolves():
    assert len(effalg.__all__) == len(set(effalg.__all__))
    for name in effalg.__all__:
        assert hasattr(effalg, name), name
    assert "compatibility" in effalg.__all__


def test_removed_wrappers_are_gone():
    for name in REMOVED:
        assert not hasattr(effalg, name), name
    assert not hasattr(effalg.EffectAlgebra, "sum")
    assert not hasattr(effalg.EffectAlgebra, "orth")
