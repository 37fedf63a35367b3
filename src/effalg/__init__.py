"""Finite effect algebras: axioms, order, sharpness, decompositions, states.

The package models a finite partial algebra (E; +, 0, 1) whose partial sum
is commutative and associative where defined, every element has a unique
supplement to 1, and 1 + a is defined only for a = 0.  On top of the
validated table it derives the induced order, lattice structure, atoms and
sharp elements, isotropic indices, sharp covers and kernels, basic
decompositions, and exact rational states, including the smearing
extension of a state on the sharp part to the whole algebra.  An
executable law suite re-checks the expected structural identities on any
given algebra, and the ``effalg`` command line exposes everything over a
small text format for tables and states.

Each public name, and each module that defines one, is imported on first
use, so ``import effalg`` loads none of the modules and a program pays
only for those it reaches.
"""

from importlib import import_module

# each public name, by the module that defines it
_EXPORTS = {
    "constructions": """
        boolean_algebra bundled_fixture direct_product horizontal_sum mv_chain
    """,
    "core": """
        AxiomReport EffectAlgebra SumTable Violation build_effect_algebra
        make_algebra multiple verify_axioms
    """,
    "decompose": """
        AtomMultiple AtomicDecomposition BasicDecomposition SplitDecomposition
        atomic_decomposition basic_decomposition split_atomic_decomposition
    """,
    "eaf": "EafDocument parse_eaf parse_state serialize_eaf serialize_state",
    "errors": """
        AxiomViolation DegenerateBlock DuplicateName EffectAlgebraError
        IndexOutOfRange InvalidDecomposition InvalidState MissingElement
        MissingHeader NegativeDenominator ParseError PreconditionFailed
        SizeLimit UnknownName
    """,
    "laws": "LAW_IDS LawReport LawResult run_law_suite",
    "linear": """
        FeasiblePoint InfeasibilityCertificate LinearSystem solve_exact
        verify_certificate verify_point
    """,
    "order": "Classification OrderStructure classify compatibility derive_order",
    "states": """
        State StateReport find_state restrict_to_sharp smear_state
        state_row_labels state_system verify_state
    """,
    "structure": """
        SharpSubalgebra StructureProfile extract_sharp structure_profile
    """,
}
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names.split()
}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name, or one of the modules above, on first use."""
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
