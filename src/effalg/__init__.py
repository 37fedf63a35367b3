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
"""

from .constructions import (
    boolean_algebra,
    direct_product,
    horizontal_sum,
    mv_chain,
    bundled_fixture,
)
from .core import (
    AxiomReport,
    EffectAlgebra,
    SumTable,
    Violation,
    build_effect_algebra,
    make_algebra,
    multiple,
    verify_axioms,
)
from .decompose import (
    AtomicDecomposition,
    AtomMultiple,
    BasicDecomposition,
    SplitDecomposition,
    atomic_decomposition,
    basic_decomposition,
    split_atomic_decomposition,
)
from .eaf import (
    EafDocument,
    parse_eaf,
    parse_state,
    serialize_eaf,
    serialize_state,
)
from .errors import (
    AxiomViolation,
    DegenerateBlock,
    DuplicateName,
    EffectAlgebraError,
    IndexOutOfRange,
    InvalidDecomposition,
    InvalidState,
    MissingElement,
    MissingHeader,
    NegativeDenominator,
    ParseError,
    PreconditionFailed,
    SizeLimit,
    UnknownName,
)
from .laws import LAW_IDS, LawReport, LawResult, run_law_suite
from .linear import (
    FeasiblePoint,
    InfeasibilityCertificate,
    LinearSystem,
    solve_exact,
    verify_certificate,
    verify_point,
)
from .order import (
    Classification,
    OrderStructure,
    classify,
    compatibility,
    derive_order,
)
from .states import (
    State,
    StateReport,
    find_state,
    restrict_to_sharp,
    smear_state,
    state_row_labels,
    state_system,
    verify_state,
)
from .structure import (
    SharpSubalgebra,
    StructureProfile,
    extract_sharp,
    structure_profile,
)

__all__ = [
    "AtomMultiple",
    "AtomicDecomposition",
    "AxiomReport",
    "AxiomViolation",
    "BasicDecomposition",
    "Classification",
    "DegenerateBlock",
    "DuplicateName",
    "EafDocument",
    "EffectAlgebra",
    "EffectAlgebraError",
    "FeasiblePoint",
    "IndexOutOfRange",
    "InfeasibilityCertificate",
    "InvalidDecomposition",
    "InvalidState",
    "LAW_IDS",
    "LawReport",
    "LawResult",
    "LinearSystem",
    "MissingElement",
    "MissingHeader",
    "NegativeDenominator",
    "OrderStructure",
    "ParseError",
    "PreconditionFailed",
    "SharpSubalgebra",
    "SizeLimit",
    "SplitDecomposition",
    "State",
    "StateReport",
    "StructureProfile",
    "SumTable",
    "UnknownName",
    "Violation",
    "atomic_decomposition",
    "basic_decomposition",
    "boolean_algebra",
    "build_effect_algebra",
    "classify",
    "compatibility",
    "derive_order",
    "direct_product",
    "extract_sharp",
    "find_state",
    "horizontal_sum",
    "make_algebra",
    "multiple",
    "mv_chain",
    "parse_eaf",
    "parse_state",
    "bundled_fixture",
    "restrict_to_sharp",
    "run_law_suite",
    "serialize_eaf",
    "serialize_state",
    "smear_state",
    "solve_exact",
    "split_atomic_decomposition",
    "state_row_labels",
    "state_system",
    "structure_profile",
    "verify_axioms",
    "verify_certificate",
    "verify_point",
    "verify_state",
]
