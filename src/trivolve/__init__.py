"""Computational workbench for involutions and trivolutions on
finite-dimensional complex associative algebras."""

from .algebra import (
    Algebra,
    Element,
    GroupTable,
    Subspace,
    SubspaceFlags,
    analyze_subspace,
    cyclic_group_table,
    element_norm,
    function_algebra,
    group_algebra,
    induced_subalgebra,
    is_commutative,
    make_algebra,
    matrix_algebra,
    multiply,
    opposite_algebra,
    product_algebra,
    quotient,
    subalgebra_closure,
    unitize_algebra,
    verify_group_table,
)
from .duality import (
    ArensStructure,
    Character,
    CharacterSearch,
    DualVector,
    IntrovertedSpace,
    TimObstructionReport,
    TimSolutionSet,
    arens_products,
    check_introverted,
    dual_action,
    extend_involution,
    find_characters,
    full_dual,
    search_trivolutions,
    tim_obstruction_check,
    tim_set,
    verify_character,
)
from .errors import CertificationFailure, ParseError, TrivolveError, UsageError
from .linalg import EPS, EPS_RANK
from .spectra import Spectrum, inverse_element, spectrum, verify_spectral_inclusion
from .starmap import (
    AlgMap,
    adjoint,
    apply,
    classify_multiplicativity,
    compose,
    conjugation_map,
    identity_map,
    kernel_image,
    make_map,
    map_norm,
)
from .trivolution import (
    Decomposition,
    ElementFlags,
    StarClass,
    canonical_decomposition,
    check_positive,
    check_trivolutive_hom,
    classify_star_map,
    element_classes,
    factor_through_involution,
    hermitian_decomposition,
    hermitian_functional_check,
    make_trivolution,
    right_identity_trivolution,
)
from .unitization import (
    ContractiveExtensions,
    ExtensionSpec,
    Type1Solutions,
    contractive_extensions,
    find_type1_solutions,
    unitize_with_trivolution,
    verify_extension,
)

__version__ = "0.1.0"
