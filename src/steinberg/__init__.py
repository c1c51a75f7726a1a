"""Exact Weyl-group combinatorics behind Steinberg variety geometry.

The package computes, over the rationals and with no rounding anywhere:
root systems and Weyl groups from Cartan data, parabolic double cosets
with their minimal/maximal representatives, the group algebra QW with its
trivial and sign idempotents and two-sided averaging projectors, and the
dimension bookkeeping that matches component counts of (generalized)
Steinberg varieties against invariant and anti-invariant subspace
dimensions.
"""

from .errors import (
    InvalidSubset,
    MixedGroups,
    NotFiniteType,
    NotGeneralizedCartan,
    OrderCapExceeded,
    ParseError,
)
from .rootsys import (
    DEFAULT_ORDER_CAP,
    CartanDatum,
    RootSystem,
    WeylElement,
    WeylGroup,
    cartan_from_name,
    enumerate_weyl,
    root_system,
    standard_cartan,
    validate_cartan,
    word_name,
)
from .parabolic import (
    double_cosets,
    is_minimal_in_double_coset,
    max_double_coset_rep,
    maximal_reps,
    min_double_coset_rep,
    normalize_subset,
    parabolic_elements,
)
from .algebra import (
    AlgebraElement,
    SubspaceBasis,
    anti_invariant_basis,
    average,
    biact,
    delta,
    invariant_basis,
    right_sign_eigenspace,
    sign_average,
    sign_idempotent,
    span_dimension,
    trivial_idempotent,
)
from .varieties import (
    ComponentReport,
    GeometryProfile,
    PairProfile,
    VerificationReport,
    averaging_image_check,
    geometry_profile,
    hotta_verification,
    pair_profile,
    parabolic_length,
    report_jsonable,
    steinberg_components,
    verify_anti_invariant_isomorphism,
    verify_invariant_isomorphism,
    y_components,
)

__version__ = "0.1.0"
