"""Pre-Schwarzian and Schwarzian derivatives of analytic maps of the unit
disk, their hyperbolic sup-norms, and numerical verification of the sharp
bounds attached to the convex-type classes F(c)."""

from .errors import (
    CenterMismatchError,
    DivisionBySingular,
    DomainError,
    GammaDegenerate,
    SearchUnreliable,
    SINGULAR_TOL,
)
from .jets import (
    TaylorJet,
    jet_add,
    jet_compose,
    jet_differentiate,
    jet_div,
    jet_exp,
    jet_integrate,
    jet_log,
    jet_mul,
    jet_pow,
)
from .functions import (
    AnalyticFunction,
    ClassSpec,
    Composition,
    ExtremalFc,
    ExtremalFcLambda,
    ExtremalFcStar,
    Identity,
    Koebe,
    Mobius,
    Polynomial,
    QuadraticPerturbation,
    SchurFunction,
    SubordinationMember,
    from_descriptor,
    half_plane,
    jet_at,
    random_member,
    random_schur,
    DEFAULT_JET_ORDER,
)
from .schwarzian import (
    DerivativePoint,
    composition_rule_residual,
    derivative_point,
    ode_residual,
    preschwarzian_at,
    schwarzian_at,
)
from .norms import NormEstimate, hyperbolic_norm, radial_profile, weighted_modulus
from .theorems import (
    BoundReport,
    GammaSpec,
    GrowthDistortionBounds,
    MembershipVerdict,
    UnivalencePredicates,
    gamma_of,
    growth_distortion_bounds,
    lemmaA_margin,
    manufacture_nonmember,
    membership_status,
    psi_identity_residual,
    recover_phi,
    schwarzian_norm_bound,
    thm21_equivalence_sweep,
    thm21_ii_margin,
    thm21_iii_margin,
    thm25_bound,
    univalence_bruteforce,
    univalence_predicates,
    verify_growth_distortion,
    verify_lemmaA,
    verify_psi,
    verify_thm21_margins,
    verify_thm23,
    verify_thm24,
    verify_thm25,
)

__version__ = "0.1.0"
