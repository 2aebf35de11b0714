"""Multiplicities of bifurcation sets of Pham singularities.

Exact formulas for the caustic, Maxwell set and Stokes sets of
f = sum_i z_i^(a_i+1), verified numerically by estimating the vanishing
orders of discriminant-type products along generic deformation rays.
"""

from .closed_forms import (
    ExponentVector,
    HomogeneousReport,
    MultiplicitySet,
    binom12,
    binom22,
    caustic_multiplicity,
    homogeneous_report,
    l_value,
    l_value_rewritten,
    maxwell_multiplicity,
    milnor_number,
    mixed_depth_counts,
    mixed_stokes_multiplicity,
    pair_depth_counts,
    pure_stokes_multiplicity,
)
from .critical_tracker import (
    PRESETS,
    CriticalPoint,
    CriticalPointSet,
    GenericLine,
    NewtonDivergence,
    PathCollision,
    TrackerError,
    critical_set,
    default_line,
    jittered_line,
    separable_critical_set,
    track_to_phi,
)
from .degree_lab import (
    ClusterReport,
    DegreeEstimate,
    EpsilonGrid,
    FactorHistogram,
    MultiplicityReport,
    UnclassifiedFactor,
    Verdict,
    classify_factors,
    cluster_scaling,
    estimate_degree,
    expected_factor_histogram,
    verify_all,
)
from .discriminant_products import (
    FactorRecord,
    Kind,
    LogProduct,
    LogProductTrace,
    evaluate_trace,
    log_D,
    log_hessian_product,
    log_Omega,
    log_Y,
)
from .polyalg import (
    NonConvergence,
    SparsePoly,
    hessian_det_at,
    univariate_roots,
)

__version__ = "0.1.0"
