"""Phase-precision limits of lossy two-mode interferometers.

The package computes quantum Cramer-Rao bounds on phase-sum and
phase-difference estimation for passive (beam-splitter) and amplifying
(two-mode-squeezer) interferometers fed with a coherent state and a
squeezed vacuum, with photon loss handled through a gamma-indexed
family of Kraus decompositions whose tightest member is found in
closed form.
"""

from .errors import (
    CutoffTooSmall,
    DegenerateStatistics,
    NonFiniteObjective,
    NonpositiveInformation,
    PhaseboundError,
    SingularComplement,
)
from .moments import (
    Correlations,
    InterferometerInput,
    ModeStatistics,
    SplitterKind,
    SplitterSpec,
    derived_correlations,
    lbs_moments,
    nbs_moments,
)
from .optimizer import (
    OptimizationResult,
    SingleArm,
    TwoArmIndependent,
    TwoArmSymmetric,
    optimize_gamma,
)
from .qfim_ideal import (
    EstimationMode,
    FisherMatrix,
    Target,
    overestimation,
    qcrb,
    qfim_matrix,
    two_param_bound,
)
from .qfim_lossy import (
    SingleArmLoss,
    TwoArmLoss,
    c_matrix_single,
    c_matrix_two,
    gamma_opt_single,
)

__version__ = "0.1.0"

__all__ = [
    "Correlations",
    "CutoffTooSmall",
    "DegenerateStatistics",
    "EstimationMode",
    "FisherMatrix",
    "InterferometerInput",
    "ModeStatistics",
    "NonFiniteObjective",
    "NonpositiveInformation",
    "OptimizationResult",
    "PhaseboundError",
    "SingleArm",
    "SingleArmLoss",
    "SingularComplement",
    "SplitterKind",
    "SplitterSpec",
    "Target",
    "TwoArmIndependent",
    "TwoArmLoss",
    "TwoArmSymmetric",
    "c_matrix_single",
    "c_matrix_two",
    "derived_correlations",
    "gamma_opt_single",
    "lbs_moments",
    "nbs_moments",
    "optimize_gamma",
    "overestimation",
    "qcrb",
    "qfim_matrix",
    "two_param_bound",
    "__version__",
]
