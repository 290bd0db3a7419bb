"""Flows of positive-semidefinite Hermitian matrices.

Interpolation between density-like matrices by factoring the motion into a
unitary rotation of the eigenvectors and a commuting scaling of the
eigenvalues, plus a regularizer that fits such a flow to noisy samples.
"""

from .geodesic import (
    CostBreakdown,
    GeodesicSolution,
    InfeasibleError,
    eval_path,
    minimal_rotation,
    path_cost,
    sample_path,
    solve_geodesic,
)
from .linalg import (
    EigenDecomposition,
    commutator,
    eig_hermitian,
    eig_unitary,
    expm_skew,
    frob_inner,
    frob_norm,
    logm_unitary,
)
from .regularize import (
    MatrixSample,
    RegularizedModel,
    model_path,
    residual,
    solve_regularization,
    synth_noisy_path,
)
from .tangent import (
    TangentSplit,
    project_commutant,
    rotation_flow,
    split_tangent,
)
from .transcription import (
    DiscretePath,
    discrete_cost,
    solve_discrete_path,
    step,
)

__all__ = [
    "CostBreakdown",
    "DiscretePath",
    "EigenDecomposition",
    "GeodesicSolution",
    "InfeasibleError",
    "MatrixSample",
    "RegularizedModel",
    "TangentSplit",
    "commutator",
    "discrete_cost",
    "eig_hermitian",
    "eig_unitary",
    "eval_path",
    "expm_skew",
    "frob_inner",
    "frob_norm",
    "logm_unitary",
    "minimal_rotation",
    "model_path",
    "path_cost",
    "project_commutant",
    "residual",
    "rotation_flow",
    "sample_path",
    "solve_discrete_path",
    "solve_geodesic",
    "solve_regularization",
    "split_tangent",
    "step",
    "synth_noisy_path",
]

__version__ = "0.1.0"
