"""Flows of positive-semidefinite Hermitian matrices.

Interpolation between density-like matrices by factoring the motion into a
unitary rotation of the eigenvectors and a commuting scaling of the
eigenvalues, plus a regularizer that fits such a flow to noisy samples.

``import denflow`` is lazy: each name below loads its home module on first
use (PEP 562).  scipy loads with the solvers (``solve_geodesic``,
``solve_discrete_path``, ``solve_regularization``) and on the first call of
``eig_unitary`` or ``logm_unitary``; the ``decompose`` and ``synth``
commands never load it.
"""

from importlib import import_module

_EXPORTS = {
    "CostBreakdown": "geodesic",
    "GeodesicSolution": "geodesic",
    "eval_path": "geodesic",
    "minimal_rotation": "geodesic",
    "path_cost": "geodesic",
    "sample_path": "geodesic",
    "solve_geodesic": "geodesic",
    "EigenDecomposition": "linalg",
    "InfeasibleError": "linalg",
    "commutator": "linalg",
    "eig_hermitian": "linalg",
    "eig_unitary": "linalg",
    "expm_skew": "linalg",
    "frob_inner": "linalg",
    "frob_norm": "linalg",
    "logm_unitary": "linalg",
    "MatrixSample": "regularize",
    "RegularizedModel": "regularize",
    "model_path": "regularize",
    "residual": "regularize",
    "solve_regularization": "regularize",
    "synth_noisy_path": "regularize",
    "TangentSplit": "tangent",
    "project_commutant": "tangent",
    "rotation_flow": "tangent",
    "split_tangent": "tangent",
    "DiscretePath": "transcription",
    "discrete_cost": "transcription",
    "solve_discrete_path": "transcription",
    "step": "transcription",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    # not cached here, so a rebinding in the home module shows through
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _EXPORTS.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
