"""Tangent-space splitting at a PSD matrix: rotation vs. commuting scaling.

A Hermitian perturbation T of a PSD matrix rho decomposes orthogonally (in
the trace inner product) into a part [X, rho] that rotates the eigenvectors
of rho and a part u that commutes with rho and rescales its eigenvalues.
In the eigenbasis of rho the split is entrywise: off-diagonal entries that
couple distinct eigenvalues belong to the rotation part, entries within an
eigenvalue's block (and the diagonal) belong to the commutant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    commutator,
    dagger,
    degeneracy_groups,
    eig_hermitian,
    expm_skew,
    hermitian_part,
    is_hermitian,
    skew_part,
)


@dataclass(frozen=True)
class TangentSplit:
    """Decomposition T = rot + u + (trace/n) I with rot = [X, rho].

    X is the minimal-Frobenius-norm skew-Hermitian generator (zero on the
    eigenvalue-degenerate blocks, where the commutator map has its kernel).
    u is traceless and commutes with rho; any trace carried by the input
    direction is stripped into ``trace`` rather than folded into u.
    """

    X: np.ndarray
    rot: np.ndarray
    u: np.ndarray
    trace: float


def split_tangent(rho: np.ndarray, T: np.ndarray) -> TangentSplit:
    """Split a Hermitian direction T at rho into rotation and scaling parts.

    With rho = V diag(lam) V* and T' = V* T V, entries of T' that couple
    distinct eigenvalues are matched by X'_{kl} = T'_{kl} / (lam_l - lam_k);
    the remaining block-diagonal entries commute with rho and form u.
    Eigenvalues that ``linalg.degeneracy_groups`` puts in one group are
    treated as degenerate and their entries routed to u, keeping X bounded.
    """
    rho = np.asarray(rho, dtype=complex)
    T = np.asarray(T, dtype=complex)
    if rho.shape != T.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {T.shape}")
    if not is_hermitian(rho):
        raise ValueError("base point must be Hermitian")
    if not is_hermitian(T):
        raise ValueError("tangent direction must be Hermitian")

    lam, V = eig_hermitian(rho)
    Tp = dagger(V) @ T @ V
    labels = degeneracy_groups(lam)
    gaps = lam[None, :] - lam[:, None]
    Xp = np.zeros_like(Tp)
    np.divide(Tp, gaps, out=Xp, where=labels[:, None] != labels[None, :])

    X = skew_part(V @ Xp @ dagger(V))
    u = project_commutant_eig(lam, V, T)
    rot = hermitian_part(commutator(X, rho))
    return TangentSplit(X=X, rot=rot, u=u, trace=float(np.trace(T).real))


def project_commutant(rho: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Orthogonal projection of T onto traceless directions commuting with rho."""
    rho = np.asarray(rho, dtype=complex)
    T = np.asarray(T, dtype=complex)
    if rho.shape != T.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {T.shape}")
    if not is_hermitian(rho):
        raise ValueError("base point must be Hermitian")
    if not is_hermitian(T):
        raise ValueError("tangent direction must be Hermitian")

    lam, V = eig_hermitian(rho)
    return project_commutant_eig(lam, V, T)


def project_commutant_eig(values: np.ndarray, vectors: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Commutant projection at a state given by its eigendecomposition.

    ``values`` (..., n) ascending and ``vectors`` (..., n, n) describe one
    state or a stack of states; T is one Hermitian direction or a stack,
    broadcast against them.  In the eigenbasis the projection keeps the
    entries within each degenerate block, then removes the trace.
    """
    Tp = dagger(vectors) @ T @ vectors
    labels = degeneracy_groups(values)
    up = np.where(labels[..., :, None] == labels[..., None, :], Tp, 0.0)
    n = up.shape[-1]
    diag = np.arange(n)
    up[..., diag, diag] -= np.trace(up, axis1=-2, axis2=-1)[..., None].real / n
    return hermitian_part(vectors @ up @ dagger(vectors))


def rotation_flow(rho0: np.ndarray, X: np.ndarray, t: float) -> np.ndarray:
    """Isospectral flow e^{Xt} rho0 e^{-Xt}: eigenvectors turn, spectrum fixed."""
    U = expm_skew(np.asarray(X, dtype=complex) * t)
    return hermitian_part(U @ np.asarray(rho0, dtype=complex) @ U.conj().T)
