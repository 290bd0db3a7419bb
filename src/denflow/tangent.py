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
    check_hermitian,
    check_skew,
    commutator,
    dagger,
    degeneracy_groups,
    eig_hermitian,
    expm_skew,
    hermitian_part,
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
    rho = check_hermitian(rho, "base point", 1e-12)
    T = check_hermitian(T, "tangent direction", 1e-12)
    if rho.shape != T.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {T.shape}")
    lam, V = eig_hermitian(rho)
    Tp = dagger(V) @ T @ V
    labels = degeneracy_groups(lam)
    gaps = lam[None, :] - lam[:, None]
    Xp = np.zeros_like(Tp)
    np.divide(Tp, gaps, out=Xp, where=labels[:, None] != labels[None, :])

    X = skew_part(V @ Xp @ dagger(V))
    up = np.where(labels[:, None] == labels[None, :], Tp, 0.0)
    n = len(lam)
    up[np.arange(n), np.arange(n)] -= np.trace(up).real / n
    u = hermitian_part(V @ up @ dagger(V))
    rot = hermitian_part(commutator(X, rho))
    return TangentSplit(X=X, rot=rot, u=u, trace=float(np.trace(T).real))


def project_commutant(rho: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Orthogonal projection of T onto traceless directions commuting with
    rho: the u of ``split_tangent``, which keeps the entries of T within each
    degenerate block of rho's eigenbasis and removes the trace."""
    return split_tangent(rho, T).u


def rotation_flow(rho0: np.ndarray, X: np.ndarray, t: float) -> np.ndarray:
    """Isospectral flow e^{Xt} rho0 e^{-Xt}: eigenvectors turn, spectrum
    fixed.  rho0 must be finite and Hermitian within 1e-9."""
    if not np.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")
    rho0 = check_hermitian(rho0, "rho0", 1e-9)
    U = expm_skew(check_skew(X) * t)
    return hermitian_part(U @ rho0 @ U.conj().T)
