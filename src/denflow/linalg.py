"""Dense complex linear algebra kernels for small Hermitian/unitary matrices.

Each kernel is written once.  The eigendecomposition of a single Hermitian
matrix takes a closed form at 2x2 and LAPACK (``numpy.linalg.eigh``) above,
with every eigenvector phase-fixed so the basis is reproducible bit for
bit.  The exponential of skew-Hermitian matrices, the propagators e^{Xt}
over many times, the Hermitian/skew parts and the degeneracy grouping of
eigenvalues accept single matrices and ``(..., n, n)`` stacks alike.  The
adjoint of the derivative of those propagators (summed over times), the
principal logarithm of unitary matrices, commutators, the Frobenius (trace)
inner product and coordinate bases of the (skew-)Hermitian matrices complete
the set.  The unitary eigendecomposition behind the logarithm is read off
a complex Schur form, and ``degeneracy_groups`` holds the one rule for
which eigenvalues count as degenerate.  Matrices are plain ``numpy``
arrays of ``complex`` dtype; targeted sizes are n ~ 2..10.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import schur

_DEGENERACY_TOL = 1e-8  # relative eigenvalue gap below which values are one group
_BRANCH_TOL = 1e-8  # eigenphases this close to -pi are ambiguous for the log


class BranchAmbiguityError(ValueError):
    """A unitary eigenphase sits at the principal-branch cut near -pi.

    The sign of such a phase is not stable under perturbations of the
    input; callers may retry after perturbing the matrix (or a gauge).
    """

    def __init__(self, phase: float):
        super().__init__(f"eigenphase {phase:.12f} is within tolerance of -pi")
        self.phase = phase


class EigenDecomposition(NamedTuple):
    """Eigenvalues ascending; column k of ``vectors`` pairs with ``values[k]``."""

    values: np.ndarray
    vectors: np.ndarray


def dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(np.conj(A), -1, -2)


def hermitian_part(A: np.ndarray) -> np.ndarray:
    """Return (A + A*)/2, matrixwise over stacks."""
    A = np.asarray(A, dtype=complex)
    return (A + dagger(A)) / 2


def skew_part(A: np.ndarray) -> np.ndarray:
    """Return (A - A*)/2, matrixwise over stacks."""
    A = np.asarray(A, dtype=complex)
    return (A - dagger(A)) / 2


def is_hermitian(A: np.ndarray, tol: float = 1e-12) -> bool:
    A = np.asarray(A, dtype=complex)
    return float(np.linalg.norm(A - A.conj().T)) <= tol * max(1.0, float(np.linalg.norm(A)))


def is_skew_hermitian(X: np.ndarray, tol: float = 1e-12) -> bool:
    X = np.asarray(X, dtype=complex)
    return float(np.linalg.norm(X + X.conj().T)) <= tol * max(1.0, float(np.linalg.norm(X)))


def is_unitary(Q: np.ndarray, tol: float = 1e-10) -> bool:
    Q = np.asarray(Q, dtype=complex)
    n = Q.shape[0]
    return float(np.linalg.norm(Q.conj().T @ Q - np.eye(n))) <= tol


def frob_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Real trace inner product Re(trace(A* B))."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return float(np.vdot(A, B).real)


def frob_norm(A: np.ndarray) -> float:
    """Frobenius norm sqrt(trace(A* A))."""
    return float(np.linalg.norm(np.asarray(A)))


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B - B @ A


def _phase_fix(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    V = V.copy()
    for k in range(V.shape[1]):
        j = int(np.argmax(np.abs(V[:, k])))
        a = V[j, k]
        r = abs(a)
        if r > 0.0:
            V[:, k] *= a.conjugate() / r
    return V


def _eig2(A: np.ndarray) -> EigenDecomposition:
    """Closed-form eigendecomposition of a 2x2 Hermitian matrix."""
    a = A[0, 0].real
    d = A[1, 1].real
    b = A[0, 1]
    ab = abs(b)
    scale = max(abs(a), abs(d), ab, 1e-300)
    if ab <= 1e-18 * scale:
        if a <= d:
            return EigenDecomposition(np.array([a, d]), np.eye(2, dtype=complex))
        return EigenDecomposition(
            np.array([d, a]), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        )
    m = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), ab)
    lo, hi = m - r, m + r
    # columns of (A - lo*I) span the hi-eigenvector; pick the better conditioned
    c0 = np.array([hi - d, b.conjugate()])
    c1 = np.array([b, hi - a])
    v = c0 if np.linalg.norm(c0) >= np.linalg.norm(c1) else c1
    v = v / np.linalg.norm(v)
    w = np.array([-v[1].conjugate(), v[0].conjugate()])
    V = _phase_fix(np.column_stack([w, v]))
    return EigenDecomposition(np.array([lo, hi]), V)


def eig_hermitian(A: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of one Hermitian matrix, reproducible bit for bit.

    The input is symmetrized first.  A 2x2 takes the closed form; larger
    matrices go to LAPACK (``numpy.linalg.eigh``).  Eigenvalues are returned
    ascending and each eigenvector is phase-fixed (largest-magnitude
    component real positive), so the basis is a deterministic function of
    the input.
    """
    A = hermitian_part(A)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if n == 1:
        return EigenDecomposition(A.real.diagonal().copy(), np.eye(1, dtype=complex))
    if n == 2:
        return _eig2(A)
    values, vectors = np.linalg.eigh(A)
    return EigenDecomposition(values, _phase_fix(vectors))


def _exp_i(theta: np.ndarray, W: np.ndarray) -> np.ndarray:
    """W diag(e^{i theta}) W* for theta (..., n) and W (..., n, n)."""
    return (W * np.exp(1j * theta)[..., None, :]) @ dagger(W)


def _eig_for_exp(H: np.ndarray):
    """Eigenpairs of a Hermitian matrix or stack, for basis-free results.

    A single 2x2 takes the closed form, which keeps ``synth`` output and
    2x2 sampled paths bit-stable; everything else goes to LAPACK.  No
    phase fix: an exponential does not depend on the eigenbasis.
    """
    return _eig2(hermitian_part(H)) if H.shape == (2, 2) else np.linalg.eigh(H)


def expm_skew(X: np.ndarray) -> np.ndarray:
    """exp(X) for a skew-Hermitian X or a (..., n, n) stack of them, via
    the Hermitian eigenproblem of -iX."""
    return _exp_i(*_eig_for_exp(-1j * np.asarray(X, dtype=complex)))


def expm_skew_times(X: np.ndarray, times) -> np.ndarray:
    """Propagators e^{Xt}, shape (len(times), n, n), from one
    eigendecomposition of -iX."""
    theta, W = _eig_for_exp(-1j * np.asarray(X, dtype=complex))
    return _exp_i(theta * np.asarray(times, dtype=float)[:, None], W)


def expm_skew_times_adjoint(X: np.ndarray, times, Y) -> np.ndarray:
    """Gradient in X of sum_i Re<Y_i, e^{X t_i}>, for skew-Hermitian X: the
    matrix G with d sum_i Re<Y_i, e^{X t_i}> = Re<G, dX>.

    Daleckii-Krein in the eigenbasis of -iX = W diag(theta) W*: the
    derivative of e^{Xt} scales W* dX W elementwise by t times the divided
    differences of e^{i theta t}, taken in the half-angle form of the expm1
    quotient, e^{i(theta_j + theta_k)t/2} sin(g)/g with g = (theta_j -
    theta_k)t/2, which stays accurate as eigenvalues coincide.  One
    eigendecomposition serves every time.
    """
    theta, W = _eig_for_exp(-1j * np.asarray(X, dtype=complex))
    t = np.asarray(times, dtype=float)[:, None, None]
    phi = np.exp(0.5j * t * (theta[:, None] + theta[None, :])) * np.sinc(
        t * (theta[:, None] - theta[None, :]) / (2 * np.pi)
    )
    Yw = dagger(W) @ np.asarray(Y, dtype=complex) @ W
    return W @ (t * np.conj(phi) * Yw).sum(axis=0) @ dagger(W)


def eig_unitary(Q: np.ndarray) -> EigenDecomposition:
    """Eigenphases (in (-pi, pi], ascending) and eigenvectors of a unitary Q.

    The complex Schur form of a normal matrix is diagonal, so its Schur
    vectors are orthonormal eigenvectors even where eigenphases cluster
    (Higham 2008, Functions of Matrices, sec. 11), and the phases are the
    angles of its diagonal.
    """
    T, W = schur(np.asarray(Q, dtype=complex), output="complex")
    phases = np.angle(np.diagonal(T))
    order = np.argsort(phases, kind="stable")
    return EigenDecomposition(phases[order], _phase_fix(W[:, order]))


def logm_unitary(Q: np.ndarray) -> np.ndarray:
    """Principal logarithm of a unitary matrix: eigenphases taken in (-pi, pi].

    Raises :class:`BranchAmbiguityError` if an eigenphase lies within
    ``_BRANCH_TOL`` of -pi, where the branch choice is unstable.
    """
    phases, W = eig_unitary(Q)
    if len(phases):
        worst = float(phases[np.argmax(np.abs(phases))])
        # the cut at -pi is the point |phase| = pi on the circle
        if np.pi - abs(worst) < _BRANCH_TOL:
            raise BranchAmbiguityError(worst)
    return skew_part((W * (1j * phases)) @ W.conj().T)


def degeneracy_groups(values: np.ndarray) -> np.ndarray:
    """Cluster labels for ascending values along the last axis, chaining
    gaps below ``_DEGENERACY_TOL`` * max|values|.

    This is the one degeneracy rule: it fixes the gauge group of the
    geodesic, the commutant of the tangent split and the projection of the
    path solver.
    """
    values = np.asarray(values, dtype=float)
    thresh = _DEGENERACY_TOL * np.max(np.abs(values), axis=-1, keepdims=True, initial=0.0)
    labels = np.zeros(values.shape, dtype=int)
    labels[..., 1:] = np.cumsum(np.diff(values, axis=-1) > thresh, axis=-1)
    return labels


# --- coordinate bases: A = np.tensordot(v, basis, 1) and v = coords(A, basis) ---


def _units(n: int):
    """Unit matrices E_aa, then E_ab and E_ba over a < b in row-major order."""
    E = np.eye(n * n, dtype=complex).reshape(n, n, n, n)
    iu, ju = np.triu_indices(n, k=1)
    return E[np.arange(n), np.arange(n)], E[iu, ju], E[ju, iu]


def herm_basis(n: int) -> np.ndarray:
    """Orthogonal basis (n^2, n, n) of the Hermitian matrices: E_aa, then
    E_ab + E_ba, then i(E_ab - E_ba)."""
    D, U, L = _units(n)
    return np.concatenate([D, U + L, 1j * (U - L)])


def skew_basis(n: int) -> np.ndarray:
    """Orthogonal basis (n^2, n, n) of the skew-Hermitian matrices: i E_aa,
    then E_ab - E_ba, then i(E_ab + E_ba)."""
    D, U, L = _units(n)
    return np.concatenate([1j * D, U - L, 1j * (U + L)])


def coords(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coordinates of A, or of each matrix in a stack, in an orthogonal basis."""
    inner = np.tensordot(np.asarray(A, dtype=complex), basis.conj(), axes=((-2, -1), (-2, -1)))
    return inner.real / (np.abs(basis) ** 2).sum(axis=(1, 2))
