"""Dense complex linear algebra kernels for small Hermitian/unitary matrices.

Each kernel is written once.  The eigendecomposition of a single Hermitian
matrix takes a closed form at 2x2 and LAPACK (``numpy.linalg.eigh``) above,
with every eigenvector phase-fixed so the basis is reproducible bit for
bit.  The exponential of skew-Hermitian matrices, the propagators e^{Xt}
over many times, the Hermitian/skew parts and the degeneracy grouping of
eigenvalues accept single matrices and ``(..., n, n)`` stacks alike.  The
exponential and its adjoint (the gradient through the derivative of e^{Xt},
summed over times, for each X of a stack) both read the eigenpairs of -iX
from ``eig_skew``, so a caller that keeps them decomposes each X once.  The
principal logarithm of unitary matrices, commutators, the Frobenius (trace)
inner product and a coordinate basis of the skew-Hermitian matrices complete
the set.  The unitary eigendecomposition behind the logarithm is read off
a complex Schur form, its columns in LAPACK's phases.  Every unitary has a
principal logarithm, its eigenphases taken in (-pi, pi], so the logarithm
refuses no input.
``degeneracy_groups`` holds the one rule for which eigenvalues count as
degenerate, and the gauge of the spectrum it labels is decided here:
``skew_basis(n, labels)`` generates it, ``polar_gauge`` is its member
nearest a matrix, and ``phase_fix`` fixes a basis's column phases.
``check_count`` checks that a solver budget is a whole number in range,
and ``check_skew`` that a rotation generator is skew-Hermitian.
``InfeasibleError``, which the solvers raise on endpoints of unequal trace,
lives here so that the CLI can catch it without loading them.  scipy loads
on the first ``eig_unitary`` call only.  Matrices are plain ``numpy``
arrays of ``complex`` dtype; targeted sizes are n ~ 2..10.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_DEGENERACY_TOL = 1e-8  # relative eigenvalue gap below which values are one group


class InfeasibleError(ValueError):
    """No commuting-drift path joins the endpoints (trace mismatch)."""


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


def check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is a whole
    number of at least ``minimum``.  A boolean is not a count."""
    try:
        whole = not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def check_skew(X) -> np.ndarray:
    """X as a complex array; a ValueError unless it is skew-Hermitian within
    1e-9, the tolerance the CLI reads "skew" documents with."""
    X = np.asarray(X, dtype=complex)
    if not is_skew_hermitian(X, tol=1e-9):
        raise ValueError("rotation generator X must be skew-Hermitian")
    return X


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


def phase_fix(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive,
    which fixes a basis's column phases for reproducible output."""
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
    V = phase_fix(np.column_stack([w, v]))
    return EigenDecomposition(np.array([lo, hi]), V)


def eig_hermitian(A: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of one Hermitian matrix, reproducible bit for bit.

    The input is symmetrized first.  A 2x2 takes the closed form; larger
    matrices go to LAPACK (``numpy.linalg.eigh``).  Eigenvalues are returned
    ascending and each eigenvector is phase-fixed (largest-magnitude
    component real positive), so the basis is a deterministic function of
    the input.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    A = hermitian_part(A)
    n = A.shape[0]
    if n == 1:
        return EigenDecomposition(A.real.diagonal().copy(), np.eye(1, dtype=complex))
    if n == 2:
        return _eig2(A)
    values, vectors = np.linalg.eigh(A)
    return EigenDecomposition(values, phase_fix(vectors))


def eig_skew(X: np.ndarray):
    """Eigenpairs (theta, W) of -iX for a skew-Hermitian X or a (..., n, n)
    stack of them, so X = W diag(i theta) W*: what the exponential and its
    adjoint share.

    A single 2x2 takes the closed form, which keeps ``synth`` output and
    2x2 sampled paths bit-stable; everything else goes to LAPACK.  No
    phase fix: an exponential does not depend on the eigenbasis.
    """
    H = -1j * np.asarray(X, dtype=complex)
    return _eig2(hermitian_part(H)) if H.shape == (2, 2) else np.linalg.eigh(H)


def exp_i(theta: np.ndarray, W: np.ndarray) -> np.ndarray:
    """W diag(e^{i theta}) W* for theta (..., n) and W (..., n, n): e^X
    from the eigenpairs of -iX."""
    return (W * np.exp(1j * theta)[..., None, :]) @ dagger(W)


def expm_skew(X: np.ndarray) -> np.ndarray:
    """exp(X) for a skew-Hermitian X or a (..., n, n) stack of them, via
    the Hermitian eigenproblem of -iX."""
    return exp_i(*eig_skew(X))


def expm_skew_times(X: np.ndarray, times) -> np.ndarray:
    """Propagators e^{Xt}, shape (len(times), n, n), from one
    eigendecomposition of -iX.  Raises ValueError on a non-finite time."""
    ts = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValueError("path times must be finite")
    theta, W = eig_skew(X)
    return exp_i(theta * ts[:, None], W)


def expm_skew_adjoint(theta: np.ndarray, W: np.ndarray, times, Y) -> np.ndarray:
    """Gradient in X of sum_i Re<Y_i, e^{X t_i}> at each skew-Hermitian X of
    a stack, from the eigenpairs (theta, W) = ``eig_skew(X)`` that the
    forward exponential used: the G with d sum_i Re<Y_i, e^{X t_i}> =
    Re<G, dX>.

    theta is (..., n), W (..., n, n), times (m,) and Y (..., m, n, n);
    the result is (..., n, n), one gradient per X, summed over its m times.
    Daleckii-Krein (Higham 2008, Functions of Matrices, sec. 3.2): the
    derivative of e^{Xt} scales W* dX W elementwise by t times the divided
    differences phi of e^{i theta t}, taken in the half-angle form of the
    expm1 quotient, e^{i(theta_j + theta_k)t/2} sin(g)/g with g = (theta_j -
    theta_k)t/2, which stays accurate as eigenvalues coincide; so G = sum_i
    t_i W (conj(phi_i) o W* Y_i W) W*.  No eigendecomposition is made here.
    """
    theta = np.asarray(theta)[..., None, :]
    t = np.asarray(times, dtype=float)[:, None, None]
    phi = np.exp(0.5j * t * (theta[..., :, None] + theta[..., None, :])) * np.sinc(
        t * (theta[..., :, None] - theta[..., None, :]) / (2 * np.pi)
    )
    Wm = W[..., None, :, :]
    Yw = dagger(Wm) @ np.asarray(Y, dtype=complex) @ Wm
    return W @ (t * np.conj(phi) * Yw).sum(axis=-3) @ dagger(W)


def eig_unitary(Q: np.ndarray) -> EigenDecomposition:
    """Eigenphases (in (-pi, pi], ascending) and eigenvectors of a unitary Q.

    The complex Schur form of a normal matrix is diagonal, so its Schur
    vectors are orthonormal eigenvectors even where eigenphases cluster
    (Higham 2008, Functions of Matrices, sec. 11), and the phases are the
    angles of its diagonal.  The columns keep the phases LAPACK gives them:
    its callers read only W f(phases) W*, which those phases do not change.
    """
    from scipy.linalg import schur

    T, W = schur(np.asarray(Q, dtype=complex), output="complex")
    phases = np.angle(np.diagonal(T))
    order = np.argsort(phases, kind="stable")
    return EigenDecomposition(phases[order], W[:, order])


def logm_unitary(Q: np.ndarray) -> np.ndarray:
    """Principal logarithm W diag(i phi) W* of a unitary Q, with the
    eigenphases phi of ``eig_unitary`` in (-pi, pi].

    Every unitary has one.  At an eigenphase of +-pi the two branches give
    logarithms of equal norm, so a phase rounded across the cut still
    returns a skew-Hermitian X with e^X = Q and the same ||X||_F.
    """
    phases, W = eig_unitary(Q)
    return skew_part((W * (1j * phases)) @ W.conj().T)


def degeneracy_groups(values: np.ndarray) -> np.ndarray:
    """Cluster labels for ascending values along the last axis, chaining
    gaps below ``_DEGENERACY_TOL`` * max|values|.

    This is the one degeneracy rule: it fixes the gauge group of the
    geodesic, the commutant of the tangent split and the rotations of the
    path solver's first frame.
    """
    values = np.asarray(values, dtype=float)
    thresh = _DEGENERACY_TOL * np.max(np.abs(values), axis=-1, keepdims=True, initial=0.0)
    labels = np.zeros(values.shape, dtype=int)
    labels[..., 1:] = np.cumsum(np.diff(values, axis=-1) > thresh, axis=-1)
    return labels


def group_slices(labels: np.ndarray) -> list[np.ndarray]:
    """Indices of each group of ``degeneracy_groups`` labels, in label order."""
    return [np.flatnonzero(labels == g) for g in range(labels[-1] + 1)] if len(labels) else []


def polar_gauge(G: np.ndarray, labels: np.ndarray, signs=None) -> np.ndarray:
    """Unitary polar factors W Vh of G's diagonal blocks G_b = W Sigma Vh on
    the groups of ``labels``: the gauge of a spectrum with these labels
    nearest to G.  A vanishing 1 x 1 block gets phase 1.

    Given ``signs`` (m, n), returns the m gauges W diag(s_b) Vh instead, s_b
    the entries of a row on block b, in the order of its singular values:
    sign flips of singular pairs, which move with the block's basis."""
    s = np.ones((1, G.shape[-1])) if signs is None else np.asarray(signs, dtype=float)
    Theta = np.zeros((len(s),) + G.shape, dtype=G.dtype)
    for idx in group_slices(labels):
        if len(idx) == 1:
            a = G[idx[0], idx[0]]
            Theta[:, idx[0], idx[0]] = s[:, idx[0]] * (a / abs(a) if abs(a) > 1e-12 else 1.0)
        else:
            W, _, Vh = np.linalg.svd(G[np.ix_(idx, idx)])
            Theta[:, idx[:, None], idx] = (W * s[:, None, idx]) @ Vh
    return Theta[0] if signs is None else Theta


# --- coordinate basis: A = np.tensordot(v, basis, 1) and v = coords(A, basis) ---


def skew_basis(n: int, labels=None) -> np.ndarray:
    """Orthogonal basis (m, n, n) of the skew-Hermitian matrices: i E_aa,
    then E_ab - E_ba, then i(E_ab + E_ba), over a < b in row-major order.
    Given ``degeneracy_groups`` labels, only the rows that commute with the
    labelled spectrum are kept, in this order: its gauge's generators."""
    E = np.eye(n * n, dtype=complex).reshape(n, n, n, n)
    iu, ju = np.triu_indices(n, k=1)
    if labels is not None:
        same = np.asarray(labels)[iu] == np.asarray(labels)[ju]
        iu, ju = iu[same], ju[same]
    U, L = E[iu, ju], E[ju, iu]
    return np.concatenate([1j * E[np.arange(n), np.arange(n)], U - L, 1j * (U + L)])


def along(G: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Re<S_i, G> for each basis matrix S_i, of one matrix G or of each in a
    stack: the derivatives along the basis of a function whose gradient is G."""
    return np.tensordot(G, basis.conj(), axes=((-2, -1), (-2, -1))).real


def coords(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coordinates of A, or of each matrix in a stack, in an orthogonal basis."""
    return along(A, basis) / (np.abs(basis) ** 2).sum(axis=(1, 2))
