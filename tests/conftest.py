import numpy as np
import scipy.linalg


def random_hermitian(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (A + A.conj().T) / 2


def random_skew(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (A - A.conj().T) / 2


def random_psd(rng, n, scale=1.0):
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (B @ B.conj().T) / n


def random_unitary(rng, n):
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(B)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def planted_flow(rng, n):
    """A geodesic problem with a feasible answer of known cost.

    rho0 = U0 diag(lam) U0* with a simple spectrum lam, a traceless z with
    lam + z >= 0, a skew X and rho1 = e^X (rho0 + Z) e^{-X} with Z = U0
    diag(z) U0*.  The constant controls (X, Z) join rho0 to rho1, so no
    geodesic between them costs more than ||X||_F + epsilon ||z||.  Returns
    (rho0, rho1, X, z); the exponential is scipy's, not the package's.
    """
    lam = rng.dirichlet(np.ones(n))
    z = rng.dirichlet(np.ones(n)) - lam
    U0 = random_unitary(rng, n)
    # X has no gauge part (U0* X U0 has a zero diagonal), so it is a
    # stationary point of the gauge search and the bound is often attained
    Xe = random_skew(rng, n, rng.uniform(0.1, 1.0))
    np.fill_diagonal(Xe, 0.0)
    X = U0 @ Xe @ U0.conj().T
    E = scipy.linalg.expm(X)
    rho0 = (U0 * lam) @ U0.conj().T
    rho1 = E @ (U0 * (lam + z)) @ U0.conj().T @ E.conj().T
    return (rho0 + rho0.conj().T) / 2, (rho1 + rho1.conj().T) / 2, X, z
