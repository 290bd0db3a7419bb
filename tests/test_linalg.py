import numpy as np
import pytest
import scipy.linalg as sla

from conftest import random_hermitian, random_skew, random_unitary
from denflow.linalg import (
    BranchAmbiguityError,
    commutator,
    eig_hermitian,
    expm_skew,
    frob_inner,
    coords,
    eig_unitary,
    frob_norm,
    herm_basis,
    logm_unitary,
    skew_basis,
)


def test_eig_diagonal():
    ev = eig_hermitian(np.diag([1.0, 0.0]).astype(complex))
    assert np.allclose(ev.values, [0.0, 1.0])
    assert np.allclose(ev.vectors, [[0, 1], [1, 0]])


def test_eig_exchange_matrix():
    ev = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(ev.values, [-1.0, 1.0])
    s = 1 / np.sqrt(2)
    # phase fixing makes the largest-magnitude component real positive
    assert np.allclose(np.abs(ev.vectors), s)
    assert np.allclose(ev.vectors.conj().T @ ev.vectors, np.eye(2), atol=1e-12)
    assert np.allclose(ev.vectors[:, 0] * ev.vectors[:, 0][::-1], [-0.5, -0.5])
    assert np.allclose(ev.vectors[:, 1] * ev.vectors[:, 1][::-1], [0.5, 0.5])


def test_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        A = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 10)))
        val, vec = eig_hermitian(A)
        assert np.all(np.diff(val) >= 0)
        assert frob_norm(A @ vec - vec * val) <= 1e-9 * max(1.0, frob_norm(A))
        assert frob_norm(vec.conj().T @ vec - np.eye(n)) <= 1e-10


def test_eig_matches_lapack_eigenvalues():
    rng = np.random.default_rng(12)
    for _ in range(30):
        A = random_hermitian(rng, int(rng.integers(2, 8)))
        val, _ = eig_hermitian(A)
        assert np.allclose(val, np.linalg.eigvalsh(A), atol=1e-10)


def test_eig_deterministic():
    rng = np.random.default_rng(13)
    A = random_hermitian(rng, 6)
    e1 = eig_hermitian(A)
    e2 = eig_hermitian(A.copy())
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_eig_degenerate_spectrum():
    rng = np.random.default_rng(14)
    Q = random_unitary(rng, 5)
    A = Q @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0]) @ Q.conj().T
    val, vec = eig_hermitian(A)
    assert np.allclose(val, [1, 1, 1, 2, 2], atol=1e-10)
    assert frob_norm((vec * val) @ vec.conj().T - A) <= 1e-9


def test_conjugation_preserves_spectrum():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = random_hermitian(rng, n)
        Q = random_unitary(rng, n)
        a = eig_hermitian(A).values
        b = eig_hermitian(Q @ A @ Q.conj().T).values
        assert np.allclose(a, b, atol=1e-9)


def test_expm_zero_is_identity():
    assert np.array_equal(expm_skew(np.zeros((3, 3))), np.eye(3))


def test_expm_quarter_turn():
    X = np.array([[0.0, -np.pi / 2], [np.pi / 2, 0.0]], dtype=complex)
    assert np.allclose(expm_skew(X), [[0, -1], [1, 0]], atol=1e-14)


def test_expm_axis_swap_pattern():
    # rotation by pi about the diagonal axis (1,1,0)/sqrt(2): generator has
    # four entries of magnitude pi/sqrt(2) ~ 2.2214 and exchanges the first
    # two axes while reversing the third
    a = np.pi / np.sqrt(2)
    X = np.array([[0, 0, a], [0, 0, -a], [-a, a, 0]], dtype=complex)
    P = np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1.0]])
    assert frob_norm(expm_skew(X) - P) <= 1e-12


def test_expm_matches_scipy():
    rng = np.random.default_rng(16)
    for _ in range(30):
        X = random_skew(rng, int(rng.integers(2, 8)))
        assert frob_norm(expm_skew(X) - sla.expm(X)) <= 1e-10


def test_expm_unitary():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        U = expm_skew(random_skew(rng, n, scale=3.0))
        assert frob_norm(U.conj().T @ U - np.eye(n)) <= 1e-10


def test_logm_identity_is_zero():
    assert frob_norm(logm_unitary(np.eye(4, dtype=complex))) == 0.0


def test_logm_quarter_turn():
    X = logm_unitary(np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(X, [[0, -np.pi / 2], [np.pi / 2, 0]], atol=1e-12)


def _logm_inputs(rng):
    """Skew X with spectral radius below pi - 0.1, n = 2..7: random, and
    W diag(i phi) W* for random phases, +-t pairs (equal cosines),
    near-clusters of 1e-9 spread, and phases of order 1e-9."""
    for _ in range(40):
        n = int(rng.integers(2, 8))
        X = random_skew(rng, n)
        radius = np.abs(eig_hermitian(-1j * X).values).max()
        if radius > np.pi - 0.1:
            X *= (np.pi - 0.1) / radius * 0.99
        yield X
    for n in range(2, 8):
        for _ in range(10):
            t = rng.uniform(0.1, np.pi - 0.1, n)
            centers = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 2)
            spread = 1e-9 * rng.standard_normal(n)
            for phi in (
                rng.uniform(-np.pi + 0.1, np.pi - 0.1, n),
                np.concatenate([t, -t])[:n],
                centers[rng.integers(0, 2, n)] + spread,
                spread,
            ):
                W = random_unitary(rng, n)
                yield (W * (1j * phi)) @ W.conj().T


def test_logm_roundtrip_random():
    # backward stable: the log round trip, the eigen-residual and the
    # orthonormality of the eigenvectors all sit at rounding level
    rng = np.random.default_rng(18)
    for X in _logm_inputs(rng):
        n = X.shape[0]
        Q = expm_skew(X)
        assert frob_norm(logm_unitary(Q) - X) <= 1e-12
        phases, W = eig_unitary(Q)
        assert frob_norm(Q @ W - W * np.exp(1j * phases)) <= 1e-13
        assert frob_norm(W.conj().T @ W - np.eye(n)) <= 1e-13
        assert np.all(np.diff(phases) >= 0)
        assert np.all((phases > -np.pi) & (phases <= np.pi))


def test_logm_paired_phases():
    # eigenphases +t and -t share a cosine; the solver must still separate them
    t = 1.2
    U = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    X = U @ np.diag([1j * t, -1j * t]) @ U.conj().T
    assert frob_norm(logm_unitary(expm_skew(X)) - X) <= 1e-12


def test_logm_branch_cut_raises():
    with pytest.raises(BranchAmbiguityError) as exc:
        logm_unitary(np.diag([-1.0 + 0j, 1.0 + 0j]))
    assert abs(abs(exc.value.phase) - np.pi) < 1e-8
    # slightly away from the cut is fine
    Q = np.diag([np.exp(1j * (np.pi - 1e-4)), 1.0 + 0j])
    assert frob_norm(expm_skew(logm_unitary(Q)) - Q) <= 1e-8


def test_commutator_diagonal_pair_is_zero():
    A = np.diag([2.0, 5.0]).astype(complex)
    B = np.diag([-1.0, 7.0]).astype(complex)
    assert frob_norm(commutator(A, B)) == 0.0


def test_commutator_hand_value():
    A = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    B = np.diag([1.0, 0.0]).astype(complex)
    assert np.array_equal(commutator(A, B), np.array([[0, 1], [1, 0]], dtype=complex))


def test_commutator_skew_with_hermitian():
    # [X, rho] is Hermitian and traceless when X is skew and rho Hermitian
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        X = random_skew(rng, n)
        rho = random_hermitian(rng, n)
        C = commutator(X, rho)
        assert abs(np.trace(C)) <= 1e-12 * max(1.0, frob_norm(C))
        assert frob_norm(C - C.conj().T) <= 1e-12 * max(1.0, frob_norm(C))


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


def test_frob_inner_identity():
    assert frob_inner(np.eye(2, dtype=complex), np.eye(2, dtype=complex)) == 2.0


def test_frob_norm_values():
    assert np.isclose(frob_norm(np.diag([-1.0, 1.0])), np.sqrt(2))
    X = np.array([[0.0, -np.pi / 2], [np.pi / 2, 0.0]])
    assert np.isclose(frob_norm(X), np.pi / np.sqrt(2))


def test_frob_inner_is_real_inner_product():
    rng = np.random.default_rng(20)
    A = random_hermitian(rng, 4)
    B = random_hermitian(rng, 4)
    assert np.isclose(frob_inner(A, B), frob_inner(B, A))
    assert np.isclose(frob_inner(A, A), frob_norm(A) ** 2)
    with pytest.raises(ValueError):
        frob_inner(np.eye(2), np.eye(3))


def test_parameter_vector_roundtrips():
    rng = np.random.default_rng(21)
    for n in (1, 2, 5):
        H, K = herm_basis(n), skew_basis(n)
        A = random_hermitian(rng, n)
        assert np.allclose(np.tensordot(coords(A, H), H, 1), A, atol=1e-15)
        X = random_skew(rng, n)
        assert np.allclose(np.tensordot(coords(X, K), K, 1), X, atol=1e-15)
        v = rng.normal(size=n * n)
        assert np.allclose(coords(np.tensordot(v, H, 1), H), v, atol=1e-15)
        assert np.allclose(coords(np.tensordot(v, K, 1), K), v, atol=1e-15)
