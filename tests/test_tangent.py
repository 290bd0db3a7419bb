import numpy as np
import pytest

from conftest import random_hermitian, random_psd, random_unitary
from denflow.linalg import commutator, eig_hermitian, frob_inner, frob_norm
from denflow.tangent import project_commutant, rotation_flow, split_tangent


def test_split_pure_rotation_direction():
    rho = np.diag([1.0, 0.0]).astype(complex)
    T = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    s = split_tangent(rho, T)
    assert np.allclose(s.X, [[0, -1], [1, 0]], atol=1e-12)
    assert frob_norm(s.u) <= 1e-12
    assert np.allclose(s.rot, T, atol=1e-12)
    assert s.trace == 0.0


def test_split_pure_scaling_direction():
    rho = np.diag([1.0, 0.0]).astype(complex)
    T = np.diag([1.0, -1.0]).astype(complex)
    s = split_tangent(rho, T)
    assert frob_norm(s.X) == 0.0
    assert np.allclose(s.u, T, atol=1e-14)


def test_split_at_identity_everything_commutes():
    rng = np.random.default_rng(30)
    T = random_hermitian(rng, 4)
    T -= np.trace(T).real / 4 * np.eye(4)
    s = split_tangent(np.eye(4, dtype=complex) / 4, T)
    assert frob_norm(s.X) == 0.0
    assert np.allclose(s.u, T, atol=1e-14)


def test_split_reports_trace_separately():
    rho = np.diag([1.0, 0.0]).astype(complex)
    T = np.diag([2.0, 0.0]).astype(complex)
    s = split_tangent(rho, T)
    assert np.isclose(s.trace, 2.0)
    assert abs(np.trace(s.u)) <= 1e-12
    assert np.allclose(s.rot + s.u + (s.trace / 2) * np.eye(2), T, atol=1e-10)


def test_split_rejects_non_hermitian():
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        split_tangent(rho, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        split_tangent(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), rho)


NON_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@pytest.mark.parametrize(
    "fn, rho, T, message",
    [
        (split_tangent, np.diag([1.0, 0.0]), np.eye(3), "dimension mismatch"),
        (project_commutant, np.diag([1.0, 0.0]), np.eye(3), "dimension mismatch"),
        (project_commutant, np.diag([1.0, 0.0]), NON_HERMITIAN, "direction must be Hermitian"),
        (project_commutant, NON_HERMITIAN, np.diag([1.0, 0.0]), "base point must be Hermitian"),
        (split_tangent, np.diag([np.inf, 0.0]), np.eye(2), "base point has non-finite entries"),
        (split_tangent, np.eye(2), np.diag([0.0, np.nan]), "direction has non-finite entries"),
        (split_tangent, np.zeros((0, 0)), np.zeros((0, 0)), "base point is not a square matrix"),
    ],
    ids=["split dimension", "project dimension", "project direction", "project base point",
         "split inf", "split nan", "split 0x0"],
)
def test_bad_inputs_rejected(fn, rho, T, message):
    with pytest.raises(ValueError, match=message):
        fn(rho, T)


def test_split_near_degenerate_routes_to_commutant():
    # gap below the relative threshold: the 1/(lam_l - lam_k) division would
    # blow up, so the entry must land in u and X must stay zero
    rho = np.diag([1.0, 1.0 + 1e-10]).astype(complex)
    T = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    s = split_tangent(rho, T)
    assert frob_norm(s.X) == 0.0
    assert np.allclose(s.u, T, atol=1e-12)


def test_split_property_suite():
    rng = np.random.default_rng(31)
    for trial in range(200):
        n = int(rng.integers(2, 7))
        if trial % 3 == 0:
            # exact degeneracies and zeros in the spectrum
            lam = rng.choice([0.0, 0.5, 0.5, 1.0, 2.0], size=n)
            Q = random_unitary(rng, n)
            rho = Q @ np.diag(lam) @ Q.conj().T
            rho = (rho + rho.conj().T) / 2
        else:
            rho = random_psd(rng, n)
        T = random_hermitian(rng, n)
        s = split_tangent(rho, T)
        scale = max(1.0, frob_norm(T))
        assert frob_norm(s.rot + s.u + (s.trace / n) * np.eye(n) - T) <= 1e-10 * scale
        assert abs(frob_inner(s.rot, s.u)) <= 1e-10 * scale**2
        assert frob_norm(commutator(s.u, rho)) <= 1e-9 * max(
            1.0, frob_norm(rho) * frob_norm(s.u)
        )
        assert abs(np.trace(s.u)) <= 1e-10 * scale
        assert np.allclose(s.rot, commutator(s.X, rho), atol=1e-10)


def test_project_detraces_diagonal():
    rho = np.diag([1.0, 0.0]).astype(complex)
    u = project_commutant(rho, np.diag([2.0, 0.0]).astype(complex))
    assert np.allclose(u, np.diag([1.0, -1.0]), atol=1e-14)


def test_project_rotation_direction_is_zero():
    rho = np.diag([1.0, 0.0]).astype(complex)
    u = project_commutant(rho, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert frob_norm(u) <= 1e-12


def test_project_idempotent():
    rng = np.random.default_rng(32)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        rho = random_psd(rng, n)
        T = random_hermitian(rng, n)
        once = project_commutant(rho, T)
        twice = project_commutant(rho, once)
        assert frob_norm(twice - once) <= 1e-10 * max(1.0, frob_norm(T))


def test_rotation_flow_at_zero_time():
    rng = np.random.default_rng(33)
    rho = random_psd(rng, 3)
    assert np.allclose(rotation_flow(rho, np.zeros((3, 3)), 0.0), rho, atol=1e-14)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [2, 3])
def test_rotation_flow_rejects_non_finite_time(n, t):
    rho = np.diag(np.arange(1.0, n + 1)).astype(complex)
    X = np.zeros((n, n), dtype=complex)
    X[0, 1], X[1, 0] = -1.0, 1.0
    with pytest.raises(ValueError, match="finite"):
        rotation_flow(rho, X, t)


@pytest.mark.parametrize("n", [2, 3])
def test_rotation_flow_rejects_a_non_skew_generator(n):
    # a single 1 above the diagonal; for n >= 3 eigh reads only the lower
    # triangle of -iX, so an unchecked flow returned rho unchanged
    rho = np.diag(np.linspace(0.5, 0.2, n)).astype(complex)
    X = np.zeros((n, n), dtype=complex)
    X[0, 1] = 1.0
    with pytest.raises(ValueError, match="skew-Hermitian"):
        rotation_flow(rho, X, 1.0)
    # within the 1e-9 that CLI documents are read with, X is accepted
    X[1, 0] = -1.0 + 5e-10
    rotation_flow(rho, X, 1.0)


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
def test_rotation_flow_rejects_a_non_finite_state(entry):
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = rho[1, 0] = entry
    X = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="rho0 has non-finite entries"):
        rotation_flow(rho, X, 0.5)


def test_rotation_flow_quarter_turn():
    rho = np.diag([1.0, 0.0]).astype(complex)
    X = np.array([[0.0, -np.pi / 2], [np.pi / 2, 0.0]], dtype=complex)
    assert np.allclose(rotation_flow(rho, X, 1.0), np.diag([0.0, 1.0]), atol=1e-14)


def test_rotation_flow_constant_trace_example():
    rho0 = np.diag([1.0, 0.1]).astype(complex)
    X = np.array([[0.0, -1.6], [1.6, 0.0]], dtype=complex)
    for t in np.arange(0.05, 1.0001, 0.05):
        out = rotation_flow(rho0, X, float(t))
        assert np.isclose(np.trace(out).real, 1.1, atol=1e-12)


def test_rotation_flow_preserves_spectrum():
    rng = np.random.default_rng(34)
    rho0 = random_psd(rng, 4)
    X = random_hermitian(rng, 4) * 1j
    X = (X - X.conj().T) / 2
    base = eig_hermitian(rho0).values
    for t in np.arange(0.0, 1.0001, 0.01):
        out = rotation_flow(rho0, X, float(t))
        assert np.allclose(eig_hermitian(out).values, base, atol=1e-9)
        assert np.isclose(np.trace(out).real, np.trace(rho0).real, atol=1e-9)
