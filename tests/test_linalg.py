import numpy as np
import pytest
import scipy.linalg as sla

from conftest import random_hermitian, random_skew, random_unitary
from denflow.linalg import (
    along,
    commutator,
    degeneracy_groups,
    eig_hermitian,
    eig_skew,
    exp_divided_differences,
    expm_skew,
    expm_skew_adjoint,
    frob_inner,
    coords,
    eig_unitary,
    frob_norm,
    group_slices,
    logm_unitary,
    polar_gauge,
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


def _at_the_cut():
    """(Q, phases) at or near the cut: eigenphase pairs +-(pi - d) meet at -1."""
    W = random_unitary(np.random.default_rng(31), 3)
    cases = [
        (np.diag([-1.0 + 0j, 1.0 + 0j]), [np.pi, 0.0]),
        (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), [np.pi, 0.0]),
        (-np.eye(3, dtype=complex), [np.pi] * 3),
    ]
    for d in (0.0, 1e-13, 1e-8):
        phases = [np.pi - d, -(np.pi - d), 0.3]
        cases.append(((W * np.exp(1j * np.array(phases))) @ W.conj().T, phases))
    # slightly away from the cut
    cases.append((np.diag([np.exp(1j * (np.pi - 1e-4)), 1.0 + 0j]), [np.pi - 1e-4, 0.0]))
    return cases


@pytest.mark.parametrize(
    "Q, phases", _at_the_cut(),
    ids=["diag(-1,1)", "reflection", "-I3", "pair-at-cut", "pair-1e-13", "pair-1e-8",
         "off-cut-1e-4"],
)
def test_logm_at_the_branch_cut(Q, phases):
    X = logm_unitary(Q)
    assert frob_norm(X + X.conj().T) == 0.0
    assert frob_norm(sla.expm(X) - Q) <= 1e-13
    assert abs(frob_norm(X) - np.sqrt(np.sum(np.square(phases)))) <= 1e-13


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
        K = skew_basis(n)
        X = random_skew(rng, n)
        assert np.allclose(np.tensordot(coords(X, K), K, 1), X, atol=1e-15)
        v = rng.normal(size=n * n)
        assert np.allclose(coords(np.tensordot(v, K, 1), K), v, atol=1e-15)


def test_along_is_the_inner_product_with_each_basis_matrix():
    rng = np.random.default_rng(22)
    K = skew_basis(3)
    G = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    want = [[frob_inner(S, g) for S in K] for g in G]
    assert np.allclose(along(G, K), want, atol=1e-14)
    assert np.allclose(along(G[0], K), want[0], atol=1e-14)
    # coordinates are these derivatives over the basis norms
    assert np.allclose(coords(G[0], K), along(G[0], K) / np.array([frob_inner(S, S) for S in K]))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)], ids=str)
def test_eig_rejects_non_square(shape):
    with pytest.raises(ValueError, match="square"):
        eig_hermitian(np.zeros(shape))


def _adjoint_case(kind):
    """(Xs, times, Ys): a stack of generators, the times each is taken at
    and one direction Y per generator and time."""
    rng = np.random.default_rng(23)
    if kind == "one X, many times":
        Xs, times = random_skew(rng, 3, 2.0)[None], np.linspace(0.1, 1.0, 6)
    elif kind == "stack, one time each":
        Xs, times = np.stack([random_skew(rng, 3, 2.0) for _ in range(4)]), np.array([0.3])
    elif kind == "repeated eigenvalue":
        Q = random_unitary(rng, 3)
        Xs, times = ((Q * 1j * np.array([0.8, 0.8, -1.1])) @ Q.conj().T)[None], np.array([0.7, 1.3])
    elif kind == "single 2x2":
        Xs, times = random_skew(rng, 2, 2.0)[None], np.array([0.6])
    elif kind == "real":
        A = rng.normal(size=(3, 3))
        Xs, times = (A - A.T)[None].astype(complex), np.array([0.4, 0.9])
    Ys = rng.normal(size=(len(Xs), len(times), *Xs.shape[1:])) + 1j * rng.normal(
        size=(len(Xs), len(times), *Xs.shape[1:]))
    return Xs, times, Ys


@pytest.mark.parametrize("kind", ["one X, many times", "stack, one time each",
                                  "repeated eigenvalue", "single 2x2", "real"])
def test_expm_skew_adjoint_matches_central_differences(kind):
    # the gradient of sum_i Re<Y_i, e^{X t_i}> along each skew basis matrix,
    # against central differences of scipy's expm; the kernel reads the
    # eigenpairs that the forward exponential uses
    Xs, times, Ys = _adjoint_case(kind)
    n = Xs.shape[-1]
    K = skew_basis(n)
    if len(Xs) == 1:
        # a single generator goes in unstacked, through the 2x2 closed form
        G = expm_skew_adjoint(*eig_skew(Xs[0]), times, Ys[0])[None]
    else:
        G = expm_skew_adjoint(*eig_skew(Xs), times, Ys)
    assert G.shape == Xs.shape

    def f(X, Y):
        return sum(frob_inner(y, sla.expm(X * t)) for y, t in zip(Y, times))

    h = 1e-6
    for X, Y, g in zip(Xs, Ys, G):
        fd = [(f(X + h * S, Y) - f(X - h * S, Y)) / (2 * h) for S in K]
        assert np.allclose(along(g, K), fd, rtol=1e-7, atol=1e-7 * np.abs(fd).max())


# --- the gauge of a spectrum: unitaries that commute with it ----------------

GAUGE_LABELS = [(0, 1, 2), (0, 1, 1), (0, 0, 0), (0, 0, 1, 2, 2)]


def block_unitary(rng, labels):
    """A random unitary that is block-diagonal on the groups of labels."""
    n = len(labels)
    U = np.zeros((n, n), dtype=complex)
    for g in group_slices(np.asarray(labels)):
        U[np.ix_(g, g)] = random_unitary(rng, len(g))
    return U


@pytest.mark.parametrize("labels", GAUGE_LABELS, ids=str)
def test_gauge_basis_is_the_commuting_rows_of_the_skew_basis(labels):
    n = len(labels)
    D = np.diag(np.asarray(labels) + 1.0)  # a spectrum with these labels
    assert degeneracy_groups(np.diag(D)).tolist() == list(labels)
    full, gens = skew_basis(n), skew_basis(n, labels)
    pairs = sum(labels[a] == labels[b] for a in range(n) for b in range(a + 1, n))
    assert len(gens) == n + 2 * pairs
    rows = [next(i for i, S in enumerate(full) if np.array_equal(S, G)) for G in gens]
    assert rows == sorted(rows)  # in the skew basis's order, phases first
    assert rows[:n] == list(range(n))
    for G in gens:
        assert np.array_equal(G @ D, D @ G)
    # every row left out fails to commute
    for i in set(range(n * n)) - set(rows):
        assert not np.array_equal(full[i] @ D, D @ full[i])


def test_gauge_basis_of_one_group_is_the_whole_basis():
    for n in (1, 2, 4):
        assert np.array_equal(skew_basis(n, np.zeros(n, dtype=int)), skew_basis(n))


@pytest.mark.parametrize("labels", GAUGE_LABELS, ids=str)
def test_polar_gauge_is_a_covariant_gauge(labels):
    rng = np.random.default_rng(24)
    n = len(labels)
    D = np.diag(np.asarray(labels) + 1.0)
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Theta = polar_gauge(G, np.asarray(labels))
    assert np.abs(Theta.conj().T @ Theta - np.eye(n)).max() <= 1e-12
    assert np.abs(Theta @ D - D @ Theta).max() == 0.0
    # polar(Phi G Psi) = Phi polar(G) Psi for unitaries Phi, Psi of the gauge
    for _ in range(3):
        Phi, Psi = block_unitary(rng, labels), block_unitary(rng, labels)
        got = polar_gauge(Phi @ G @ Psi, np.asarray(labels))
        assert np.abs(got - Phi @ Theta @ Psi).max() <= 1e-12


@pytest.mark.parametrize("labels", GAUGE_LABELS, ids=str)
def test_signed_polar_gauges_flip_singular_pairs(labels):
    rng = np.random.default_rng(25)
    n = len(labels)
    labels = np.asarray(labels)
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    signs = rng.choice([-1.0, 1.0], size=(4, n))
    signs[0] = 1.0
    Thetas = polar_gauge(G, labels, signs)
    assert Thetas.shape == (4, n, n)
    # all signs +1 is the polar factor, bit for bit
    assert np.array_equal(Thetas[0], polar_gauge(G, labels))
    for s, Theta in zip(signs, Thetas):
        assert np.abs(Theta.conj().T @ Theta - np.eye(n)).max() <= 1e-12
        for idx in group_slices(labels):
            W, _, Vh = np.linalg.svd(G[np.ix_(idx, idx)])
            assert np.abs(Theta[np.ix_(idx, idx)] - W @ np.diag(s[idx]) @ Vh).max() <= 1e-12
    # the flips move with the block's basis: covariant like the polar factor
    for _ in range(3):
        Phi, Psi = block_unitary(rng, labels), block_unitary(rng, labels)
        got = polar_gauge(Phi @ G @ Psi, labels, signs)
        assert np.abs(got - Phi @ Thetas @ Psi).max() <= 1e-12


def test_polar_gauge_of_a_vanishing_phase_is_one():
    G = np.array([[0.0, 1.0], [1.0, 2j]])
    assert np.array_equal(polar_gauge(G, np.array([0, 1])), np.diag([1.0, 1j]))



def test_exp_divided_differences_are_the_plain_quotient():
    # apart from coincident eigenvalues the half-angle form equals the plain
    # divided difference of e^{i theta t}; on the diagonal it is e^{i theta t}
    theta, times = np.array([-1.3, 0.2, 2.9]), np.array([0.25, 1.0])
    phi = exp_divided_differences(theta, times)
    assert phi.shape == (2, 3, 3)
    for t, ph in zip(times, phi):
        e = np.exp(1j * theta * t)
        for j in range(3):
            for k in range(3):
                want = e[j] if j == k else (e[j] - e[k]) / (1j * (theta[j] - theta[k]) * t)
                assert abs(ph[j, k] - want) <= 1e-14
