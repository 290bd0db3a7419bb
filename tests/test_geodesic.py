import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import golden

import denflow.geodesic as geo
from conftest import random_psd, random_unitary
from denflow.geodesic import (
    CostBreakdown,
    InfeasibleError,
    eval_path,
    minimal_rotation,
    path_cost,
    sample_path,
    solve_geodesic,
)
from denflow.linalg import (
    along,
    commutator,
    degeneracy_groups,
    eig_hermitian,
    eig_unitary,
    expm_skew,
    frob_norm,
    group_slices,
    hermitian_part,
    logm_unitary,
    polar_gauge,
    skew_basis,
)


def endpoint_residual(sol, rho0, rho1):
    U = expm_skew(sol.X)
    return frob_norm(U @ (rho0 + sol.Z) @ U.conj().T - rho1)


def brute_force_cost(rho0, rho1, epsilon, coarse=24):
    """Exhaustive reference: permutations x dense per-column phase grid,
    refined by cyclic golden-section, scored with LAPACK eigenphases."""
    lam, U0 = np.linalg.eigh(rho0)
    mu, U1 = np.linalg.eigh(rho1)
    n = len(lam)
    axes = [np.linspace(-np.pi, np.pi, coarse, endpoint=False)] * n
    best = np.inf
    for perm in itertools.permutations(range(n)):
        z = mu[list(perm)] - lam
        P = np.zeros((n, n))
        P[np.arange(n), perm] = 1.0
        U0pH = (U0 @ P).conj().T

        def cost(phi):
            Q = (U1 * np.exp(1j * phi)[None, :]) @ U0pH
            return np.sqrt((np.angle(np.linalg.eigvals(Q)) ** 2).sum())

        grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)
        Qs = np.einsum("ik,gk,kj->gij", U1, np.exp(1j * grid), U0pH)
        rots = np.sqrt((np.angle(np.linalg.eigvals(Qs)) ** 2).sum(axis=1))
        phi = grid[int(np.argmin(rots))].copy()
        h = 2 * np.pi / coarse
        for _ in range(3):
            for k in range(n):
                f = lambda a: cost(np.concatenate([phi[:k], [a], phi[k + 1 :]]))
                x, fx, _ = golden(
                    f, brack=(phi[k] - h, phi[k], phi[k] + h), tol=1e-10,
                    full_output=True,
                )
                if fx < f(phi[k]):
                    phi[k] = x
        best = min(best, cost(phi) + epsilon * float(np.linalg.norm(z)))
    return best


def test_fade_regime():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    sol = solve_geodesic(rho0, rho1, 0.1)
    assert sol.cost_rotation <= 1e-6
    assert np.allclose(sol.Z, np.diag([-1.0, 1.0]), atol=1e-6)
    assert np.allclose(eval_path(sol, rho0, 0.5), np.diag([0.5, 0.5]), atol=1e-9)
    assert endpoint_residual(sol, rho0, rho1) <= 1e-6


def test_rotation_regime():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    sol = solve_geodesic(rho0, rho1, 10.0)
    assert sol.cost_scaling <= 1e-6
    assert abs(sol.cost_rotation - np.pi / np.sqrt(2)) <= 1e-4
    # rank-one throughout: the eigenvalue never fades, the frame turns
    for rho in sample_path(sol, rho0, np.linspace(0, 1, 101)):
        w = np.linalg.eigvalsh(rho)
        assert w.min() >= -1e-9 and abs(w.min()) <= 1e-9
        assert np.isclose(w.max(), 1.0, atol=1e-9)
    mid = eval_path(sol, rho0, 0.5)
    assert np.allclose(mid, [[0.5, 0.5], [0.5, 0.5]], atol=1e-9)


def test_regime_crossover_location():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    lo, hi = 1.0, 2.5
    while hi - lo > 2e-4:
        eps = 0.5 * (lo + hi)
        sol = solve_geodesic(rho0, rho1, eps)
        if sol.cost_scaling > 0.5:
            lo = eps
        else:
            hi = eps
    assert abs(0.5 * (lo + hi) - np.pi / 2) <= 1e-3


def test_axis_swap_3x3_reported_solution_is_feasible():
    # reported constant controls: rotation by pi about (1,1,0)/sqrt(2)
    # (generator entries +-pi/sqrt(2) ~ 2.2214) with drift diag(1,1,-2)
    a = np.pi / np.sqrt(2)
    X = np.array([[0, 0, a], [0, 0, -a], [-a, a, 0]], dtype=complex)
    Z = np.diag([1.0, 1.0, -2.0]).astype(complex)
    rho0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    rho1 = np.diag([3.0, 2.0, 1.0]).astype(complex)
    U = expm_skew(X)
    assert frob_norm(U @ (rho0 + Z) @ U.conj().T - rho1) <= 1e-6
    assert frob_norm(commutator(rho0, Z)) <= 1e-8
    assert abs(np.trace(Z)) <= 1e-8


def test_axis_swap_3x3_solver_beats_reported_solution():
    # the reported controls are feasible but not optimal: a quarter turn in
    # the (1,3) plane exchanges the outer eigenvectors with no drift at all,
    # at rotation cost pi/sqrt(2) (vs pi*sqrt(2) for the half turn)
    rho0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    rho1 = np.diag([3.0, 2.0, 1.0]).astype(complex)
    for eps in (10.0, 100.0):
        sol = solve_geodesic(rho0, rho1, eps)
        assert sol.cost_scaling <= 1e-6
        assert abs(sol.cost_rotation - np.pi / np.sqrt(2)) <= 1e-3
        assert sol.permutation == (0, 1, 2)
        assert endpoint_residual(sol, rho0, rho1) <= 1e-6
    oracle = brute_force_cost(rho0.real, rho1.real, 100.0, coarse=24)
    assert abs(solve_geodesic(rho0, rho1, 100.0).cost_total - oracle) <= 1e-3


def test_axis_swap_3x3_small_epsilon_prefers_scaling():
    rho0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    rho1 = np.diag([3.0, 2.0, 1.0]).astype(complex)
    sol = solve_geodesic(rho0, rho1, 0.01)
    assert sol.cost_rotation <= 1e-6
    assert np.isclose(sol.cost_scaling, np.sqrt(8.0), atol=1e-9)
    assert sol.permutation == (2, 1, 0)


def test_optimality_matches_brute_force():
    rng = np.random.default_rng(40)
    for n, cases, coarse in ((2, 3, 90), (3, 2, 24)):
        for _ in range(cases):
            B = rng.normal(size=(n, n))
            rho0 = B @ B.T / n
            C = rng.normal(size=(n, n))
            rho1 = C @ C.T / n
            rho1 *= np.trace(rho0).real / np.trace(rho1).real
            for eps in (0.3, 3.0):
                sol = solve_geodesic(rho0.astype(complex), rho1.astype(complex), eps)
                oracle = brute_force_cost(rho0, rho1, eps, coarse=coarse)
                assert sol.cost_total <= oracle + 1e-3
                assert sol.cost_total >= oracle - 1e-3


def test_feasibility_random_complex():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        rho0 = random_psd(rng, n)
        Q = random_unitary(rng, n)
        rho1 = Q @ random_psd(rng, n) @ Q.conj().T
        rho1 = (rho1 + rho1.conj().T) / 2
        rho1 *= np.trace(rho0).real / np.trace(rho1).real
        sol = solve_geodesic(rho0, rho1, 1.0)
        assert endpoint_residual(sol, rho0, rho1) <= 1e-6
        assert frob_norm(commutator(rho0, sol.Z)) <= 1e-8
        assert abs(np.trace(sol.Z)) <= 1e-8
        for t in np.arange(0.0, 1.0001, 0.01):
            rho = eval_path(sol, rho0, float(t))
            assert np.linalg.eigvalsh(rho).min() >= -1e-9
            assert np.isclose(np.trace(rho).real, np.trace(rho0).real, atol=1e-9)


def test_feasibility_degenerate_target():
    rng = np.random.default_rng(42)
    Q = random_unitary(rng, 4)
    rho0 = random_psd(rng, 4)
    rho1 = Q @ np.diag([0.25, 0.25, 0.25, np.trace(rho0).real - 0.75]) @ Q.conj().T
    rho1 = (rho1 + rho1.conj().T) / 2
    sol = solve_geodesic(rho0, rho1, 1.0)
    assert endpoint_residual(sol, rho0, rho1) <= 1e-6
    assert frob_norm(commutator(rho0, sol.Z)) <= 1e-8


def test_identical_endpoints_zero_cost():
    rng = np.random.default_rng(43)
    rho = random_psd(rng, 3)
    for eps in (0.0, 1.0):
        sol = solve_geodesic(rho, rho, eps)
        assert sol.cost_total <= 1e-7
        assert frob_norm(sol.Z) <= 1e-9
        assert sol.permutation == (0, 1, 2)


def test_feasibility_isospectral_n8():
    rng = np.random.default_rng(44)
    rho0 = random_psd(rng, 8)
    Q = random_unitary(rng, 8)
    rho1 = Q @ rho0 @ Q.conj().T
    rho1 = (rho1 + rho1.conj().T) / 2
    sol = solve_geodesic(rho0, rho1, 1.0)
    assert endpoint_residual(sol, rho0, rho1) <= 1e-6


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, -0.5])
def test_bad_epsilon_rejected(eps):
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="epsilon"):
        solve_geodesic(rho0, rho1, eps)


def test_rerun_is_bitwise_identical_n3():
    rng = np.random.default_rng(47)
    rho0 = random_psd(rng, 3)
    rho1 = random_psd(rng, 3)
    rho1 *= np.trace(rho0).real / np.trace(rho1).real
    a = solve_geodesic(rho0, rho1, 0.5)
    b = solve_geodesic(rho0.copy(), rho1.copy(), 0.5)
    for field in ("X", "Z", "permutation", "cost_rotation", "cost_scaling", "cost_total"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_trace_mismatch_is_infeasible():
    with pytest.raises(InfeasibleError):
        solve_geodesic(np.eye(2, dtype=complex), 2 * np.eye(2, dtype=complex), 1.0)


def test_rejects_non_hermitian():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        solve_geodesic(bad, np.eye(2, dtype=complex), 1.0)


def test_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_geodesic(np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3, 1.0)


def test_minimal_rotation_aligned_frames():
    rng = np.random.default_rng(45)
    U = random_unitary(rng, 4)
    X = minimal_rotation(U, U, np.array([1.0, 2.0, 3.0, 4.0]))
    assert frob_norm(X) <= 1e-7


def test_minimal_rotation_swap_prefers_rotation():
    U0p = np.eye(2, dtype=complex)
    U1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    X = minimal_rotation(U0p, U1, np.array([0.0, 1.0]))
    # the reflection alignment costs pi; the rotation costs pi/sqrt(2)
    assert np.isclose(frob_norm(X), np.pi / np.sqrt(2), atol=1e-6)
    Q = expm_skew(X)
    assert np.allclose(np.abs(Q), [[0, 1], [1, 0]], atol=1e-6)


def test_minimal_rotation_quarter_turn_beats_half_turn():
    # frames of diag(2,3,1) and diag(3,2,1): axes 1 and 2 must exchange; a
    # quarter turn about axis 3 does it with half the cost of the pi
    # rotation about the diagonal axis
    lam, U0p = np.linalg.eigh(np.diag([2.0, 3.0, 1.0]))
    mu, U1 = np.linalg.eigh(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(lam, mu)
    X = minimal_rotation(U0p.astype(complex), U1.astype(complex), lam)
    assert np.isclose(frob_norm(X), np.pi / np.sqrt(2), atol=1e-6)


def test_eval_path_endpoints_and_extrapolation():
    rng = np.random.default_rng(46)
    rho0 = random_psd(rng, 3)
    Q = random_unitary(rng, 3)
    rho1 = Q @ rho0 @ Q.conj().T
    rho1 = (rho1 + rho1.conj().T) / 2
    sol = solve_geodesic(rho0, rho1, 1.0)
    assert np.allclose(eval_path(sol, rho0, 0.0), rho0, atol=1e-12)
    assert frob_norm(eval_path(sol, rho0, 1.0) - rho1) <= 1e-6
    with pytest.warns(UserWarning):
        eval_path(sol, rho0, 1.5)
    ts = np.linspace(0, 1, 7)
    batch = sample_path(sol, rho0, ts)
    for i, t in enumerate(ts):
        assert np.allclose(batch[i], eval_path(sol, rho0, float(t)), atol=1e-12)


def test_path_cost_values():
    eps = 0.7
    c = path_cost(np.zeros((2, 2)), np.diag([-1.0, 1.0]), eps)
    assert isinstance(c, CostBreakdown)
    assert np.isclose(c.total, eps * np.sqrt(2))
    X = np.array([[0.0, -np.pi / 2], [np.pi / 2, 0.0]])
    c = path_cost(X, np.zeros((2, 2)), eps)
    assert np.isclose(c.total, np.pi / np.sqrt(2))
    # the two 2x2 candidates tie exactly at epsilon = pi/2
    assert np.isclose((np.pi / 2) * np.sqrt(2), np.pi / np.sqrt(2), atol=1e-12)


# --- best-first matching against exhaustive enumeration ----------------------


def unit_trace_pair(rng, n, kind):
    """Unit-trace endpoints: complex or real Wishart, or a Wishart rho0 with
    a rho1 whose spectrum repeats one value 2 ("block") or 3 ("triple") times."""
    if kind == "real":
        B, C = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        rho0, rho1 = B @ B.T, C @ C.T
    else:
        rho0, rho1 = random_psd(rng, n), random_psd(rng, n)
    if kind in ("block", "triple"):
        w = rng.uniform(0.2, 1.0, size=n)
        w[: 2 if kind == "block" else 3] = w[0]
        Q = random_unitary(rng, n)
        rho1 = Q @ np.diag(w) @ Q.conj().T
        rho1 = (rho1 + rho1.conj().T) / 2
    return (rho0 / np.trace(rho0).real).astype(complex), (rho1 / np.trace(rho1).real).astype(complex)


# (kind, n, seed); every matching of each pair runs a gauge search, so n = 5
# appears once
EXHAUSTIVE_CASES = [("complex", n, 60 + n) for n in (2, 3, 4, 5)] + [
    ("real", 2, 70), ("real", 3, 71), ("real", 4, 72),
    ("block", 3, 80), ("block", 4, 81), ("triple", 4, 90),
]


@pytest.fixture(scope="module", params=EXHAUSTIVE_CASES, ids=lambda c: f"{c[0]}-n{c[1]}")
def exhaustive(request):
    """A pair and, per matching in enumeration order, (perm, gauge cost, ||z||)."""
    kind, n, seed = request.param
    rho0, rho1 = unit_trace_pair(np.random.default_rng(seed), n, kind)
    lam, U0 = eig_hermitian(rho0)
    mu, U1 = eig_hermitian(rho1)
    rows = []
    for perm in itertools.permutations(range(n)):
        gcost = frob_norm(minimal_rotation(U0[:, np.argsort(perm)], U1, mu))
        rows.append((perm, gcost, float(np.linalg.norm(mu[list(perm)] - lam))))
    return rho0, rho1, rows


def enumeration_fold(rows, eps):
    """The documented tie rule over every matching: a strict improvement by
    more than 1e-12 wins; at equal cost the smaller ||z|| wins."""
    best = None
    for perm, gcost, znorm in rows:
        total = gcost + eps * znorm
        if best is None or total < best[0] - 1e-12 or (
            abs(total - best[0]) <= 1e-12 and znorm < best[1] - 1e-12
        ):
            best = (total, znorm, perm)
    return best


@pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
def test_best_first_matches_exhaustive_enumeration(exhaustive, eps):
    rho0, rho1, rows = exhaustive
    total, _, perm = enumeration_fold(rows, eps)
    sol = solve_geodesic(rho0, rho1, eps)
    assert sol.permutation == perm
    assert abs(sol.cost_total - total) <= 1e-12


def representative(perm, mu):
    """The matching of perm's class that _matchings draws: inside each
    degenerate group of mu, the members go to their positions in ascending
    order, which makes it the lexicographically first of the class."""
    rep = list(perm)
    for g in group_slices(degeneracy_groups(mu)):
        members = set(g.tolist())
        for i, j in zip([i for i, j in enumerate(perm) if j in members], g):
            rep[i] = int(j)
    return tuple(rep)


def test_chordal_bound_never_exceeds_gauge_cost(exhaustive):
    # the bound searched on is the Jensen-arcsin one, at least the chordal;
    # a matching shares its bound with the representative of its class
    rho0, rho1, rows = exhaustive
    lam, U0 = eig_hermitian(rho0)
    mu, U1 = eig_hermitian(rho1)
    bounds = {perm: b for b, perm in geo._matchings(lam, mu, U0, U1, 0.0)}
    for perm, gcost, _ in rows:
        assert bounds[representative(perm, mu)] <= gcost + geo._BOUND_SLACK, perm


def full_array_bounds(lam, mu, U0, U1, eps):
    """Reference: the bound of every matching at once, over the n! array of
    matchings in enumeration order."""
    n = len(lam)
    perms = np.array(list(itertools.permutations(range(n))))
    A = U1.conj().T @ U0
    inv = np.argsort(perms, axis=1)
    S = np.zeros(len(perms))
    for g in group_slices(degeneracy_groups(mu)):
        S += np.linalg.svd(A[g[None, :, None], inv[:, None, g]], compute_uv=False).sum(axis=-1)
    D = np.maximum(2 * n - 2 * S, 0.0)
    rot = 2 * np.sqrt(n) * np.arcsin(np.sqrt(D / n) / 2)
    return rot + eps * np.linalg.norm(mu[perms] - lam, axis=1)


DRAIN_CASES = [("complex", n, 110 + n) for n in (2, 3, 4, 5, 6)] + [
    ("block", 3, 120), ("block", 6, 121), ("triple", 4, 122), ("triple", 6, 123),
]


@pytest.mark.parametrize("eps", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("kind, n, seed", DRAIN_CASES)
def test_matchings_drain_every_permutation_once_in_bound_order(kind, n, seed, eps):
    # every permutation is drained once through the representative of its
    # class; with a simple mu spectrum each class is a single permutation
    rho0, rho1 = unit_trace_pair(np.random.default_rng(seed), n, kind)
    lam, U0 = eig_hermitian(rho0)
    mu, U1 = eig_hermitian(rho1)
    drained = list(geo._matchings(lam, mu, U0, U1, eps))
    perms = list(itertools.permutations(range(n)))
    assert sorted(p for _, p in drained) == sorted({representative(p, mu) for p in perms})
    bounds = np.array([b for b, _ in drained])
    assert np.diff(bounds).min() >= -1e-13  # ascending up to rounding
    want = dict(zip(perms, full_array_bounds(lam, mu, U0, U1, eps)))
    got = {p: b for b, p in drained}
    assert max(abs(b - want[p]) for p, b in got.items()) <= 1e-12
    assert max(abs(want[p] - got[representative(p, mu)]) for p in perms) <= 1e-12


def test_n8_matching_is_the_full_enumeration_optimum():
    # a 2-swap local search from an assignment seed stopped at 3.02955 here;
    # enumerating all 8! matchings finds this permutation and cost
    rho0, rho1 = unit_trace_pair(np.random.default_rng(1), 8, "complex")
    sol = solve_geodesic(rho0, rho1, 0.3)
    assert sol.permutation == (6, 1, 3, 0, 5, 7, 4, 2)
    assert abs(sol.cost_total - 2.9132259165888557) <= 1e-9
    assert endpoint_residual(sol, rho0, rho1) <= 1e-6


def test_feasibility_n10():
    # a seed whose frames need few gauge searches (37); others need hundreds
    rho0, rho1 = unit_trace_pair(np.random.default_rng(5), 10, "complex")
    sol = solve_geodesic(rho0, rho1, 1.0)
    assert endpoint_residual(sol, rho0, rho1) <= 1e-6
    assert frob_norm(commutator(rho0, sol.Z)) <= 1e-8
    assert abs(np.trace(sol.Z)) <= 1e-8


def test_bound_prunes_most_matchings_at_n6(monkeypatch):
    rng = np.random.default_rng(1)
    rho0, rho1 = unit_trace_pair(rng, 6, "complex")
    calls = []
    search = geo.minimal_rotation

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(geo, "minimal_rotation", counting)
    solve_geodesic(rho0, rho1, 1.0)
    assert 1 <= len(calls) <= 72  # of 720 matchings


def test_a_degenerate_group_costs_one_gauge_search(monkeypatch):
    # the 3! matchings that permute a triple of rho1's spectrum are one
    # class, searched once
    rho0, rho1 = unit_trace_pair(np.random.default_rng(90), 4, "triple")
    calls = []
    search = geo.minimal_rotation

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(geo, "minimal_rotation", counting)
    solve_geodesic(rho0, rho1, 1.0)
    assert len(calls) == 1


@pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("n, kind", [(2, "complex"), (3, "complex"), (3, "real"), (4, "complex")])
def test_eigenvalues_move_linearly_without_push_pop(n, kind, eps):
    rho0, rho1 = unit_trace_pair(np.random.default_rng(100 + n), n, kind)
    sol = solve_geodesic(rho0, rho1, eps)
    lam = np.linalg.eigh(rho0)[0]
    mu = np.linalg.eigvalsh(rho1)
    z = mu[list(sol.permutation)] - lam
    ts = np.linspace(0.0, 1.0, 21)
    got = np.linalg.eigvalsh(sample_path(sol, rho0, ts))
    want = np.sort(lam[None, :] + ts[:, None] * z[None, :], axis=1)
    assert np.abs(got - want).max() <= 1e-10


@pytest.mark.parametrize("kind", ["complex", "real", "block", "block-rho0"])
@pytest.mark.parametrize("n", [2, 4])
def test_solution_carries_the_rho0_eigen_coordinates(n, kind):
    # the frame, spectrum and rates Z is built in, which the path solver
    # starts from; "block-rho0" swaps a "block" pair, so rho0 is degenerate
    rho0, rho1 = unit_trace_pair(np.random.default_rng(30 + n), n, kind.removesuffix("-rho0"))
    if kind == "block-rho0":
        rho0, rho1 = rho1, rho0
    sol = solve_geodesic(rho0, rho1, 1.0)
    U, lam, z = sol.frame, sol.spectrum, sol.rates
    assert np.abs(U.conj().T @ U - np.eye(n)).max() <= 1e-12
    assert np.all(np.diff(lam) >= 0.0)
    assert np.abs((U * lam) @ U.conj().T - rho0).max() <= 1e-12
    assert np.abs((U * z) @ U.conj().T - sol.Z).max() <= 1e-15
    mu = np.linalg.eigvalsh(rho1)
    assert np.abs(z - (mu[list(sol.permutation)] - lam)).max() <= 1e-12


# --- input contract ------------------------------------------------------------


@pytest.mark.parametrize("which", [0, 1])
def test_non_psd_endpoint_rejected(which):
    pair = [np.diag([0.5, 0.5]).astype(complex), np.diag([1.5, -0.5]).astype(complex)]
    with pytest.raises(ValueError, match="not PSD"):
        solve_geodesic(pair[which], pair[1 - which], 1.0)


def test_psd_check_is_relative_to_the_endpoint_scale():
    # a rounding-level negative eigenvalue on a rank-deficient endpoint is kept
    rho0 = np.diag([1.0 + 1e-12, -1e-12]).astype(complex)
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    sol = solve_geodesic(rho0, rho1, 10.0)
    assert abs(sol.cost_rotation - np.pi / np.sqrt(2)) <= 1e-6
    # on a large endpoint the same threshold scales with ||rho||_F
    big = 1e4 * np.diag([1.0, 1e-12]).astype(complex)
    solve_geodesic(big - 1e-7 * np.diag([0.0, 1.0]), big[::-1, ::-1].copy(), 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_times_rejected(t):
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    sol = solve_geodesic(rho0, np.diag([0.0, 1.0]).astype(complex), 1.0)
    with pytest.raises(ValueError, match="finite"):
        sample_path(sol, rho0, [0.0, t, 1.0])
    with pytest.raises(ValueError, match="finite"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # inf is also outside [0, 1]
            eval_path(sol, rho0, t)


# --- the Rodrigues pencil of the gauge search --------------------------------

PENCIL_STEPS = [0.0, 1e-9, 0.3, np.pi / 2, np.pi, -np.pi, 2 * np.pi + 0.3]
# phases only; a 2x2 block after a simple value; one triple
GENERATOR_LABELS = [(0, 1, 2), (0, 1, 1), (0, 0, 0)]


def test_generators_are_the_gauge_coordinates():
    gens = skew_basis(3, (0, 1, 1))
    assert len(gens) == 3 + 2  # three phases, one real and one imaginary rotation
    assert len(skew_basis(3, (0, 0, 0))) == 3 + 2 * 3
    D = np.diag([0.1, 0.6, 0.6])  # a spectrum with these labels
    for S in gens:
        assert np.array_equal(S, -S.conj().T)
        assert np.array_equal(S @ D, D @ S)


@pytest.mark.parametrize("labels", GENERATOR_LABELS, ids=str)
def test_rodrigues_pencil_is_the_exponential(labels):
    for S in skew_basis(len(labels), labels):
        assert np.abs(S @ S @ S + S).max() <= 1e-15
        steps = np.stack([np.eye(len(labels)), S, S @ S])
        for a in PENCIL_STEPS:
            got = geo._pencil(steps, a)
            assert np.abs(got - scipy.linalg.expm(a * S)).max() <= 1e-13, a
        grid = geo._pencil(steps, np.array(PENCIL_STEPS))
        assert np.array_equal(grid, [geo._pencil(steps, a) for a in PENCIL_STEPS])


@pytest.mark.parametrize("labels", GENERATOR_LABELS, ids=str)
def test_line_function_is_the_log_norm_along_the_subgroup(labels):
    rng = np.random.default_rng(49)
    U0p, U1, Theta = (random_unitary(rng, 3) for _ in range(3))
    for S in skew_basis(len(labels), labels):
        steps = np.stack([Theta, Theta @ S, Theta @ S @ S])
        P = hermitian_part(U1 @ steps @ U0p.conj().T)
        for a in PENCIL_STEPS:
            want = geo._log_norm(U1 @ Theta @ scipy.linalg.expm(a * S) @ U0p.conj().T)
            assert abs(geo._phase_norm(geo._pencil(P, a)) - want) <= 1e-12, a


def test_gauge_search_line_search_scores_the_subgroup(monkeypatch):
    # the first line search runs from the polar start along the first phase;
    # that start leaves an eigenphase at 0, which a = +-pi turns into one at
    # pi, where the arccos score is accurate only to ~sqrt(eps)
    steps = [a for a in PENCIL_STEPS if abs(abs(a) - np.pi) > 0.1]
    rng = np.random.default_rng(50)
    U0p, U1 = random_unitary(rng, 3), random_unitary(rng, 3)
    spectrum = np.array([0.2, 0.2, 0.6])
    seen = []  # the line function of each call, at a and at a + 2 pi

    def recording(func, **kwargs):
        seen.append([(func(a), func(a + 2 * np.pi)) for a in steps])
        return golden(func, **kwargs)

    monkeypatch.setattr(geo, "golden", recording)
    minimal_rotation(U0p, U1, spectrum)
    Theta = polar_gauge(U1.conj().T @ U0p, degeneracy_groups(spectrum))
    S = skew_basis(3, (0, 0, 1))[0]
    for a, (got, shifted) in zip(steps, seen[0]):
        want = geo._log_norm(U1 @ Theta @ scipy.linalg.expm(a * S) @ U0p.conj().T)
        assert abs(got - want) <= 1e-12, a
        assert abs(shifted - want) <= 1e-12, a


STATIONARY_CASES = [(k, n) for k in ("complex", "real", "block", "triple") for n in (3, 4, 5)
                    if k != "triple" or n >= 4]


@pytest.mark.parametrize("seed", range(201, 206))
@pytest.mark.parametrize("kind, n", STATIONARY_CASES)
def test_gauge_search_ends_at_a_stationary_point(kind, n, seed):
    # d/ds 1/2 ||log(U1 Theta e^{sS} U0*)||_F^2 at s = 0 is Re<U0* log(Q) U0, S>
    # for Q = U1 Theta U0*; the log is taken from numpy's eig, not the package
    rho0, rho1 = unit_trace_pair(np.random.default_rng(seed), n, kind)
    _, U0 = eig_hermitian(rho0)
    mu, U1 = eig_hermitian(rho1)
    X = minimal_rotation(U0, U1, mu)
    Q = scipy.linalg.expm(X)
    w, V = np.linalg.eig(Q)
    L = (V * (1j * np.angle(w))) @ np.linalg.inv(V)
    labels = degeneracy_groups(mu)
    grad = [np.vdot(S, U0.conj().T @ L @ U0).real for S in skew_basis(n, labels)]
    # 3.9e-11 at most over these cases
    assert np.abs(grad).max() <= 1e-9
    # the loop stops on the gauge part of the log it returns
    assert frob_norm((labels[:, None] == labels) * (U0.conj().T @ X @ U0)) < geo._GAUGE_TOL
    # and e^X maps the frame onto U1 up to gauge: e^X U0 = U1 Theta with
    # Theta commuting with diag(mu)
    Theta = U1.conj().T @ Q @ U0
    assert frob_norm(commutator(Theta, np.diag(mu))) <= 1e-10


@pytest.mark.parametrize("kind, n, seed", [("complex", 4, 1), ("real", 4, 2), ("block", 4, 3),
                                           ("triple", 5, 4)])
def test_solution_rotation_is_the_minimal_rotation_of_its_matching(kind, n, seed):
    rho0, rho1 = unit_trace_pair(np.random.default_rng(seed), n, kind)
    sol = solve_geodesic(rho0, rho1, 1.0)
    mu, U1 = eig_hermitian(rho1)
    X = minimal_rotation(sol.frame[:, np.argsort(sol.permutation)], U1, mu)
    assert np.array_equal(sol.X, X)


@pytest.mark.parametrize("n, seed, perm", [(4, 204, (0, 2, 1, 3)), (3, 205, (0, 2, 1)),
                                           (3, 206, (2, 1, 0))],
                         ids=["n4-s204", "n3-s205", "n3-s206"])
def test_gauge_search_cost_is_invariant_under_unitary_conjugation(n, seed, perm):
    # per matching: a real pair and the same pair in a complex frame reach
    # the same gauge cost, so the start does not depend on the frame
    rho0, rho1 = unit_trace_pair(np.random.default_rng(seed), n, "real")
    V = random_unitary(np.random.default_rng(seed + 1000), n)
    P = np.eye(n)[list(perm)]  # P[i, perm[i]] = 1, as in solve_geodesic
    costs = []
    for a, b in ((rho0, rho1), (V @ rho0 @ V.conj().T, V @ rho1 @ V.conj().T)):
        _, U0 = eig_hermitian(a)
        mu, U1 = eig_hermitian(b)
        costs.append(frob_norm(minimal_rotation(U0 @ P, U1, mu)))
    assert abs(costs[0] - costs[1]) <= 1e-12


def test_degenerate_block_start_is_covariant():
    # rho1 repeats one eigenvalue; the start flips singular pairs of the
    # block, which move with its basis, so a Haar-conjugated frame reaches
    # the real frame's cost.  A start that flips the block's columns depends
    # on that basis: with it the two frames end 0.028 apart
    rng = np.random.default_rng(502)
    B = rng.normal(size=(4, 4))
    w = rng.uniform(0.2, 1.0, 4)
    w[:2] = w[0]
    Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    rho0, rho1 = (B @ B.T).astype(complex), (Q @ np.diag(w) @ Q.T).astype(complex)
    rho0, rho1 = rho0 / np.trace(rho0).real, rho1 / np.trace(rho1).real
    V = random_unitary(np.random.default_rng(1502), 4)
    real = solve_geodesic(rho0, rho1, 10.0).cost_total
    conj = solve_geodesic(V @ rho0 @ V.conj().T, V @ rho1 @ V.conj().T, 10.0).cost_total
    assert abs(real - conj) <= 1e-9
    assert max(real, conj) <= 8.899557032548 + 1e-9


def test_gauge_search_sweeps_once(monkeypatch):
    # a simple spectrum at n = 3 has three column phases: one line search each
    rho0, rho1 = unit_trace_pair(np.random.default_rng(205), 3, "real")
    _, U0 = eig_hermitian(rho0)
    mu, U1 = eig_hermitian(rho1)
    calls = []

    def counting(func, **kwargs):
        calls.append(func)
        return golden(func, **kwargs)

    monkeypatch.setattr(geo, "golden", counting)
    minimal_rotation(U0, U1, mu)
    assert len(calls) == 3


@pytest.mark.parametrize("labels", [(0, 1, 2), (0, 0, 1), (0, 0, 0), (0, 1, 1, 2)], ids=str)
def test_gauge_jacobian_matches_central_differences(labels):
    # Jac[b, a] is the derivative of the gauge gradient's b-th coordinate
    # along e^{v S_a}, here through the package's log at Q e^{+-h S_a}
    rng = np.random.default_rng(51)
    gens = skew_basis(len(labels), labels)
    Q = random_unitary(rng, len(labels))
    phases, W = eig_unitary(Q)
    jac = geo._gauge_jacobian(phases, W, gens)
    h = 1e-6

    def grad(a):
        return along(logm_unitary(Q @ scipy.linalg.expm(a)), gens)

    fd = np.stack([(grad(h * S) - grad(-h * S)) / (2 * h) for S in gens], axis=1)
    assert np.abs(jac - fd).max() <= 1e-6 * max(1.0, np.abs(jac).max())


# (seed, matching, the fixed-point iteration's gauge cost): complex pairs on
# which Newton's step alone ends at a stationary point 0.06-0.33 higher.
# Without the curvature check 408 and 416 still do, without the halving of
# uphill steps 416 and 414
FIXED_POINT_COSTS = [(408, (2, 0, 1), 2.439531417987566), (421, (2, 0, 1), 2.3798030467631412),
                     (401, (3, 1, 2, 0), 2.6215322008910698),
                     (416, (1, 2, 3, 0), 2.6083375638707875), (414, (3, 2, 0, 1), 2.806766020865105)]


@pytest.mark.parametrize("seed, perm, want", FIXED_POINT_COSTS, ids=lambda c: str(c))
def test_gauge_search_keeps_the_fixed_point_minimum(seed, perm, want):
    n = len(perm)
    rho0, rho1 = unit_trace_pair(np.random.default_rng(seed), n, "complex")
    _, U0 = eig_hermitian(rho0)
    mu, U1 = eig_hermitian(rho1)
    X = minimal_rotation(U0 @ np.eye(n)[list(perm)], U1, mu)
    assert abs(frob_norm(X) - want) <= 1e-12


def test_newton_guard_keeps_the_matching():
    # unguarded, Newton's step leaves the identity matching's basin here and
    # the solve picks (1, 0, 2, 3) at 4.638281
    sol = solve_geodesic(*unit_trace_pair(np.random.default_rng(301), 4, "complex"), 10.0)
    assert sol.permutation == (0, 1, 2, 3)
    assert abs(sol.cost_total - 4.63777571244872) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gauge_search_converges_in_few_steps(monkeypatch, n):
    # Newton's step converges quadratically; the fixed-point step Theta e^{-C}
    # alone takes a median of 10 steps on such pairs.  A step is one
    # eig_unitary of a trial gauge after the start's
    steps = []
    search, eig = geo.minimal_rotation, geo.eig_unitary

    def counting_search(*args):
        steps.append(-1)
        return search(*args)

    def counting_eig(Q):
        steps[-1] += 1
        return eig(Q)

    monkeypatch.setattr(geo, "minimal_rotation", counting_search)
    monkeypatch.setattr(geo, "eig_unitary", counting_eig)
    for seed in range(1, 6):
        solve_geodesic(*unit_trace_pair(np.random.default_rng(seed), n, "complex"), 0.1)
    assert max(steps) <= 6, steps


# --- metamorphic oracles on the optimal cost C(epsilon) ------------------------

ORACLE_EPS = np.array([0.0, 0.1, 0.3, 1.0, 3.0, 10.0])
# (kind, n, seed): two seeded pairs per kind and size, and a real n = 6 pair
ORACLE_CASES = [(k, n, s) for k in ("complex", "real") for n in (2, 3, 4) for s in (1, 2)]
ORACLE_CASES += [("real", 6, 1)]


@pytest.fixture(scope="module", params=ORACLE_CASES, ids=lambda c: f"{c[0]}-n{c[1]}-s{c[2]}")
def oracle_costs(request):
    """C on ORACLE_EPS for the pair, for the pair conjugated by a Haar unitary
    V, and for the swapped pair."""
    kind, n, seed = request.param
    rng = np.random.default_rng(10 * seed + n + (0 if kind == "complex" else 5))
    rho0, rho1 = unit_trace_pair(rng, n, kind)
    V = random_unitary(rng, n)

    def costs(a, b):
        return np.array([solve_geodesic(a, b, eps).cost_total for eps in ORACLE_EPS])

    conj = [V @ rho @ V.conj().T for rho in (rho0, rho1)]
    return costs(rho0, rho1), costs(*conj), costs(rho1, rho0)


def test_cost_is_nondecreasing_in_epsilon(oracle_costs):
    C, _, _ = oracle_costs
    assert np.diff(C).min() >= -1e-12


def test_cost_is_concave_in_epsilon(oracle_costs):
    # C is a minimum over matchings of affine functions of epsilon
    C, _, _ = oracle_costs
    slopes = np.diff(C) / np.diff(ORACLE_EPS)
    assert (np.diff(slopes) / (ORACLE_EPS[2:] - ORACLE_EPS[:-2])).max() <= 1e-12


def test_cost_is_invariant_under_unitary_conjugation(oracle_costs):
    C, C_conj, _ = oracle_costs
    assert np.abs(C_conj - C).max() <= 1e-12


def test_cost_is_invariant_under_swapping_the_endpoints(oracle_costs):
    C, _, C_swap = oracle_costs
    assert np.abs(C_swap - C).max() <= 1e-12
