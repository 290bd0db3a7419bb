"""Tests for the discretized path solver and its exponential-Euler step."""

import sys

import numpy as np
import pytest

from conftest import random_hermitian, random_psd, random_skew, random_unitary
from test_geodesic import unit_trace_pair

from denflow.geodesic import InfeasibleError, eval_path, path_cost, sample_path, solve_geodesic
from denflow.linalg import expm_skew, frob_norm
from denflow.transcription import (
    DiscretePath,
    _Engine,
    _smooth,
    discrete_cost,
    solve_discrete_path,
    step,
)


def build_constant_path(rho0, X, Z, N, conjugate=True):
    """Compose N equal steps with constant X and (optionally conjugated) drift."""
    n = rho0.shape[0]
    dt = 1.0 / N
    states = np.empty((N + 1, n, n), dtype=complex)
    us = np.empty((N, n, n), dtype=complex)
    Xs = np.broadcast_to(X, (N, n, n)).copy()
    states[0] = rho0
    for k in range(N):
        t = k * dt
        if conjugate:
            U = expm_skew(X * t)
            u_raw = U @ Z @ U.conj().T
        else:
            u_raw = Z
        states[k + 1], us[k] = step(states[k], Xs[k], u_raw, dt)
    return states, Xs, us


def as_path(rho0, rho1, X, Z, N, conjugate=True):
    states, Xs, us = build_constant_path(rho0, X, Z, N, conjugate=conjugate)
    return DiscretePath(
        N=N, dt=1.0 / N, states=states, Xs=Xs, us=us, cost=0.0,
        endpoint_residual=float(frob_norm(states[N] - rho1)),
        converged=True, rounds=1, objective_trace=((0.0,),),
    )


def assert_path_invariants(path, rho0):
    """[rho_k, u_k] = 0, trace kept, states rebuilt by ``step``, PSD."""
    tr = np.trace(rho0).real
    for k in range(path.N):
        rho, u = path.states[k], path.us[k]
        assert frob_norm(rho @ u - u @ rho) <= 1e-8
        assert abs(np.trace(u)) <= 1e-10
        assert abs(np.trace(path.states[k + 1]).real - tr) <= 1e-9
        # states come from the step map applied to the stored controls; step
        # re-projects u_k on the eigenvectors of rho_k, which rounding turns
        # by ~1e-16/gap where two eigenvalues it keeps apart nearly cross
        w = np.linalg.eigvalsh(rho)
        gaps = np.diff(w)
        gap = gaps[gaps > 1e-8 * np.abs(w).max()].min(initial=np.inf)
        rebuilt, _ = step(rho, path.Xs[k], path.us[k], path.dt)
        assert frob_norm(rebuilt - path.states[k + 1]) <= max(1e-12, 1e-16 / gap)
    mins = np.linalg.eigvalsh(path.states).min(axis=1)
    assert mins.min() >= -1e-8


class TestStep:
    def test_pure_rotation_preserves_spectrum(self):
        rng = np.random.default_rng(7)
        rho = random_psd(rng, 3)
        X = random_skew(rng, 3)
        rho_next, u_used = step(rho, X, np.zeros((3, 3)), 0.05)
        assert frob_norm(u_used) <= 1e-12
        before = np.sort(np.linalg.eigvalsh(rho))
        after = np.sort(np.linalg.eigvalsh(rho_next))
        assert np.max(np.abs(before - after)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_skew_generator_rejected(self, n):
        # a single 1 above the diagonal; for n >= 3 eigh reads only the lower
        # triangle of -iX, so an unchecked step returned rho unchanged
        rho = np.diag(np.linspace(0.5, 0.2, n)).astype(complex)
        X = np.zeros((n, n), dtype=complex)
        X[0, 1] = 1.0
        with pytest.raises(ValueError, match="skew-Hermitian"):
            step(rho, X, np.zeros((n, n)), 1.0)
        # within the 1e-9 that CLI documents are read with, X is accepted
        X[1, 0] = -1.0 + 5e-10
        step(rho, X, np.zeros((n, n)), 1.0)

    def test_pure_drift_moves_eigenvalues_linearly(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        u_raw = np.diag([-1.0, 1.0]).astype(complex)
        rho_next, u_used = step(rho, np.zeros((2, 2)), u_raw, 0.1)
        assert np.allclose(rho_next, np.diag([0.9, 0.1]), atol=1e-14)
        assert np.allclose(u_used, u_raw, atol=1e-14)

    def test_projection_strips_noncommuting_part(self):
        rho = np.diag([2.0, 1.0]).astype(complex)
        u_raw = np.array([[0.5, 1.0], [1.0, -0.5]], dtype=complex)
        _, u_used = step(rho, np.zeros((2, 2)), u_raw, 0.01)
        assert np.allclose(u_used, np.diag([0.5, -0.5]), atol=1e-12)
        assert abs(np.trace(u_used)) <= 1e-12

    def test_composition_matches_closed_form_path(self):
        # with the drift conjugated along the rotation, the discrete steps
        # reproduce the continuous interpolation path exactly
        rho0 = np.diag([1.0, 0.1]).astype(complex)
        rho1 = np.array([[0.4, 0.3], [0.3, 0.7]], dtype=complex)
        sol = solve_geodesic(rho0, rho1, 1.0)
        N = 1000
        states, _, _ = build_constant_path(rho0, sol.X, sol.Z, N)
        for t in (0.25, 0.5, 1.0):
            k = int(round(t * N))
            assert frob_norm(states[k] - eval_path(sol, rho0, t)) <= 1e-4

    def test_trace_preserved_by_construction(self):
        rng = np.random.default_rng(3)
        rho = random_psd(rng, 3)
        rho = rho + 0.1 * np.eye(3)
        X = random_skew(rng, 3)
        u_raw = random_hermitian(rng, 3)
        u_raw = u_raw - (np.trace(u_raw) / 3) * np.eye(3)
        tr = np.trace(rho).real
        for _ in range(20):
            rho, _ = step(rho, X, u_raw, 0.05)
        assert abs(np.trace(rho).real - tr) <= 1e-12


class TestDiscreteCost:
    def test_zero_controls_cost_zero(self):
        rho0 = np.diag([0.6, 0.4]).astype(complex)
        path = as_path(rho0, rho0, np.zeros((2, 2)), np.zeros((2, 2)), 10)
        assert discrete_cost(path, 1.0) == 0.0

    def test_constant_controls_match_continuous_cost(self):
        rho0 = np.diag([1.0, 0.1]).astype(complex)
        rho1 = np.array([[0.4, 0.3], [0.3, 0.7]], dtype=complex)
        for eps in (0.5, 2.0):
            sol = solve_geodesic(rho0, rho1, eps)
            path = as_path(rho0, rho1, sol.X, sol.Z, 50)
            expect = path_cost(sol.X, sol.Z, eps).total
            assert abs(discrete_cost(path, eps) - expect) <= 1e-9

    def test_doubling_steps_leaves_cost_unchanged(self):
        rho0 = np.diag([1.0, 0.1]).astype(complex)
        rho1 = np.diag([0.1, 1.0]).astype(complex)
        sol = solve_geodesic(rho0, rho1, 1.0)
        c1 = discrete_cost(as_path(rho0, rho1, sol.X, sol.Z, 50), 1.0)
        c2 = discrete_cost(as_path(rho0, rho1, sol.X, sol.Z, 100), 1.0)
        assert abs(c1 - c2) <= 1e-9


class TestSolver:
    def test_identical_endpoints_zero_cost(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        path = solve_discrete_path(rho, rho, 1.0, steps=10)
        assert path.converged
        assert path.cost <= 1e-8
        assert path.endpoint_residual <= 1e-10

    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_matches_constant_control_cost(self, eps):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        rho1 = np.diag([0.0, 1.0]).astype(complex)
        base = solve_geodesic(rho0, rho1, eps)
        path = solve_discrete_path(rho0, rho1, eps)
        assert path.converged
        assert path.endpoint_residual <= 1e-4
        assert path.cost <= base.cost_total + 1e-2
        # accepted objective values never increase within a round
        for trace in path.objective_trace:
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_small_epsilon_uses_pure_scaling(self):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        rho1 = np.diag([0.0, 1.0]).astype(complex)
        path = solve_discrete_path(rho0, rho1, 0.1)
        rotation_cost = float(np.linalg.norm(path.Xs, axis=(1, 2)).sum() * path.dt)
        assert rotation_cost <= 0.05

    def test_path_invariants(self):
        rho0 = np.diag([1.0, 0.1]).astype(complex)
        rho1 = np.array([[0.4, 0.3], [0.3, 0.7]], dtype=complex)
        assert_path_invariants(solve_discrete_path(rho0, rho1, 1.0, steps=20), rho0)

    @pytest.mark.parametrize("eps", [0.3, 3.0])
    @pytest.mark.parametrize("spectrum", [(0.4, 0.4, 0.2), (0.5, 0.5, 0.0)],
                             ids=["double", "double-rank-2"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_degenerate_start_converges(self, seed, spectrum, eps):
        # a repeated eigenvalue of rho0, rank-deficient in the second
        # spectrum: b turns the drift's axes inside the double eigenspace
        rng = np.random.default_rng(seed)
        Q = random_unitary(rng, 3)
        rho0 = (Q * np.array(spectrum)) @ Q.conj().T
        rho1 = random_psd(rng, 3)
        rho1 /= np.trace(rho1).real
        path = solve_discrete_path(rho0, rho1, eps)
        assert path.converged
        assert_path_invariants(path, rho0)

    def test_refinement_converges_first_order(self):
        # a genuinely state-dependent drift (constant raw control that does
        # not commute with the rotating state) so the scheme's O(dt) error
        # is visible; halving dt should shrink it with slope close to 1
        rho0 = np.diag([1.0, 0.3]).astype(complex)
        X = np.array([[0.0, -0.8], [0.8, 0.0]], dtype=complex)
        Z = np.diag([-0.2, 0.2]).astype(complex)
        ref, _, _ = build_constant_path(rho0, X, Z, 4096, conjugate=False)
        errs = []
        for N in (64, 128, 256):
            states, _, _ = build_constant_path(rho0, X, Z, N, conjugate=False)
            errs.append(frob_norm(states[N] - ref[4096]))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes >= 0.9)

    def test_non_converged_flag(self):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        rho1 = np.diag([0.0, 1.0]).astype(complex)
        path = solve_discrete_path(rho0, rho1, 10.0, tol_end=0.0, max_iters=0)
        assert not path.converged
        assert path.rounds == 12
        assert np.isfinite(path.cost)

    def test_converged_flag_matches_reported_residual(self):
        # one round, so tol_end cannot change the trajectory; at and on
        # either side of the reported residual the flag must agree with it
        rho0 = np.diag([1.0, 0.1]).astype(complex)
        rho1 = np.array([[0.4, 0.3], [0.3, 0.7]], dtype=complex)
        kw = dict(steps=10, max_rounds=1, max_iters=2)
        r = solve_discrete_path(rho0, rho1, 1.0, tol_end=0.0, **kw).endpoint_residual
        assert r > 0.0
        for tol in (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)):
            path = solve_discrete_path(rho0, rho1, 1.0, tol_end=float(tol), **kw)
            assert path.endpoint_residual == r
            assert path.converged == (path.endpoint_residual <= tol)

    def test_rerun_is_bitwise_identical_n3(self):
        rng = np.random.default_rng(48)
        rho0 = random_psd(rng, 3)
        rho1 = random_psd(rng, 3)
        rho1 *= np.trace(rho0).real / np.trace(rho1).real
        kw = dict(steps=6, max_rounds=2, max_iters=2)
        a = solve_discrete_path(rho0, rho1, 1.0, **kw)
        b = solve_discrete_path(rho0.copy(), rho1.copy(), 1.0, **kw)
        for field in ("states", "Xs", "us", "cost", "endpoint_residual", "converged",
                      "rounds", "objective_trace"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_one_eigendecomposition_per_endpoint(self, monkeypatch):
        # the geodesic decomposes rho0 and rho1 once each; the path solver
        # starts from the rho0 frame it carries instead of decomposing again
        calls = []

        def counting(A, real=sys.modules["denflow.linalg"].eig_hermitian):
            calls.append(A)
            return real(A)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "denflow" and "eig_hermitian" in vars(module):
                monkeypatch.setattr(module, "eig_hermitian", counting)
        rho0, rho1 = unit_trace_pair(np.random.default_rng(5), 3, "complex")
        solve_discrete_path(rho0, rho1, 1.0, steps=4, max_rounds=1, max_iters=1)
        assert len(calls) == 2

    @pytest.mark.parametrize("eps", [0.3, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_cost_at_least_the_geodesic_to_its_own_end(self, seed, n, eps):
        # a discrete path joining rho0 to its own rho_N exactly costs at least
        # the geodesic between them when rho0 is non-degenerate: the principal
        # log has the smallest norm among the logs of a unitary, and the
        # Frobenius distance on U(n) is bi-invariant
        rho0, rho1 = unit_trace_pair(np.random.default_rng(seed), n, "complex")
        path = solve_discrete_path(rho0, rho1, eps, steps=20)
        assert path.cost >= solve_geodesic(rho0, path.states[-1], eps).cost_total - 1e-8

    def test_non_finite_epsilon_rejected(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="epsilon"):
            solve_discrete_path(rho, rho, np.nan, steps=4)

    def test_trace_mismatch_rejected(self):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        rho1 = np.diag([1.0, 0.5]).astype(complex)
        with pytest.raises(InfeasibleError):
            solve_discrete_path(rho0, rho1, 1.0)

    def test_too_few_steps_rejected(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError):
            solve_discrete_path(rho, rho, 1.0, steps=1)

    @pytest.mark.parametrize("kw", [dict(max_rounds=0), dict(max_rounds=-1), dict(max_iters=-1),
                                    dict(tol_end=np.nan), dict(tol_end=-1.0),
                                    dict(tol_end=np.inf),
                                    dict(steps=2.7), dict(max_iters=2.5), dict(max_rounds=1.5),
                                    dict(max_iters=np.nan), dict(steps=None),
                                    dict(max_iters=True)])
    def test_bad_budget_rejected(self, kw):
        # a fractional or boolean budget is rejected, never rounded or truncated
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError, match=next(iter(kw))):
            solve_discrete_path(rho, rho, 1.0, **{"steps": 4, **kw})

    def test_whole_float_budget_accepted(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        path = solve_discrete_path(rho, rho, 1.0, steps=4.0, max_rounds=1.0, max_iters=1.0)
        assert path.N == 4 and isinstance(path.N, int)


class TestGradient:
    @pytest.mark.parametrize("n, N, spectrum", [
        pytest.param(2, 4, None, id="2-4"),
        pytest.param(3, 3, None, id="3-3"),
        pytest.param(3, 3, (0.01, 0.01, 0.98), id="3-3-repeated"),
    ])
    def test_matches_central_differences_of_the_objective(self, n, N, spectrum):
        # the batched adjoint must give the derivatives that whole-path
        # simulations perturbed one coordinate of x = (X_k, d_k, b) at a
        # time give; rho0 is nearly singular and d_k drives its lowest
        # eigenvalue down, so the path turns negative, and rho1 lies near
        # the path's end: all three objective terms show in the gradient;
        # a repeated eigenvalue of rho0 gives b two in-group rotations, set nonzero
        rng = np.random.default_rng(60)
        if spectrum is None:
            rho0 = random_psd(rng, n)
            rho0 += (0.02 - np.linalg.eigvalsh(rho0)[0]) * np.eye(n)
        else:
            Q = random_unitary(rng, n)
            rho0 = (Q * np.array(spectrum)) @ Q.conj().T
        base = solve_geodesic(rho0, rho0, 0.7)
        eng = _Engine(base, rho0, N)
        assert len(eng.SB) == (0 if spectrum is None else 2)
        x = rng.normal(scale=0.5, size=N * n * (n + 1) + len(eng.SB))
        x[N * n * n :: n][:N] -= 1.0  # d_k of the lowest eigenvalue
        D = random_hermitian(rng, n, 0.01)
        end = eng.simulate(x).states[-1]
        eng = _Engine(base, end + D - np.trace(D) / n * np.eye(n), N)
        sim = eng.simulate(x)
        assert sim.neg > 0.0 and sim.end > 0.0
        assert np.all(x[N * n * (n + 1) :] != 0.0)
        g = eng.gradient(sim)

        def phi(x):
            return eng.objective(eng.simulate(x))

        ref = np.empty_like(x)
        for i in range(len(x)):
            h = 1e-6 * max(1.0, abs(x[i]))
            plus, minus = x.copy(), x.copy()
            plus[i] += h
            minus[i] -= h
            ref[i] = (phi(plus) - phi(minus)) / (2 * h)
        assert np.abs(g - ref).max() <= 1e-7 * max(1.0, np.abs(g).max())

    @pytest.mark.parametrize("n, spectrum", [
        pytest.param(2, None, id="2"),
        pytest.param(3, None, id="3"),
        pytest.param(3, (0.3, 0.3, 0.4), id="3-repeated"),
    ])
    def test_rollout_matches_step_composition(self, n, spectrum):
        # at equal controls the engine's states and objective are those of
        # composing ``step`` with its X_k and u_k, which ``step`` leaves
        # unprojected because each u_k commutes with its state
        rng = np.random.default_rng(61)
        if spectrum is None:
            rho0 = random_psd(rng, n)
        else:
            Q = random_unitary(rng, n)
            rho0 = (Q * np.array(spectrum)) @ Q.conj().T
        rho1 = random_psd(rng, n)
        rho1 *= np.trace(rho0).real / np.trace(rho1).real
        N = 8
        eng = _Engine(solve_geodesic(rho0, rho1, 0.7), rho1, N)
        x = rng.normal(size=N * n * (n + 1) + len(eng.SB))
        x[N * n * n :: n][:N] -= 1.0  # d_k of the lowest eigenvalue, so the path turns negative
        sim = eng.simulate(x)
        assert sim.neg > 0.0
        states = [rho0]
        for k in range(N):
            rho, u = step(states[-1], sim.Xs[k], sim.us[k], 1.0 / N)
            assert frob_norm(u - sim.us[k]) <= 1e-12
            states.append(rho)
        states = np.array(states)
        assert np.abs(states - sim.states).max() <= 1e-12
        neg = (np.minimum(np.linalg.eigvalsh(states[1:]), 0.0) ** 2).sum()
        cost = (_smooth(np.linalg.norm(sim.Xs, axis=(1, 2)))
                + 0.7 * _smooth(np.linalg.norm(sim.us, axis=(1, 2)))).sum() / N
        J = cost + eng.w * (neg + frob_norm(states[N] - rho1) ** 2)
        assert abs(eng.objective(sim) - J) <= 1e-12 * max(1.0, J)

    @pytest.mark.parametrize("n, spectrum", [
        pytest.param(2, None, id="2"),
        pytest.param(3, None, id="3"),
        pytest.param(3, (0.4, 0.4, 0.2), id="3-repeated"),
    ])
    def test_initializer_reproduces_the_geodesic(self, n, spectrum):
        # round 0 (no descent) is the constant-control path sampled at t_k = k/N
        rng = np.random.default_rng(62)
        if spectrum is None:
            rho0 = random_psd(rng, n)
        else:
            Q = random_unitary(rng, n)
            rho0 = (Q * np.array(spectrum)) @ Q.conj().T
        rho1 = random_psd(rng, n)
        rho1 *= np.trace(rho0).real / np.trace(rho1).real
        N = 20
        base = solve_geodesic(rho0, rho1, 1.0)
        path = solve_discrete_path(rho0, rho1, 1.0, steps=N, max_rounds=1, max_iters=0)
        want = sample_path(base, rho0, np.arange(N + 1) / N)
        assert np.abs(path.states - want).max() <= 1e-12
        assert np.abs(path.Xs - base.X).max() <= 1e-12
