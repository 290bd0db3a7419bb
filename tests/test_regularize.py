"""Tests for the noisy-flow fitting module."""

import numpy as np
import pytest
import scipy.optimize

import denflow.regularize as reg
from conftest import random_hermitian, random_skew, random_unitary
from denflow.linalg import coords, expm_skew, frob_norm, is_unitary, skew_basis
from denflow.regularize import (
    MatrixSample,
    RegularizedModel,
    model_path,
    residual,
    solve_regularization,
    synth_noisy_path,
    _check_samples,
    _initial_guess,
    _objective,
)

RHO0 = np.diag([1.0, 0.1]).astype(complex)
XTRUE = np.array([[0.0, -1.6], [1.6, 0.0]], dtype=complex)
TIMES = np.arange(1, 21) * 0.05


def truth_model(rho0, X, z=None):
    vals, V = np.linalg.eigh(rho0)
    n = rho0.shape[0]
    return RegularizedModel(
        V=V.astype(complex), p=vals,
        z=np.zeros(n) if z is None else np.asarray(z, float),
        X=X, objective=0.0,
    )


class TestSynth:
    def test_zero_noise_gives_exact_flow(self):
        data = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.0, seed=3)
        truth = truth_model(RHO0, XTRUE)
        states = model_path(truth, TIMES)
        assert len(data) == 20
        for s, m in zip(data, states):
            assert frob_norm(s.value - m) <= 1e-12

    def test_seed_determinism(self):
        a = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.05, seed=11)
        b = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.05, seed=11)
        for sa, sb in zip(a, b):
            assert sa.t == sb.t
            assert np.array_equal(sa.value, sb.value)
        c = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.05, seed=12)
        assert any(not np.array_equal(sa.value, sc.value) for sa, sc in zip(a, c))

    def test_reference_config_trace_bookkeeping(self):
        noisy = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.05, seed=5)
        clean = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.0, seed=5)
        assert len(noisy) == 20
        for sn, sc in zip(noisy, clean):
            w = sn.value - sc.value
            assert abs(np.trace(sn.value).real - (1.1 + np.trace(w).real)) <= 1e-12
            assert frob_norm(sn.value - sn.value.conj().T) <= 1e-14
            assert np.abs(w).max() <= 0.05 * np.sqrt(2) + 1e-12

    def test_complex_noise_mode(self):
        data = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES[:4],
                                noise_amp=0.05, seed=2, complex_noise=True)
        clean = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES[:4],
                                 noise_amp=0.0, seed=2, complex_noise=True)
        saw_imag = False
        for sn, sc in zip(data, clean):
            w = sn.value - sc.value
            assert frob_norm(sn.value - sn.value.conj().T) <= 1e-14
            assert np.abs(w.real).max() <= 0.05 + 1e-12
            assert np.abs(w.imag).max() <= 0.05 + 1e-12
            saw_imag = saw_imag or np.abs(w.imag).max() > 1e-6
        assert saw_imag

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=-0.1)

    @pytest.mark.parametrize("amp", [np.nan, np.inf])
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match="noise_amp"):
            synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=amp)

    @pytest.mark.parametrize(
        "times", [[np.nan, 0.5], [0.0, np.inf], [0.0, -np.inf]], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(ValueError, match="finite"):
            synth_noisy_path(RHO0, XTRUE, np.zeros(2), times)

    @pytest.mark.parametrize(
        "z", [[np.nan, 0.0], [np.inf, -np.inf], [0.1, -0.05, -0.05], [[0.1, -0.1]]],
        ids=["nan,0", "inf,-inf", "too long", "2-d"],
    )
    def test_bad_drift_rates_rejected(self, z):
        with pytest.raises(ValueError, match="drift rates"):
            synth_noisy_path(RHO0, XTRUE, z, TIMES[:4])

    @pytest.mark.parametrize("times", [[0.0, 1.0, 0.5], [0.0, 0.0, 0.0]], ids=["unordered", "repeated"])
    def test_times_not_strictly_increasing_rejected(self, times):
        # the regularizer refuses such a dataset with the same message
        with pytest.raises(ValueError, match="strictly increasing"):
            synth_noisy_path(RHO0, XTRUE, np.zeros(2), times)
        with pytest.raises(ValueError, match="strictly increasing"):
            solve_regularization([MatrixSample(t, RHO0) for t in times])

    @pytest.mark.parametrize("t", [1.5, -0.1])
    def test_times_outside_the_unit_interval_rejected(self, t):
        # the regularizer refuses such a dataset with the same message
        times = sorted([0.0, 0.5, t])
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            synth_noisy_path(RHO0, XTRUE, np.zeros(2), times)
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            solve_regularization([MatrixSample(t, RHO0) for t in times])

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES[:4], seed=seed)

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_skew_generator_rejected(self, n):
        X = np.zeros((n, n), dtype=complex)
        X[0, 1] = 1.0  # e^X is not even unitary
        with pytest.raises(ValueError, match="skew-Hermitian"):
            synth_noisy_path(np.eye(n) / n, X, np.zeros(n), TIMES[:4])


class TestResidual:
    def test_exact_samples_zero(self):
        truth = truth_model(RHO0, XTRUE)
        data = [MatrixSample(float(t), m) for t, m in zip(TIMES, model_path(truth, TIMES))]
        assert residual(truth, data) <= 1e-9

    def test_single_diagonal_offset(self):
        C = np.diag([0.6, 0.4]).astype(complex)
        truth = truth_model(C, np.zeros((2, 2), dtype=complex))
        delta = 0.3
        data = [MatrixSample(0.5, C + np.diag([delta, -delta]))]
        assert abs(residual(truth, data) - delta * np.sqrt(2)) <= 1e-12

    def test_matches_injected_noise_total(self):
        noisy = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.05, seed=7)
        clean = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.0, seed=7)
        book = sum(frob_norm(a.value - b.value) for a, b in zip(noisy, clean))
        assert abs(residual(truth_model(RHO0, XTRUE), noisy) - book) <= 1e-9

    def test_squared_variant(self):
        truth = truth_model(RHO0, XTRUE)
        noisy = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.05, seed=9)
        norms = [frob_norm(m - s.value)
                 for m, s in zip(model_path(truth, TIMES), noisy)]
        assert abs(residual(truth, noisy, squared=True) - sum(x * x for x in norms)) <= 1e-9

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            residual(truth_model(RHO0, XTRUE), [])

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_model_times_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            model_path(truth_model(RHO0, XTRUE), [0.5, t])

    @pytest.mark.parametrize(
        "times", [[0.1, np.nan, 0.9], [np.nan, 0.5, 0.9], [-0.1, 0.5, 0.9], [0.1, 0.5, 1.5]],
        ids=["nan inside", "nan first", "below 0", "above 1"],
    )
    def test_bad_sample_times_rejected(self, times):
        data = [MatrixSample(t, np.eye(2, dtype=complex) / 2) for t in times]
        with pytest.raises(ValueError, match="sample times"):
            residual(truth_model(RHO0, XTRUE), data)
        with pytest.raises(ValueError, match="sample times"):
            solve_regularization(data, seeds=1)


class TestGradient:
    @pytest.mark.parametrize("start", ["random", "a=0", "X gap 1e-9"])
    @pytest.mark.parametrize("squared", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_central_differences_of_the_objective(self, n, squared, start):
        # every start begins at a = 0, where all eigenvalues of A coincide;
        # a near-degenerate X checks the divided differences where their
        # plain quotient would cancel
        rng = np.random.default_rng(70 + n)
        S = skew_basis(n)
        ts = np.linspace(0.1, 1.0, 5)
        vals = np.stack([random_hermitian(rng, n) for _ in ts])
        V_start = expm_skew(random_skew(rng, n, 0.5))
        a = np.zeros(len(S)) if start == "a=0" else coords(random_skew(rng, n, 0.5), S)
        X = random_skew(rng, n)
        if start == "X gap 1e-9":
            W = random_unitary(rng, n)
            theta = np.arange(n, dtype=float)
            theta[1] = theta[0] + 1e-9
            X = (W * (1j * theta)) @ W.conj().T
        x = np.concatenate([a, rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n), coords(X, S)])
        args = (V_start, S, ts, vals, squared)
        g = _objective(x, *args)[1]
        ref = np.empty_like(g)
        for i in range(len(x)):
            e = np.zeros_like(x)
            e[i] = 1e-6 * max(1.0, abs(x[i]))
            ref[i] = (_objective(x + e, *args)[0] - _objective(x - e, *args)[0]) / (2 * e[i])
        assert np.abs(g - ref).max() <= 1e-7 * max(1.0, np.abs(g).max())


class TestFusedEvaluation:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_eigendecomposition_per_evaluation(self, n, monkeypatch):
        # A and X are decomposed together, at n = 2 as well
        rng = np.random.default_rng(40 + n)
        S = skew_basis(n)
        ts = np.linspace(0.1, 1.0, 4)
        vals = np.stack([random_hermitian(rng, n) for _ in ts])
        x = np.concatenate([coords(random_skew(rng, n, 0.5), S), rng.uniform(0.2, 1.0, 2 * n),
                            coords(random_skew(rng, n), S)])
        args = (expm_skew(random_skew(rng, n, 0.5)), S, ts, vals, False)
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        _objective(x, *args)
        assert len(calls) == 1

    def test_one_evaluation_per_solver_call(self, monkeypatch):
        # the history opens with L-BFGS-B's own first evaluation, at x0
        results, calls = [], []
        minimize, objective = scipy.optimize.minimize, reg._objective

        def recording(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        def counting(*args):
            calls.append(1)
            return objective(*args)

        monkeypatch.setattr(scipy.optimize, "minimize", recording)
        monkeypatch.setattr(reg, "_objective", counting)
        noisy = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.05, seed=13)
        m = solve_regularization(noisy, seeds=1)
        assert len(results) == 1
        assert len(calls) == results[0].nfev
        assert len(m.history) == results[0].nit + 1


FLAG_FITS = [(2, 0.05, 13), (2, 0.0, 4), (3, 0.03, 23)]  # (n, noise, seed)


def flag_fit_samples(n, noise, seed):
    rng = np.random.default_rng(seed)
    rho0 = random_hermitian(rng, n)
    rho0 = rho0 @ rho0
    rho0 = rho0 / np.trace(rho0).real
    z = np.sort(rng.dirichlet(np.ones(n))) - np.linalg.eigvalsh(rho0)
    return synth_noisy_path(rho0, random_skew(rng, n), z, TIMES, noise_amp=noise, seed=seed)


class TestReportedFlags:
    # every flag agrees with the numbers next to it, whether a start stalls
    # (a budget of 3 iterations) or stops on its own
    @pytest.mark.parametrize("max_iters", [3, 5000])
    @pytest.mark.parametrize("squared", [False, True])
    @pytest.mark.parametrize("fit", FLAG_FITS, ids=lambda f: f"n{f[0]}-noise{f[1]}")
    def test_flags_agree_with_history_and_objective(self, fit, squared, max_iters):
        samples = flag_fit_samples(*fit)
        m = solve_regularization(samples, seeds=2, max_iters=max_iters, squared=squared)
        assert m.stalled == (len(m.history) - 1 >= max_iters)
        assert m.stalled == (max_iters == 3)
        assert all(b <= a for a, b in zip(m.history, m.history[1:]))
        if squared:
            # the noise-free fit ends at misfits near 1e-5, whose squares
            # carry a rounding near 1e-21 each
            assert abs(m.objective - m.history[-1]) <= 1e-12 * m.objective + 1e-18
        else:
            # the smoothing shifts each misfit by at most 1e-8
            assert abs(m.objective - m.history[-1]) <= len(samples) * 1e-8


class TestSolve:
    def test_noise_free_recovery(self):
        data = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.0, seed=1)
        m = solve_regularization(data)
        assert frob_norm(m.X - XTRUE) <= 1e-3
        assert frob_norm(m.rho0() - RHO0) <= 1e-3
        assert np.linalg.norm(m.z) <= 1e-3
        # the recovered path itself matches the true one at the sample times
        fit = model_path(m, TIMES)
        truth = model_path(truth_model(RHO0, XTRUE), TIMES)
        assert max(frob_norm(a - b) for a, b in zip(fit, truth)) <= 1e-4

    def test_drift_recovery(self):
        z = np.array([-0.05, 0.05])
        data = synth_noisy_path(RHO0, XTRUE, z, TIMES, noise_amp=0.0, seed=4)
        m = solve_regularization(data, seeds=2)
        assert m.objective <= 1e-6
        truth = truth_model(RHO0, XTRUE, z)
        fit = model_path(m, TIMES)
        states = model_path(truth, TIMES)
        assert max(frob_norm(a - b) for a, b in zip(fit, states)) <= 1e-4

    def test_stationary_data(self):
        C = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        data = [MatrixSample(t, C.copy()) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        m = solve_regularization(data, seeds=2)
        assert m.objective <= 1e-6
        assert not m.stalled

    @pytest.mark.parametrize("D, want", [(np.zeros((2, 2)), 0.0), (-np.eye(2), 3 * np.sqrt(2))])
    def test_zero_drift_sum_gives_zero_flow(self, D, want):
        # the starts have p + z = 0, so the drift weights q / sum(q) divide 0 by 0
        data = [MatrixSample(t, D.astype(complex)) for t in (0.0, 0.5, 1.0)]
        m = solve_regularization(data, seeds=2)
        assert np.array_equal(m.p, np.zeros(2)) and np.array_equal(m.z, np.zeros(2))
        assert abs(m.objective - want) <= 1e-12
        assert not m.stalled

    def test_noisy_fit_close_to_truth_residual(self):
        noisy = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.05, seed=7)
        oracle = residual(truth_model(RHO0, XTRUE), noisy)
        m = solve_regularization(noisy)
        assert m.objective <= 1.2 * oracle
        assert not m.stalled

    def test_reflection_alignment_starts_from_the_principal_log(self):
        # real data whose first-to-last frame map is a reflection, with an
        # eigenphase of exactly pi; the consecutive maps the start sums are
        # small rotations, and their principal logs seed the fit
        rng = np.random.default_rng(23)
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3))
        X = ((A - A.T) / 2).astype(complex)
        rho0 = B @ B.T
        rho0 = (rho0 / np.trace(rho0)).astype(complex)
        z = np.sort(rng.dirichlet(np.ones(3))) - np.linalg.eigvalsh(rho0)
        noisy = synth_noisy_path(rho0, X, z, np.arange(1, 21) / 20, noise_amp=0.03, seed=23)
        X0 = _initial_guess(*_check_samples(noisy))[3]
        assert np.all(np.isfinite(X0))
        assert abs(np.trace(X0)) <= 1e-12
        assert frob_norm(X0) > 0.0
        m = solve_regularization(noisy)
        assert m.objective < residual(truth_model(rho0, X, z), noisy)

    def test_model_invariants_and_monotone_history(self):
        noisy = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES, noise_amp=0.05, seed=13)
        m = solve_regularization(noisy, seeds=2)
        assert is_unitary(m.V)
        assert np.all(m.p >= -1e-12)
        assert np.all(m.p + m.z >= -1e-12)
        assert abs(m.z.sum()) <= 1e-12
        assert frob_norm(m.X + m.X.conj().T) <= 1e-12
        assert abs(np.trace(m.X)) <= 1e-12
        assert all(b <= a + 1e-15 for a, b in zip(m.history, m.history[1:]))
        # eigenvalues of the fitted path stay nonnegative on [0, 1]
        lam = m.p[None, :] + np.outer(np.linspace(0, 1, 11), m.z)
        assert lam.min() >= -1e-12

    @pytest.mark.parametrize("seeds", [0, -3, 2.5, np.nan])
    def test_no_start_rejected(self, seeds):
        data = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES[:4], noise_amp=0.0)
        with pytest.raises(ValueError, match="seeds"):
            solve_regularization(data, seeds=seeds)

    @pytest.mark.parametrize("max_iters", [0, -1, 2.5, np.inf])
    def test_no_iteration_rejected(self, max_iters):
        data = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES[:4], noise_amp=0.0)
        with pytest.raises(ValueError, match="max_iters"):
            solve_regularization(data, max_iters=max_iters)

    def test_too_few_samples_rejected(self):
        data = synth_noisy_path(RHO0, XTRUE, np.zeros(2), [0.1, 0.9], noise_amp=0.0)
        with pytest.raises(ValueError):
            solve_regularization(data)

    def test_dimension_mismatch_rejected(self):
        data = [
            MatrixSample(0.1, np.eye(2, dtype=complex)),
            MatrixSample(0.5, np.eye(3, dtype=complex)),
            MatrixSample(0.9, np.eye(2, dtype=complex)),
        ]
        with pytest.raises(ValueError):
            solve_regularization(data)

    @pytest.mark.parametrize("value", [1.0, np.ones(2), np.ones((2, 3))],
                             ids=["0-d", "1-d", "2x3"])
    def test_non_square_sample_rejected(self, value):
        # the bad value comes first, where the shared dimension used to be read
        data = [MatrixSample(t, np.eye(2, dtype=complex) / 2) for t in (0.1, 0.5, 0.9)]
        data[0] = MatrixSample(0.1, value)
        with pytest.raises(ValueError, match=r"t=0\.1 is not a square matrix"):
            solve_regularization(data, seeds=1, max_iters=2)
        with pytest.raises(ValueError, match=r"t=0\.1 is not a square matrix"):
            residual(truth_model(RHO0, XTRUE), data)

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sample_rejected(self, entry):
        # named as such, before a Hermitian check can warn on inf - inf
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = entry
        data = [MatrixSample(t, np.eye(2, dtype=complex)) for t in (0.1, 0.5, 0.9)]
        data[1] = MatrixSample(0.5, bad)
        with pytest.raises(ValueError, match=r"t=0\.5 has non-finite entries"):
            solve_regularization(data, seeds=1, max_iters=2)
        with pytest.raises(ValueError, match="finite"):
            residual(truth_model(RHO0, XTRUE), data)

    def test_non_hermitian_sample_rejected(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        data = [
            MatrixSample(0.1, np.eye(2, dtype=complex)),
            MatrixSample(0.5, bad),
            MatrixSample(0.9, np.eye(2, dtype=complex)),
        ]
        with pytest.raises(ValueError):
            solve_regularization(data)

    def test_unsorted_times_rejected(self):
        data = [
            MatrixSample(0.5, np.eye(2, dtype=complex)),
            MatrixSample(0.1, np.eye(2, dtype=complex)),
            MatrixSample(0.9, np.eye(2, dtype=complex)),
        ]
        with pytest.raises(ValueError):
            solve_regularization(data)


# (n, rotation scale, seed), seeds fixed in advance: two fits per n and scale
ORACLE_FITS = [(n, scale, 600 + 10 * n + 2 * j + k)
               for n in (2, 3, 4) for j, scale in enumerate((0.5, 1.0, 2.0, 3.0)) for k in (0, 1)]


def synthetic_fit(n, scale, seed, complex_noise=False):
    """Samples and their generating model: 20 samples at t = k/20 with noise
    0.03, a Haar frame, sorted Dirichlet spectra at both ends and a skew X
    of the given scale, whose rotation over [0, 1] passes pi at scale 2-3."""
    rng = np.random.default_rng(seed)
    V = random_unitary(rng, n)
    p = np.sort(rng.dirichlet(np.ones(n)))
    z = np.sort(rng.dirichlet(np.ones(n))) - p
    X = random_skew(rng, n, scale)
    samples = synth_noisy_path((V * p) @ V.conj().T, X, z, TIMES, noise_amp=0.03, seed=seed,
                               complex_noise=complex_noise)
    return samples, RegularizedModel(V=V, p=p, z=z, X=X, objective=0.0)


class TestStartOracles:
    @pytest.mark.parametrize("fit", ORACLE_FITS, ids=lambda f: f"n{f[0]}-x{f[1]}-s{f[2]}")
    def test_one_start_reaches_the_generating_residual(self, fit):
        # the generating model is a feasible point, so a fit above its
        # residual ended in a wrong basin; the start alone must avoid that,
        # and the default's further starts can only lower the objective
        samples, truth = synthetic_fit(*fit)
        m = solve_regularization(samples, seeds=1)
        assert m.objective <= residual(truth, samples) * (1 + 1e-6)

    @pytest.mark.parametrize("n, seed", [(2, 640), (3, 641), (4, 642)])
    def test_objective_is_invariant_under_unitary_conjugation(self, n, seed):
        samples, _ = synthetic_fit(n, 1.5, seed, complex_noise=True)
        Q = random_unitary(np.random.default_rng(seed + 1000), n)
        turned = [MatrixSample(s.t, Q @ s.value @ Q.conj().T) for s in samples]
        a = solve_regularization(samples, seeds=1).objective
        b = solve_regularization(turned, seeds=1).objective
        assert abs(a - b) <= 1e-6 * a
