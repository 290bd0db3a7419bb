"""Tests for the noisy-flow fitting module."""

import numpy as np
import pytest

from conftest import random_hermitian, random_skew, random_unitary
from denflow.linalg import coords, expm_skew, frob_norm, is_unitary, skew_basis
from denflow.regularize import (
    MatrixSample,
    RegularizedModel,
    model_path,
    residual,
    solve_regularization,
    synth_noisy_path,
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

    @pytest.mark.parametrize("seeds", [0, -3])
    def test_no_start_rejected(self, seeds):
        data = synth_noisy_path(RHO0, XTRUE, np.zeros(2), TIMES[:4], noise_amp=0.0)
        with pytest.raises(ValueError, match="seeds"):
            solve_regularization(data, seeds=seeds)

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
