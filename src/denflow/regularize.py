"""Fit a rotation-plus-drift flow to noisy Hermitian snapshots.

The model is rho(t) = e^{Xt} V diag(p + z t) V* e^{-Xt} with X
skew-Hermitian, V unitary, p >= 0, p + z >= 0 (so the linear-in-t
eigenvalues stay nonnegative on [0, 1]) and sum(z) = 0.  The fit
minimizes the sum of Frobenius misfits at the sample times — a sum of
norms, not squares, kept as is and smoothed only for the solver; a squared
variant is available behind a flag.

Each start is one L-BFGS-B solve (``scipy.optimize.minimize``) on the
exact gradient of the smoothed objective, in coordinates x = (a, p, q, c)
that turn every constraint into a bound: V = V_start e^{A(a)} and X = X(c)
expand A and X in ``skew_basis``, and z = q sum(p)/sum(q) - p, so the
bounds p, q >= 0 give p + z >= 0 and sum(z) = 0 by construction.  The
gradient in A and X goes through ``expm_skew_times_adjoint``.  The additive
i*phi*I gauge of the outer rotation cancels in the conjugation, so the path
cannot see it; the fitted X is returned traceless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import Bounds, minimize

from .linalg import (
    BranchAmbiguityError,
    _phase_fix,
    coords,
    dagger,
    eig_hermitian,
    expm_skew,
    expm_skew_times,
    expm_skew_times_adjoint,
    hermitian_part,
    is_hermitian,
    logm_unitary,
    skew_basis,
)

_DELTA = 1e-8  # objective smoothing width
_REL_TOL = 1e-8  # an iteration that lowers the objective by less than this, relatively, ends a start


@dataclass(frozen=True)
class MatrixSample:
    """One Hermitian snapshot at time t (noise may break positivity)."""

    t: float
    value: np.ndarray


@dataclass(frozen=True)
class RegularizedModel:
    """Fitted flow parameters plus the achieved (unsmoothed) objective.

    ``history`` holds the winning start's smoothed objective at its start
    and after each solver iteration; ``stalled`` means that start hit its
    iteration cap before the stop rule was met.
    """

    V: np.ndarray
    p: np.ndarray
    z: np.ndarray
    X: np.ndarray
    objective: float
    stalled: bool = False
    history: tuple[float, ...] = ()

    def rho0(self) -> np.ndarray:
        core = (self.V * self.p[None, :]) @ self.V.conj().T
        return (core + core.conj().T) / 2


def _check_samples(samples, minimum: int = 1):
    if len(samples) < minimum:
        raise ValueError(f"need at least {minimum} sample(s), got {len(samples)}")
    ts = np.array([s.t for s in samples], dtype=float)
    if np.any(ts < 0.0) or np.any(ts > 1.0):
        raise ValueError("sample times must lie in [0, 1]")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    n = np.asarray(samples[0].value).shape[0]
    vals = np.empty((len(samples), n, n), dtype=complex)
    for i, s in enumerate(samples):
        v = np.asarray(s.value, dtype=complex)
        if v.shape != (n, n):
            raise ValueError("samples must share one matrix dimension")
        if not is_hermitian(v, tol=1e-9):
            raise ValueError(f"sample at t={s.t} is not Hermitian")
        vals[i] = v
    return ts, vals


def model_path(model: RegularizedModel, times) -> np.ndarray:
    """Model states e^{Xt} V diag(p + z t) V* e^{-Xt} at the given times."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    lam = model.p[None, :] + np.outer(ts, model.z)
    return hermitian_part(_flow(expm_skew_times(model.X, ts), model.V, lam)[1])


def _flow(props, V, lam):
    """Cores V diag(lam_i) V* and states props_i core_i props_i*, given
    props_i = e^{X t_i}."""
    core = np.einsum("ik,tk,jk->tij", V, lam, V.conj())
    return core, props @ core @ dagger(props)


def residual(model: RegularizedModel, samples, squared: bool = False) -> float:
    """Sum of Frobenius misfits between the model path and the samples."""
    ts, vals = _check_samples(samples, minimum=1)
    norms = np.linalg.norm(model_path(model, ts) - vals, axis=(1, 2))
    return float((norms**2).sum() if squared else norms.sum())


def synth_noisy_path(
    rho0: np.ndarray,
    X: np.ndarray,
    z,
    times,
    noise_amp: float = 0.05,
    seed: int = 0,
    complex_noise: bool = False,
) -> list[MatrixSample]:
    """Sample the flow at the given times and add uniform Hermitian noise.

    The drift rates z pair with the ascending eigenvalues of rho0 (Z is
    diagonal in rho0's eigenbasis).  Entries of the noise are independent
    uniform in [-noise_amp, noise_amp]; off-diagonal imaginary parts are
    drawn only when complex_noise is set.  A fixed seed reproduces the
    dataset exactly.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    X = np.asarray(X, dtype=complex)
    z = np.asarray(z, dtype=float)
    n = rho0.shape[0]
    ts = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValueError("sample times must be finite")
    if not (np.isfinite(noise_amp) and noise_amp >= 0):
        raise ValueError(f"noise_amp must be finite and nonnegative, got {noise_amp}")
    vals0, V0 = eig_hermitian(rho0)
    Z = (V0 * z[None, :]) @ V0.conj().T
    Z = (Z + Z.conj().T) / 2
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    out = []
    for t in ts:
        U = expm_skew(X * t)
        base = U @ (rho0 + Z * t) @ U.conj().T
        base = (base + base.conj().T) / 2
        w = np.zeros((n, n), dtype=complex)
        w[np.arange(n), np.arange(n)] = rng.uniform(-noise_amp, noise_amp, n)
        upper = rng.uniform(-noise_amp, noise_amp, iu.size).astype(complex)
        if complex_noise:
            upper = upper + 1j * rng.uniform(-noise_amp, noise_amp, iu.size)
        w[iu, ju] = upper
        w[ju, iu] = np.conj(upper)
        out.append(MatrixSample(t=float(t), value=base + w))
    return out


# --- solver internals ---


def _strip_trace(X):
    n = X.shape[0]
    return X - (np.trace(X) / n) * np.eye(n)


def _initial_guess(ts, vals):
    """Eigen-structure of the first/last samples seeds every start."""
    n = vals.shape[1]
    p0, Vfirst = np.linalg.eigh(vals[0])
    q, Vlast = np.linalg.eigh(vals[-1])
    span = ts[-1] - ts[0]
    d = np.einsum("ki,ki->i", Vfirst.conj(), Vlast)
    mag = np.abs(d)
    phase = np.where(mag > 1e-12, d / np.maximum(mag, 1e-300), 1.0)
    Q = (Vlast * np.conj(phase)[None, :]) @ Vfirst.conj().T
    try:
        X0 = _strip_trace(logm_unitary(Q) / span)
    except BranchAmbiguityError:
        X0 = np.zeros((n, n), dtype=complex)
    z0 = (q - p0) / span
    z0 = z0 - z0.mean()
    # back-rotate the first-sample frame to t = 0 so the model matches the
    # data near t_1 from the start
    V0 = expm_skew(-X0 * ts[0]) @ Vfirst
    return V0, np.maximum(p0, 0.0), z0, X0


def _unpack(x, V_start, S):
    """A, V, p, z, X, w and sum(q) at x = (a, p, q, c), with z = w sum(p) - p
    for the weights w = q / sum(q)."""
    m, n = len(S), V_start.shape[0]
    a, p, q, c = np.split(x, [m, m + n, m + 2 * n])
    s = q.sum()
    # sum(q) = 0 only at q = 0, where any weights give p + z = 0; uniform
    # ones keep z finite (the all-zero start then stays at p = z = 0)
    w = q / s if s > 0.0 else np.full(n, 1.0 / n)
    A = np.tensordot(a, S, 1)
    return A, V_start @ expm_skew(A), p, w * p.sum() - p, np.tensordot(c, S, 1), w, s


def _objective(x, V_start, S, ts, vals, squared):
    """Smoothed objective and its exact gradient in x = (a, p, q, c)."""
    A, V, p, z, X, w, s = _unpack(x, V_start, S)
    props = expm_skew_times(X, ts)
    lam = p[None, :] + np.outer(ts, z)
    core, states = _flow(props, V, lam)
    R = states - vals
    r = np.linalg.norm(R, axis=(1, 2))
    if squared:
        f, G = (r * r).sum(), 2.0 * hermitian_part(R)
    else:
        h = np.sqrt(r * r + _DELTA * _DELTA)
        f, G = (h - _DELTA).sum(), hermitian_part(R) / h[:, None, None]
    # dF = sum_i Re<G_i, d state_i>; H_i = props_i* G_i props_i is the same
    # differential on the core V diag(lam_i) V*
    HV = dagger(props) @ G @ props @ V
    M = np.einsum("ik,tik->tk", V.conj(), HV).real  # dF/dlam_i = diag(V* H_i V)
    gp, gz = M.sum(axis=0), ts @ M
    gV = 2.0 * np.einsum("tik,tk->ik", HV, lam)
    gA = expm_skew_times_adjoint(A, [1.0], [dagger(V_start) @ gV])
    gX = expm_skew_times_adjoint(X, ts, 2.0 * G @ props @ core)
    gq = (p.sum() / s) * (gz - gz @ w) if s > 0.0 else np.zeros(len(w))
    grad = [np.tensordot(S.conj(), gA, 2).real, gp - gz + gz @ w, gq,
            np.tensordot(S.conj(), gX, 2).real]
    return float(f), np.concatenate(grad)


def solve_regularization(
    samples,
    seeds: int = 5,
    max_iters: int = 5000,
    squared: bool = False,
    rng_seed: int = 0,
) -> RegularizedModel:
    """Fit the flow parameters to samples by multi-start L-BFGS-B.

    The first start is the eigen-structure initial guess; each further
    start perturbs it a little, more for later starts.  Each runs one
    L-BFGS-B solve of at most ``max_iters`` iterations, which stops once an
    iteration lowers the smoothed objective by less than 1e-8 relative to
    max(1, objective) or the projected gradient vanishes.  The lowest
    objective wins; the returned model's ``stalled`` and ``history`` are
    those of the winning start.
    """
    ts, vals = _check_samples(samples, minimum=3)
    if seeds < 1:
        raise ValueError("seeds must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    n = vals.shape[1]
    V0, p0, z0, X0 = _initial_guess(ts, vals)
    rng = np.random.default_rng(rng_seed)
    S = skew_basis(n)
    m = len(S)
    bounds = Bounds(np.concatenate([np.full(m, -np.inf), np.zeros(2 * n), np.full(m, -np.inf)]),
                    np.inf)
    best = None
    for s in range(seeds):
        if s == 0:
            V, p, z, X = V0, p0, z0, X0
        else:
            sigma = 0.05 * s
            V = V0 @ expm_skew(np.tensordot(rng.normal(0.0, sigma, n * n), S, 1))
            X = _strip_trace(X0 + np.tensordot(rng.normal(0.0, sigma, n * n), S, 1))
            p = p0 + rng.normal(0.0, sigma * max(1.0, p0.max(initial=1.0)), n)
            z = z0 + rng.normal(0.0, sigma, n)
        args = (V, S, ts, vals, squared)
        # clipped into the box, the start is feasible: z = q sum(p)/sum(q) - p
        # gives p + z >= 0 and sum(z) = 0 at every point of it
        x0 = np.concatenate([np.zeros(m), np.maximum(p, 0.0), np.maximum(p + z, 0.0),
                             coords(X, S)])
        history = [_objective(x0, *args)[0]]
        res = minimize(
            _objective, x0, args=args, method="L-BFGS-B", jac=True, bounds=bounds,
            options={"maxiter": max_iters, "ftol": _REL_TOL},
            callback=lambda intermediate_result: history.append(float(intermediate_result.fun)),
        )
        if best is None or res.fun < best[0]:
            best = (res.fun, res.x, V, res.status == 1, history)
    _, x, V_start, stalled, history = best
    _, V, p, z, X, _, _ = _unpack(x, V_start, S)
    # column phases of V are pure gauge (they commute with the diagonal
    # core), so fix them for reproducible output
    model = RegularizedModel(
        V=_phase_fix(V), p=p, z=z, X=_strip_trace(X), objective=0.0,
        stalled=stalled, history=tuple(history),
    )
    return replace(model, objective=residual(model, samples, squared=squared))
