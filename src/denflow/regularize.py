"""Fit a rotation-plus-drift flow to noisy Hermitian snapshots.

The model is rho(t) = e^{Xt} V diag(p + z t) V* e^{-Xt} with X
skew-Hermitian, V unitary, p >= 0, p + z >= 0 (so the linear-in-t
eigenvalues stay nonnegative on [0, 1]) and sum(z) = 0.  The fit
minimizes the sum of Frobenius misfits at the sample times — a sum of
norms, not squares, kept as is and smoothed only for the solver; a squared
variant is available behind a flag.

The first start's X sums the principal logs of the frame maps between
consecutive samples, each aligned by ``polar_gauge``: a step that short
stays on the principal branch, so a rotation past pi is not aliased.

Each start is one L-BFGS-B solve (``scipy.optimize.minimize``) on the
exact gradient of the smoothed objective, in coordinates x = (a, p, q, c)
that turn every constraint into a bound: V = V_start e^{A(a)} and X = X(c)
expand A and X in ``skew_basis``, and z = q sum(p)/sum(q) - p, so the
bounds p, q >= 0 give p + z >= 0 and sum(z) = 0 by construction.  Each
evaluation builds A and X in one product with the flattened basis and
decomposes them in one batched ``eig_skew`` call; ``exp_i`` turns A's
eigenpairs into V, and the model is evaluated in X's eigenbasis, where each
propagator e^{X t_i} is a diagonal of phases and is never formed.  The
gradients in A (``expm_skew_adjoint``) and X (``exp_divided_differences``)
read the same eigenpairs, and one more product with the basis takes both
to coordinates.  The additive i*phi*I gauge of the outer rotation cancels
in the conjugation, so the path cannot see it; the fitted X is returned
traceless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    check_count,
    check_hermitian,
    check_skew,
    coords,
    dagger,
    degeneracy_groups,
    eig_hermitian,
    eig_skew,
    exp_divided_differences,
    exp_i,
    expm_skew,
    expm_skew_adjoint,
    expm_skew_times,
    hermitian_part,
    logm_unitary,
    phase_fix,
    polar_gauge,
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
        return hermitian_part((self.V * self.p[None, :]) @ self.V.conj().T)


def _check_times(times) -> np.ndarray:
    """Sample times as floats, finite, in [0, 1] and strictly increasing."""
    ts = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValueError("sample times must be finite")
    if np.any(ts < 0.0) or np.any(ts > 1.0):
        raise ValueError("sample times must lie in [0, 1]")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    return ts


def _check_samples(samples, minimum: int = 1):
    if len(samples) < minimum:
        raise ValueError(f"need at least {minimum} sample(s), got {len(samples)}")
    ts = _check_times([s.t for s in samples])
    vals = [check_hermitian(s.value, f"sample at t={s.t}", 1e-9) for s in samples]
    if any(v.shape != vals[0].shape for v in vals):
        raise ValueError("samples must share one matrix dimension")
    return ts, np.array(vals)


def model_path(model: RegularizedModel, times) -> np.ndarray:
    """Model states e^{Xt} V diag(p + z t) V* e^{-Xt} at the given times.
    Raises ValueError unless X is skew-Hermitian."""
    X = check_skew(model.X)
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    # first, so a non-finite time is rejected before inf * 0 warns below
    props = expm_skew_times(X, ts)
    lam = model.p[None, :] + np.outer(ts, model.z)
    core = np.einsum("ik,tk,jk->tij", model.V, lam, model.V.conj())
    return hermitian_part(props @ core @ dagger(props))


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

    The drift rates z, one finite rate per eigenvalue, pair with the
    ascending eigenvalues of rho0 (Z is diagonal in rho0's eigenbasis).
    Entries of the noise are independent uniform in [-noise_amp,
    noise_amp]; off-diagonal imaginary parts are drawn only when
    complex_noise is set.  rho0 must be finite and Hermitian within 1e-9,
    times finite, in [0, 1] and strictly increasing, as the regularizer
    reads them, and the seed a nonnegative integer.  A fixed seed
    reproduces the dataset exactly.
    """
    rho0 = check_hermitian(rho0, "rho0", 1e-9)
    z = np.asarray(z, dtype=float)
    n = rho0.shape[0]
    ts = _check_times(times)
    seed = check_count("seed", seed, 0)
    if not (np.isfinite(noise_amp) and noise_amp >= 0):
        raise ValueError(f"noise_amp must be finite and nonnegative, got {noise_amp}")
    if z.shape != (n,) or not np.all(np.isfinite(z)):
        raise ValueError(f"z must be {n} finite drift rates, got {z.tolist()}")
    X = check_skew(X)
    vals0, V0 = eig_hermitian(rho0)
    Z = hermitian_part((V0 * z[None, :]) @ V0.conj().T)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    out = []
    for t in ts:
        U = expm_skew(X * t)
        base = hermitian_part(U @ (rho0 + Z * t) @ U.conj().T)
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
    """(V0, p0, z0, X0) from one batched ``eigh`` of the samples: X0 is the
    trace-free sum of the logs of the polar-aligned frame maps V_{i+1}
    Theta_i V_i* over t_m - t_1, p0 and z0 the end spectra's."""
    w, V = np.linalg.eigh(vals)
    span = ts[-1] - ts[0]
    maps = [V[i + 1] @ polar_gauge(dagger(V[i + 1]) @ V[i], degeneracy_groups(w[i + 1]))
            @ dagger(V[i]) for i in range(len(ts) - 1)]
    X0 = _strip_trace(sum(logm_unitary(Q) for Q in maps) / span)
    z0 = (w[-1] - w[0]) / span
    z0 = z0 - z0.mean()
    # back-rotate the first-sample frame to t = 0 so the model matches the
    # data near t_1 from the start
    V0 = expm_skew(-X0 * ts[0]) @ V[0]
    return V0, np.maximum(w[0], 0.0), z0, X0


def _unpack(x, V_start, S):
    """(theta, W) = ``eig_skew`` of the stack (A, X), V, p, z, X, w and
    sum(q) at x = (a, p, q, c), with z = w sum(p) - p for the weights
    w = q / sum(q).  A and X are built in one product with the flattened
    basis and decomposed in one call."""
    m, n = len(S), V_start.shape[0]
    a, p, q, c = x[:m], x[m:m + n], x[m + n:m + 2 * n], x[m + 2 * n:]
    s = q.sum()
    # sum(q) = 0 only at q = 0, where any weights give p + z = 0; uniform
    # ones keep z finite (the all-zero start then stays at p = z = 0)
    w = q / s if s > 0.0 else np.full(n, 1.0 / n)
    AX = (np.array([a, c]) @ S.reshape(m, -1)).reshape(2, n, n)
    theta, W = eig_skew(AX)
    return theta, W, V_start @ exp_i(theta[0], W[0]), p, w * p.sum() - p, AX[1], w, s


def _objective(x, V_start, S, ts, vals, squared):
    """Smoothed objective and its exact gradient in x = (a, p, q, c), in
    the eigenbasis W of X from the one batched ``eig_skew`` of (A, X): with
    B = W* V, the state at t_i is (B diag(p + z t_i) B*) o P_i for the phases
    P_i[j, k] = e^{i(theta_j - theta_k) t_i}, and its misfit to W* vals_i W
    has the plain one's norm, so no propagator is formed.  X's gradient
    takes the weights of ``exp_divided_differences`` times e^{i theta_k t_i}."""
    theta, W, V, p, z, _, w, s = _unpack(x, V_start, S)
    m, n = vals.shape[:2]
    WX, T = W[1], np.array([np.ones(m), ts])  # lam_i = p + z t_i = (p, z) T[:, i]
    B = dagger(WX) @ V
    Bh = dagger(B)
    e = np.exp(1j * np.outer(ts, theta[1]))
    P = e[:, :, None] * e[:, None, :].conj()
    states = (T.T @ np.array([(B * p) @ Bh, (B * z) @ Bh]).reshape(2, -1)).reshape(m, n, n) * P
    # vec(W* Y W) = vec(Y) (conj(W) kron W): every sample in one product
    K = (WX.conj()[:, None, :, None] * WX[None, :, None, :]).reshape(n * n, n * n)
    R = states - (vals.reshape(m, -1) @ K).reshape(m, n, n)
    r = np.linalg.norm(R, axis=(1, 2))
    if squared:
        f, G = (r * r).sum(), 2.0 * hermitian_part(R)
    else:
        h = np.sqrt(r * r + _DELTA * _DELTA)
        f, G = (h - _DELTA).sum(), hermitian_part(R) / h[:, None, None]
    # dF = sum_i Re<G_i, d state_i>; G_i o conj(P_i) is the same differential
    # on the core B diag(lam_i) B*, so HB = sum_i T[:, i] (G_i o conj(P_i)) B
    HB = (T @ (G * P.conj()).reshape(m, -1)).reshape(2, n, n) @ B
    gp, gz = np.einsum("ik,sik->sk", B.conj(), HB).real  # sum_i T[:, i] dF/dlam_i
    gV = 2.0 * WX @ (HB[0] * p + HB[1] * z)
    gA = expm_skew_adjoint(theta[0], W[0], [1.0], [dagger(V_start) @ gV])
    psi = np.conj(exp_divided_differences(theta[1], ts)) * e[:, None, :]
    gX = 2.0 * WX @ (ts @ (psi * (G @ states)).reshape(m, -1)).reshape(n, n) @ dagger(WX)
    # Re<S_j, G> for both gradients at once: the derivatives along the basis
    ga, gc = (np.array([gA, gX]).reshape(2, -1) @ S.reshape(len(S), -1).conj().T).real
    gq = (p.sum() / s) * (gz - gz @ w) if s > 0.0 else np.zeros(len(w))
    return float(f), np.concatenate([ga, gp - gz + gz @ w, gq, gc])


def solve_regularization(
    samples,
    seeds: int = 5,
    max_iters: int = 5000,
    squared: bool = False,
    rng_seed: int = 0,
) -> RegularizedModel:
    """Fit the flow parameters to samples by multi-start L-BFGS-B.

    The first start is the eigen-structure initial guess, whose rotation
    follows the frames from sample to sample (see the module docstring);
    each further start perturbs it a little, more for later starts.  Each
    runs one L-BFGS-B solve of at most ``max_iters`` iterations, which stops
    once an iteration lowers the smoothed objective by less than 1e-8
    relative to max(1, objective) or the projected gradient vanishes.  The
    lowest objective wins; the returned model's ``stalled`` and ``history``
    are those of the winning start.  The history opens with the solver's own
    first evaluation, at the start, so a start costs no evaluation beyond
    the solver's.  ``rng_seed``, which seeds the perturbations, must be a
    nonnegative integer.
    """
    from scipy.optimize import Bounds, minimize  # here, so synthesis needs no scipy

    ts, vals = _check_samples(samples, minimum=3)
    seeds = check_count("seeds", seeds, 1)
    max_iters = check_count("max_iters", max_iters, 1)
    rng_seed = check_count("rng_seed", rng_seed, 0)
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
        history = []

        def fun(x, *args):
            # L-BFGS-B evaluates at x0 first: that value opens the history
            f, g = _objective(x, *args)
            if not history:
                history.append(f)
            return f, g

        res = minimize(
            fun, x0, args=args, method="L-BFGS-B", jac=True, bounds=bounds,
            options={"maxiter": max_iters, "ftol": _REL_TOL},
            callback=lambda intermediate_result: history.append(float(intermediate_result.fun)),
        )
        if best is None or res.fun < best[0]:
            best = (res.fun, res.x, V, res.status == 1, history)
    _, x, V_start, stalled, history = best
    _, _, V, p, z, X, _, _ = _unpack(x, V_start, S)
    # column phases of V are pure gauge (they commute with the diagonal
    # core), so fix them for reproducible output
    model = RegularizedModel(
        V=phase_fix(V), p=p, z=z, X=_strip_trace(X), objective=0.0,
        stalled=stalled, history=tuple(history),
    )
    return replace(model, objective=residual(model, samples, squared=squared))
