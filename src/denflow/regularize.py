"""Fit a rotation-plus-drift flow to noisy Hermitian snapshots.

The model is rho(t) = e^{Xt} V diag(p + z t) V* e^{-Xt} with X
skew-Hermitian, V unitary, p >= 0, p + z >= 0 (so the linear-in-t
eigenvalues stay nonnegative on [0, 1]) and sum(z) = 0.  The fit
minimizes the sum of Frobenius misfits at the sample times — a sum of
norms, not squares, kept as is and smoothed only for descent; a squared
variant is available behind a flag.

Block-coordinate descent keeps every iterate feasible by construction:
V moves multiplicatively (V <- V e^A with A skew), X additively by a
skew increment, and (p, z) by projected gradient onto the constraint
polytope.  Gradients are central finite differences of the smoothed
objective.  The additive i*phi*I gauge of the outer rotation (it cancels
in the conjugation, so the path cannot see it) is fixed by keeping X
traceless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    BranchAmbiguityError,
    _phase_fix,
    coords,
    dagger,
    eig_hermitian,
    expm_skew,
    expm_skew_times,
    hermitian_part,
    is_hermitian,
    logm_unitary,
    skew_basis,
)

_DELTA = 1e-8  # objective smoothing width
_REL_TOL = 1e-8  # a sweep that lowers the objective by less than this, relatively, ends a start


@dataclass(frozen=True)
class MatrixSample:
    """One Hermitian snapshot at time t (noise may break positivity)."""

    t: float
    value: np.ndarray


@dataclass(frozen=True)
class RegularizedModel:
    """Fitted flow parameters plus the achieved (unsmoothed) objective."""

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
    return hermitian_part(_flow(expm_skew_times(model.X, ts), model.V, model.p, model.z, ts))


def _flow(props, V, p, z, ts):
    """States props_i V diag(p + z t_i) V* props_i*, given props_i = e^{X t_i}."""
    lam = p[None, :] + np.outer(ts, z)
    core = np.einsum("ik,tk,jk->tij", V, lam, V.conj())
    return props @ core @ dagger(props)


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
    if noise_amp < 0:
        raise ValueError("noise_amp must be nonnegative")
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


def _project_wedge(p: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise projection onto the wedge {p >= 0, p + z >= 0}.

    The infeasible region partitions exactly by normal cones — onto the
    p = 0 edge when z > 0, onto the p + z = 0 edge when p > z, and onto
    the apex between — so no distance comparison (with its cancellation
    hazards) is needed.
    """
    feas = (p >= 0.0) & (p + z >= 0.0)
    on_edge1 = ~feas & (z > 0.0)
    foot = (p - z) / 2
    on_edge2 = ~feas & ~on_edge1 & (p > z)
    pn = np.where(on_edge1, 0.0, np.where(on_edge2, foot, 0.0))
    zn = np.where(on_edge1, z, np.where(on_edge2, -foot, 0.0))
    return np.where(feas, p, pn), np.where(feas, z, zn)


def _project_pz(p: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean projection onto {p >= 0, p + z >= 0, sum(z) = 0}.

    Shifting z onto the zero-sum hyperplane is the full projection
    whenever the result is feasible (the common case).  Otherwise the sum
    constraint couples coordinates through a single multiplier, found by
    bisection on the (monotone) total drift of the wedge projection.
    """
    z0 = z - z.mean()
    if np.all(p >= 0.0) and np.all(p + z0 >= 0.0):
        return p.copy(), z0
    span = float(np.abs(z0).max(initial=0.0) + np.abs(p).max(initial=0.0) + 1.0)
    lo, hi = -span, span
    for _ in range(80):
        mid = (lo + hi) / 2
        if _project_wedge(p, z0 - mid)[1].sum() > 0.0:
            lo = mid
        else:
            hi = mid
    pn, zn = _project_wedge(p, z0 - (lo + hi) / 2)
    zn = zn - zn.sum() / zn.size  # exact zero-sum polish
    zn = np.maximum(zn, -pn)
    return np.maximum(pn, 0.0), zn


class _Objective:
    """Smoothed misfit evaluation with the rotation propagators cached."""

    def __init__(self, ts, vals, squared):
        self.ts = ts
        self.vals = vals
        self.squared = squared
        self.n = vals.shape[1]

    def props(self, X):
        return expm_skew_times(X, self.ts)

    def value(self, V, p, z, props):
        r = np.linalg.norm(_flow(props, V, p, z, self.ts) - self.vals, axis=(1, 2))
        if self.squared:
            return float((r * r).sum())
        return float((np.sqrt(r * r + _DELTA * _DELTA) - _DELTA).sum())


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
    p0, z0 = _project_pz(np.maximum(p0, 0.0), z0)
    return V0, p0, z0, X0


def _fd_gradient(f, scale_at):
    g = np.empty(len(scale_at))
    for i in range(len(g)):
        h = 1e-6 * max(1.0, abs(scale_at[i]))
        e = np.zeros_like(g)
        e[i] = h
        g[i] = (f(e) - f(-e)) / (2 * h)
    return g


def _descend(obj, V, p, z, X, max_iters):
    n = obj.n
    S = skew_basis(n)
    props = obj.props(X)
    f = obj.value(V, p, z, props)
    history = [f]
    alphas = {"V": 1.0, "X": 1.0, "pz": 1.0}
    stalled = True  # cleared when the relative-decrease criterion is met
    for _ in range(max_iters):
        f_start = f

        def line_search(key, grad, apply_step):
            gnorm2 = float(grad @ grad)
            if gnorm2 < 1e-24:
                return None
            alpha = min(alphas[key] * 4.0, 1e2)
            while alpha > 1e-14:
                trial = apply_step(alpha, grad)
                if trial[0] < f - 1e-4 * alpha * gnorm2:
                    alphas[key] = alpha
                    return trial
                alpha *= 0.5
            return None

        # frame block: V <- V e^A
        gV = _fd_gradient(
            lambda e: obj.value(V @ expm_skew(np.tensordot(e, S, 1)), p, z, props),
            np.zeros(n * n),
        )

        def v_step(a, g):
            Vt = V @ expm_skew(np.tensordot(-a * g, S, 1))
            return obj.value(Vt, p, z, props), Vt

        got = line_search("V", gV, v_step)
        if got is not None:
            f, V = got
            history.append(f)

        # eigenvalue block: projected gradient on (p, z)
        def pz_val(e):
            pp, zz = _project_pz(p + e[:n], z + e[n:])
            return obj.value(V, pp, zz, props)

        gpz = _fd_gradient(pz_val, np.concatenate([p, z]))

        def pz_step(a, g):
            pp, zz = _project_pz(p - a * g[:n], z - a * g[n:])
            return obj.value(V, pp, zz, props), (pp, zz)

        got = line_search("pz", gpz, pz_step)
        if got is not None:
            f, (p, z) = got
            history.append(f)

        # rotation block: X <- X + S (trace kept zero to fix the gauge)
        gX = _fd_gradient(
            lambda e: obj.value(V, p, z, obj.props(_strip_trace(X + np.tensordot(e, S, 1)))),
            coords(X, S),
        )

        def x_step(a, g):
            Xt = _strip_trace(X + np.tensordot(-a * g, S, 1))
            return obj.value(V, p, z, obj.props(Xt)), Xt

        got = line_search("X", gX, x_step)
        if got is not None:
            f, X = got
            props = obj.props(X)
            history.append(f)

        # a sweep with no accepted step has zero decrease and lands here too
        if (f_start - f) / max(1.0, abs(f_start)) < _REL_TOL:
            stalled = False
            break
    return V, p, z, X, f, stalled, history


def solve_regularization(
    samples,
    seeds: int = 5,
    max_iters: int = 5000,
    squared: bool = False,
    rng_seed: int = 0,
) -> RegularizedModel:
    """Fit the flow parameters to samples by multi-start block descent.

    Each start perturbs the eigen-structure initial guess a little and
    descends; the best objective wins.  A start that cannot decrease the
    objective over a full sweep (or runs out of iterations before the
    relative-decrease criterion) is considered stalled; the flag on the
    returned model refers to the winning start.
    """
    ts, vals = _check_samples(samples, minimum=3)
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    n = vals.shape[1]
    obj = _Objective(ts, vals, squared)
    V0, p0, z0, X0 = _initial_guess(ts, vals)
    rng = np.random.default_rng(rng_seed)
    S = skew_basis(n)
    best = None
    for s in range(max(1, seeds)):
        if s == 0:
            V, p, z, X = V0, p0, z0, X0
        else:
            sigma = 0.05 * s
            V = V0 @ expm_skew(np.tensordot(rng.normal(0.0, sigma, n * n), S, 1))
            X = _strip_trace(X0 + np.tensordot(rng.normal(0.0, sigma, n * n), S, 1))
            p, z = _project_pz(
                p0 + rng.normal(0.0, sigma * max(1.0, p0.max(initial=1.0)), n),
                z0 + rng.normal(0.0, sigma, n),
            )
        V, p, z, X, f, stalled, history = _descend(obj, V, p, z, X, max_iters)
        if best is None or f < best[4]:
            best = (V, p, z, X, f, stalled, history)
    V, p, z, X, _, stalled, history = best
    # column phases of V are pure gauge (they commute with the diagonal
    # core), so fix them for reproducible output
    model = RegularizedModel(
        V=_phase_fix(V), p=p, z=z, X=_strip_trace(X), objective=0.0,
        stalled=stalled, history=tuple(history),
    )
    return replace(model, objective=residual(model, samples, squared=squared))
