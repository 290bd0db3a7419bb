"""Direct discretization of the time-varying interpolation problem.

States evolve by exponential-Euler steps rho_{k+1} = e^{X_k dt}(rho_k +
u_k dt)e^{-X_k dt}, which preserve the Hermitian structure and the trace
exactly.  The solver keeps each state in eigen-coordinates, rho_k = V_k
diag(w_k) V_k*, the paper's split of a flow into a rotation of the
eigenframe and a scaling of the eigenvalues.  Its controls are the
generators X_k and the eigenvalue rates d_k (traceless), with u_k = V_k
diag(d_k) V_k*, so u_k commutes with rho_k by construction and the step is
exact in these coordinates: V_{k+1} = e^{X_k dt} V_k, w_{k+1} = w_k + d_k
dt.  Where rho0 has a repeated eigenvalue, V_0 = U0 e^{B(b)} for rotations
b inside its degenerate groups, which choose the axes the drift scales.
The endpoint and positivity constraints are one penalty weight that
continuation doubles each round.  Each round is one L-BFGS-B solve
(``scipy.optimize.minimize``) over the ``skew_basis`` coordinates of the
X_k, the d_k and b.

A rollout is one batched ``eig_skew`` of all X_k dt, a running product for
the frames, a ``cumsum`` for the eigenvalues and one batched build of the
states.  Its gradient needs no sweep: every frame is unitary, so the
propagator from step k+1 to the end is V_N V_{k+1}*, and one
``expm_skew_adjoint`` call on the rollout's eigenpairs gives every X
gradient; the d gradients are a reverse ``cumsum``.  The engine keeps its
last rollout, so each control vector is rolled out once: the start and
L-BFGS-B's first evaluation of a round share one, as do its last
evaluation and the x it returns.  The returned path is the engine's own
final trajectory, the one that decides convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from .geodesic import solve_geodesic
from .linalg import (
    along,
    check_count,
    check_skew,
    coords,
    dagger,
    degeneracy_groups,
    eig_skew,
    exp_i,
    expm_skew,
    expm_skew_adjoint,
    hermitian_part,
    skew_basis,
)
from .tangent import project_commutant


@dataclass(frozen=True)
class DiscretePath:
    """Time grid, per-step controls, states, and the convergence report."""

    N: int
    dt: float
    states: np.ndarray  # (N+1, n, n)
    Xs: np.ndarray  # (N, n, n) skew-Hermitian rotation generators
    us: np.ndarray  # (N, n, n) scaling controls V_k diag(d_k) V_k*, commuting with states[k]
    cost: float
    endpoint_residual: float
    converged: bool
    rounds: int
    objective_trace: tuple[tuple[float, ...], ...]  # accepted values per round


def step(
    rho: np.ndarray, X: np.ndarray, u_raw: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """One exponential-Euler update; returns (rho_next, u_used).

    The raw scaling control is projected onto the commutant of the current
    state first, so the scaling part never rotates eigenvectors; negativity
    of the result is not rejected here (the solver penalizes it).  Raises
    ValueError unless X is skew-Hermitian.
    """
    X = check_skew(X)
    u_used = project_commutant(rho, u_raw)
    E = expm_skew(X * dt)
    rho_next = E @ (np.asarray(rho, dtype=complex) + u_used * dt) @ E.conj().T
    return hermitian_part(rho_next), u_used


def discrete_cost(path: DiscretePath, epsilon: float) -> float:
    """Riemann-sum objective sum_k (||X_k||_F + epsilon*||u_k||_F) * dt."""
    xs = np.linalg.norm(path.Xs, axis=(1, 2))
    us = np.linalg.norm(path.us, axis=(1, 2))
    return float((xs + epsilon * us).sum() * path.dt)


# --- descent engine (one rollout gives the objective, one batched adjoint its gradient) ---

_WEIGHT = 1e4  # initial penalty weight; continuation doubles it each round
_REL_TOL = 1e-8  # an iteration that lowers the objective by less than this, relatively, ends a round
_DELTA = 1e-8  # smoothing width of the norms in the cost


def _smooth(x: np.ndarray) -> np.ndarray:
    return np.sqrt(x * x + _DELTA * _DELTA) - _DELTA


def _smooth_grad(A: np.ndarray, axis=(-2, -1)) -> np.ndarray:
    """Gradient of _smooth(||A||) in A, over ``axis``, for each item of a stack."""
    return A / np.sqrt(np.linalg.norm(A, axis=axis, keepdims=True) ** 2 + _DELTA * _DELTA)


class _Path(NamedTuple):
    """One rollout: controls, frames, eigenvalues, states and unweighted objective terms."""

    Xs: np.ndarray  # (N, n, n) rotation generators
    d: np.ndarray  # (N, n) traceless eigenvalue rates
    beta: tuple | None  # eig_skew(B(b)), V_0 = U0 e^{B(b)}; None when b is empty
    theta: np.ndarray  # (N, n) eigenvalues of -i X_k dt
    W: np.ndarray  # (N, n, n) their eigenvectors
    V: np.ndarray  # (N+1, n, n) frames, V_{k+1} = e^{X_k dt} V_k
    w: np.ndarray  # (N+1, n) eigenvalues, w_{k+1} = w_k + d_k dt
    states: np.ndarray  # (N+1, n, n) V_k diag(w_k) V_k*
    us: np.ndarray  # (N, n, n) V_k diag(d_k) V_k*
    cost: float  # smoothed sum_k (||X_k|| + epsilon ||d_k||) dt
    neg: float  # sum of squared negative eigenvalues of states 1..N
    end: float  # endpoint residual ||rho_N - rho1||_F


class _Engine:
    """Rollout and gradient over the flat control vector x = (X_k coordinates,
    d_k, b) of the solver, at the epsilon and in the rho0 frame of ``base``."""

    def __init__(self, base, rho1, N):
        self.base = base
        self.rho1 = rho1
        self.eps = base.epsilon
        self.N = N
        self.n = n = len(base.spectrum)
        self.dt = 1.0 / N
        self.w = _WEIGHT
        self.SX = skew_basis(n)
        self.w0, self.U0 = base.spectrum, base.frame
        # the in-group rotations of rho0's gauge; column phases are pure gauge
        self.SB = skew_basis(n, degeneracy_groups(self.w0))[n:]
        self._last = None  # (a copy of x, its rollout)

    def start(self):
        """x of the geodesic's constant controls: with V_0 = U0 and d_k its
        rates, the rollout is e^{X t_k}(rho0 + Z t_k)e^{-X t_k} at t_k = k/N."""
        cX = np.tile(coords(self.base.X, self.SX), self.N)
        return np.concatenate([cX, np.tile(self.base.rates, self.N), np.zeros(len(self.SB))])

    def simulate(self, x):
        """The whole path from rho0 under the controls x, each d_k's mean
        removed.  Its terms are unweighted, so continuation re-weights them
        without simulating again, and the last rollout is reused when x
        comes back unchanged: L-BFGS-B opens each round at the x the round
        before ended on, and usually returns the x it evaluated last."""
        if self._last is None or not np.array_equal(x, self._last[0]):
            self._last = (np.array(x), self._rollout(x))
        return self._last[1]

    def _rollout(self, x):
        N, n, dt = self.N, self.n, self.dt
        cX, d, b = np.split(x, [N * n * n, N * n * (n + 1)])
        Xs = np.tensordot(cX.reshape(N, n * n), self.SX, 1)
        d = d.reshape(N, n)
        d = d - d.mean(axis=1, keepdims=True)
        theta, W = eig_skew(Xs * dt)
        props = exp_i(theta, W)
        beta = eig_skew(np.tensordot(b, self.SB, 1)) if len(b) else None
        V = np.empty((N + 1, n, n), dtype=complex)
        V[0] = self.U0 if beta is None else self.U0 @ exp_i(*beta)
        for k in range(N):
            V[k + 1] = props[k] @ V[k]
        w = self.w0 + dt * np.concatenate([np.zeros((1, n)), np.cumsum(d, axis=0)])
        states = hermitian_part((V * w[:, None, :]) @ dagger(V))
        us = hermitian_part((V[:-1] * d[:, None, :]) @ dagger(V[:-1]))
        xcost = _smooth(np.linalg.norm(Xs, axis=(1, 2)))
        dcost = self.eps * _smooth(np.linalg.norm(d, axis=1))
        return _Path(Xs, d, beta, theta, W, V, w, states, us, float((xcost + dcost).sum() * dt),
                     float((np.minimum(w[1:], 0.0) ** 2).sum()),
                     float(np.linalg.norm(states[N] - self.rho1)))

    def objective(self, r):
        """Smoothed cost plus the weighted penalties."""
        return r.cost + self.w * (r.neg + r.end**2)

    def gradient(self, sim):
        """Derivatives of the objective along x at its rollout ``sim``.

        Only the endpoint term sees the frames.  With G = dJ/d rho_N and
        Gamma = dJ/dV_N = 2 G V_N diag(w_N), and V_N = (V_N V_{k+1}*) E_k V_k
        for E_k = e^{X_k dt}, dJ/dE_k = V_{k+1} (V_N* Gamma) V_k* for every k
        at once; the adjoint on the eigenpairs of X_k dt that built E_k
        turns them into the X gradients, and dJ/dV_0 = V_0 V_N* Gamma,
        through V_0 = U0 e^{B(b)}, into the b gradient.  The d gradients
        are dt times the reverse cumsum of dJ/dw over the later states.
        """
        dt, V, w = self.dt, sim.V, sim.w
        G = 2.0 * self.w * (sim.states[-1] - self.rho1)
        GV = dagger(V[-1]) @ G @ V[-1]
        H = GV * (2.0 * w[-1])  # V_N* Gamma
        Y = V[1:] @ H @ dagger(V[:-1])
        # adjoint in X_k dt on its eigenpairs; X_k's gradient is dt times it
        gX = dt * (_smooth_grad(sim.Xs) + expm_skew_adjoint(sim.theta, sim.W, [1.0], Y[:, None]))
        gw = 2.0 * self.w * np.minimum(w[1:], 0.0)
        gw[-1] += np.diagonal(GV).real
        gd = dt * (np.cumsum(gw[::-1], axis=0)[::-1] + self.eps * _smooth_grad(sim.d, axis=-1))
        gd -= gd.mean(axis=1, keepdims=True)
        gb = np.zeros(0)
        if sim.beta is not None:
            gB = expm_skew_adjoint(*sim.beta, [1.0], (dagger(self.U0) @ V[0] @ H)[None])
            gb = along(gB, self.SB)
        return np.concatenate([along(gX, self.SX).ravel(), gd.ravel(), gb])


def solve_discrete_path(
    rho0: np.ndarray,
    rho1: np.ndarray,
    epsilon: float,
    steps: int = 50,
    tol_end: float = 1e-4,
    max_rounds: int = 12,
    max_iters: int = 8,
) -> DiscretePath:
    """Minimize the discretized rotation-plus-scaling cost between endpoints.

    Initialization takes the constant-control solution and the rho0
    eigen-coordinates it carries: X_k = X, d_k its rates z and V_0 its frame
    U0, which reproduces the closed-form path exactly in the discrete
    dynamics; the descent can then only improve on it.  One
    penalty weight multiplies the squared endpoint residual plus the squared
    negative eigenvalues of the states; continuation doubles it until the
    residual meets ``tol_end`` or ``max_rounds`` is exhausted (the best path
    is returned flagged non-converged in that case).  Each round is one
    L-BFGS-B solve of at most ``max_iters`` iterations, which stops early
    once an iteration lowers the objective by less than 1e-8 relative to
    max(1, objective).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    rho1 = np.asarray(rho1, dtype=complex)
    N = check_count("steps", steps, 2)
    if not (np.isfinite(tol_end) and tol_end >= 0.0):
        raise ValueError(f"tol_end must be finite and nonnegative, got {tol_end}")
    max_rounds = check_count("max_rounds", max_rounds, 1)
    max_iters = check_count("max_iters", max_iters, 0)

    eng = _Engine(solve_geodesic(rho0, rho1, epsilon), rho1, N)

    def fun(x):
        sim = eng.simulate(x)
        return eng.objective(sim), eng.gradient(sim)

    x = eng.start()
    sim = eng.simulate(x)
    traces: list[tuple[float, ...]] = []
    for rounds_used in range(1, max_rounds + 1):
        trace = [eng.objective(sim)]
        # L-BFGS-B takes a step even at maxiter=0
        if max_iters > 0:
            x = minimize(
                fun, x, method="L-BFGS-B", jac=True,
                options={"maxiter": max_iters, "ftol": _REL_TOL},
                callback=lambda intermediate_result: trace.append(float(intermediate_result.fun)),
            ).x
            sim = eng.simulate(x)
        traces.append(tuple(trace))
        if sim.end <= tol_end:
            break
        eng.w *= 2.0

    path = DiscretePath(
        N=N,
        dt=1.0 / N,
        states=sim.states,
        Xs=sim.Xs,
        us=sim.us,
        cost=0.0,
        endpoint_residual=sim.end,
        converged=bool(sim.end <= tol_end),
        rounds=rounds_used,
        objective_trace=tuple(traces),
    )
    return replace(path, cost=discrete_cost(path, epsilon))
