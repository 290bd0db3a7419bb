"""Direct discretization of the time-varying interpolation problem.

States evolve by exponential-Euler steps rho_{k+1} = e^{X_k dt}(rho_k +
u_k dt)e^{-X_k dt}, which preserve the Hermitian structure and the trace
exactly; the commutant constraint on u_k is enforced by projection at the
current state, and the endpoint and positivity constraints by penalties
with continuation.  Gradients of the smoothed objective are central finite
differences on the raw per-step controls.

The descent engine propagates in one place, a batched rollout from step k
to N that returns the unweighted cost, negativity and endpoint terms.  A
path is a rollout of one from step 0; the gradient is one rollout per step
over all of that step's perturbed controls, since states 0..k and the terms
before step k are shared and cancel in a central difference.  The returned
path is the engine's own final trajectory, the one that decides convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .geodesic import solve_geodesic
from .linalg import (
    coords,
    dagger,
    expm_skew,
    expm_skew_times,
    herm_basis,
    hermitian_part,
    skew_basis,
)
from .tangent import project_commutant, project_commutant_eig


@dataclass(frozen=True)
class DiscretePath:
    """Time grid, per-step controls, states, and the convergence report."""

    N: int
    dt: float
    states: np.ndarray  # (N+1, n, n)
    Xs: np.ndarray  # (N, n, n) skew-Hermitian rotation generators
    us: np.ndarray  # (N, n, n) commutant-projected scaling controls
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
    of the result is not rejected here (the solver penalizes it).
    """
    u_used = project_commutant(rho, u_raw)
    E = expm_skew(np.asarray(X, dtype=complex) * dt)
    rho_next = E @ (np.asarray(rho, dtype=complex) + u_used * dt) @ E.conj().T
    return hermitian_part(rho_next), u_used


def discrete_cost(path: DiscretePath, epsilon: float) -> float:
    """Riemann-sum objective sum_k (||X_k||_F + epsilon*||u_k||_F) * dt."""
    xs = np.linalg.norm(path.Xs, axis=(1, 2))
    us = np.linalg.norm(path.us, axis=(1, 2))
    return float((xs + epsilon * us).sum() * path.dt)


# --- descent engine (one batched rollout serves the objective and its gradient) ---

_W_END = 1e4  # initial endpoint weight; continuation doubles it each round
_W_POS = 1e4  # initial positivity weight; doubled with the endpoint weight
_FD_STEP = 1e-6  # relative central-difference step
_DELTA = 1e-8  # smoothing width of the norms in the cost
_DEGENERACY_TOL = 1e-8  # eigenvalue gaps treated as degenerate in the projection


def _smooth(x: np.ndarray) -> np.ndarray:
    return np.sqrt(x * x + _DELTA * _DELTA) - _DELTA


class _Rollout(NamedTuple):
    """States k..N, projected controls k..N-1 and unweighted objective terms."""

    states: np.ndarray
    us: np.ndarray
    cost: np.ndarray  # smoothed sum_j (||X_j|| + epsilon ||u_j||) dt over steps k..N-1
    neg: np.ndarray  # sum of squared negative lowest eigenvalues of states k+1..N
    end: np.ndarray  # endpoint residual ||rho_N - rho1||_F


class _Engine:
    """Objective evaluation and finite-difference gradient for the solver."""

    def __init__(self, rho0, rho1, epsilon, N):
        self.rho0 = rho0
        self.rho1 = rho1
        self.eps = epsilon
        self.N = N
        self.n = rho0.shape[0]
        self.dt = 1.0 / N
        self.w_end = _W_END
        self.w_pos = _W_POS
        self.SX = skew_basis(self.n)
        self.SU = herm_basis(self.n)

    def rollout(self, k, rho, Xk, uk_raw, Xs, u_raws):
        """Propagate a batch of paths from the state rho at step k to step N.

        Step k applies the batched controls ``Xk``, ``uk_raw`` (B, n, n);
        the later steps apply the shared ``Xs[j]``, ``u_raws[j]``.  Terms
        before step k are left out: they are common to the whole batch.
        """
        N, n, dt = self.N, self.n, self.dt
        B = len(Xk)
        X = np.concatenate([Xk, Xs[k + 1 :]])
        props = expm_skew(X * dt)
        states = np.empty((B, N - k + 1, n, n), dtype=complex)
        us = np.empty((B, N - k, n, n), dtype=complex)
        states[:, 0] = rho
        neg = 0.0
        w, V = np.linalg.eigh(rho)
        for i, (E, u_raw) in enumerate(zip([props[:B], *props[B:]], [uk_raw, *u_raws[k + 1 :]])):
            us[:, i] = project_commutant_eig(w, V, u_raw, _DEGENERACY_TOL)
            rho = hermitian_part(E @ (rho + us[:, i] * dt) @ dagger(E))
            states[:, i + 1] = rho
            w, V = np.linalg.eigh(rho)
            neg = neg + np.minimum(w[:, 0], 0.0) ** 2
        xcost = _smooth(np.linalg.norm(X, axis=(1, 2)))
        ucost = self.eps * _smooth(np.linalg.norm(us, axis=(2, 3)))
        return _Rollout(
            states, us, (xcost[:B] + xcost[B:].sum() + ucost.sum(axis=1)) * dt, neg,
            np.linalg.norm(rho - self.rho1, axis=(1, 2)),
        )

    def simulate(self, Xs, u_raws):
        """The whole path, a rollout of one from step 0.  Its terms are
        unweighted, so continuation re-weights them without simulating again."""
        r = self.rollout(0, self.rho0, Xs[:1], u_raws[:1], Xs, u_raws)
        return _Rollout(*(a[0] for a in r))

    def objective(self, r):
        """Smoothed cost plus the weighted penalties, per rollout member."""
        return r.cost + self.w_pos * r.neg + self.w_end * r.end**2

    def gradient(self, Xs, u_raws, states):
        """Central finite differences of the objective: one rollout per step
        over its 4n^2 perturbed controls X_k +- h_i SX_i and u_k +- h_i SU_i."""
        hX = _FD_STEP * np.maximum(1.0, np.abs(coords(Xs, self.SX)))
        hU = _FD_STEP * np.maximum(1.0, np.abs(coords(u_raws, self.SU)))
        gX, gU = np.empty_like(hX), np.empty_like(hU)
        for k in range(self.N):
            dX = hX[k, :, None, None] * self.SX
            dU = hU[k, :, None, None] * self.SU
            X, u = np.broadcast_to(Xs[k], dX.shape), np.broadcast_to(u_raws[k], dU.shape)
            r = self.rollout(k, states[k], np.concatenate([X + dX, X - dX, X, X]),
                             np.concatenate([u, u, u + dU, u - dU]), Xs, u_raws)
            phi = self.objective(r).reshape(4, -1)
            gX[k] = (phi[0] - phi[1]) / (2 * hX[k])
            gU[k] = (phi[2] - phi[3]) / (2 * hU[k])
        return gX, gU


def solve_discrete_path(
    rho0: np.ndarray,
    rho1: np.ndarray,
    epsilon: float,
    steps: int = 50,
    tol_end: float = 1e-4,
    max_rounds: int = 12,
    max_iters: int = 8,
    max_enum: int | None = None,
) -> DiscretePath:
    """Minimize the discretized rotation-plus-scaling cost between endpoints.

    Initialization takes the constant-control solution and conjugates its
    drift along the path (X_k = X, u_raw_k = e^{X t_k} Z e^{-X t_k}), which
    reproduces the closed-form path exactly in the discrete dynamics; the
    descent can then only improve on it.  Continuation doubles the endpoint
    and positivity weights until the endpoint residual meets ``tol_end`` or
    ``max_rounds`` is exhausted (the best path is returned flagged
    non-converged in that case).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    rho1 = np.asarray(rho1, dtype=complex)
    if steps < 2:
        raise ValueError("need at least 2 steps")
    if max_rounds < 1:
        raise ValueError("max_rounds must be positive")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    N = int(steps)

    base = solve_geodesic(rho0, rho1, epsilon, max_enum=max_enum)
    Xs = np.repeat(base.X[None], N, axis=0)
    U = expm_skew_times(base.X, np.arange(N) / N)
    u_raws = hermitian_part(U @ base.Z @ dagger(U))

    eng = _Engine(rho0, rho1, epsilon, N)
    sim = eng.simulate(Xs, u_raws)
    traces: list[tuple[float, ...]] = []
    alpha = 1.0
    for rounds_used in range(1, max_rounds + 1):
        phi = float(eng.objective(sim))
        trace = [phi]
        for _ in range(max_iters):
            gX, gU = eng.gradient(Xs, u_raws, sim.states)
            gnorm2 = float((gX**2).sum() + (gU**2).sum())
            if gnorm2 < 1e-24:
                break
            accepted = False
            alpha = min(alpha * 4.0, 1e3 / (1.0 + np.sqrt(gnorm2)))
            while alpha > 1e-14:
                Xs_t = Xs - alpha * np.tensordot(gX, eng.SX, 1)
                u_t = u_raws - alpha * np.tensordot(gU, eng.SU, 1)
                sim_t = eng.simulate(Xs_t, u_t)
                phi_t = float(eng.objective(sim_t))
                if phi_t < phi - 1e-4 * alpha * gnorm2:
                    Xs, u_raws, sim = Xs_t, u_t, sim_t
                    rel = (phi - phi_t) / max(1.0, abs(phi))
                    phi = phi_t
                    trace.append(phi)
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted or rel < 1e-8:
                break
        traces.append(tuple(trace))
        if sim.end <= tol_end:
            break
        eng.w_end *= 2.0
        eng.w_pos *= 2.0

    path = DiscretePath(
        N=N,
        dt=1.0 / N,
        states=sim.states,
        Xs=Xs.copy(),
        us=sim.us,
        cost=0.0,
        endpoint_residual=float(sim.end),
        converged=bool(sim.end <= tol_end),
        rounds=rounds_used,
        objective_trace=tuple(traces),
    )
    return replace(path, cost=discrete_cost(path, epsilon))
