"""Direct discretization of the time-varying interpolation problem.

States evolve by exponential-Euler steps rho_{k+1} = e^{X_k dt}(rho_k +
u_k dt)e^{-X_k dt}, which preserve the Hermitian structure and the trace
exactly; the commutant constraint on u_k is enforced by projection at the
current state, and the endpoint and positivity constraints by penalties
with continuation.  Gradients of the smoothed objective are central finite
differences on the raw per-step controls.

The descent engine batches the finite-difference trajectories: perturbing
a control at step k leaves states 0..k untouched, so only the suffix is
re-propagated, for all of step k's parameters at once.  The returned path
is the engine's own final trajectory: its states, projected controls and
endpoint residual come from the same simulation that decides convergence,
and step() applied to the stored controls reproduces the stored states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geodesic import solve_geodesic
from .linalg import (
    dagger,
    expm_skew,
    expm_skew_times,
    frob_norm,
    herm_to_vec,
    hermitian_part,
    skew_to_vec,
    vec_to_herm,
    vec_to_skew,
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


# --- descent engine (batched over finite-difference trajectories) ---


def _smooth(x: np.ndarray, delta: float) -> np.ndarray:
    return np.sqrt(x * x + delta * delta) - delta


class _Engine:
    """Objective evaluation and finite-difference gradient for the solver."""

    def __init__(self, rho0, rho1, epsilon, N, w_end, w_pos, delta, degeneracy_tol):
        self.rho0 = rho0
        self.rho1 = rho1
        self.eps = epsilon
        self.N = N
        self.n = rho0.shape[0]
        self.dt = 1.0 / N
        self.w_end = w_end
        self.w_pos = w_pos
        self.delta = delta
        self.dtol = degeneracy_tol

    def simulate(self, Xs, u_raws):
        """Propagate the whole path; returns everything the gradient reuses.

        Penalties are stored unweighted, so one trajectory stays valid
        while continuation raises the weights.
        """
        N, n = self.N, self.n
        states = np.empty((N + 1, n, n), dtype=complex)
        u_useds = np.empty((N, n, n), dtype=complex)
        states[0] = self.rho0
        props = expm_skew(Xs * self.dt)
        vals = np.empty((N + 1, n))
        vecs = np.empty((N + 1, n, n), dtype=complex)
        vals[0], vecs[0] = np.linalg.eigh(self.rho0)
        for k in range(N):
            u = project_commutant_eig(vals[k], vecs[k], u_raws[k], self.dtol)
            u_useds[k] = u
            states[k + 1] = hermitian_part(props[k] @ (states[k] + u * self.dt) @ dagger(props[k]))
            vals[k + 1], vecs[k + 1] = np.linalg.eigh(states[k + 1])
        xnorm = np.linalg.norm(Xs, axis=(1, 2))
        unorm = np.linalg.norm(u_useds, axis=(1, 2))
        cost_terms = (_smooth(xnorm, self.delta) + self.eps * _smooth(unorm, self.delta)) * self.dt
        residual = frob_norm(states[N] - self.rho1)
        return {
            "states": states, "vals": vals, "vecs": vecs, "props": props,
            "u_useds": u_useds, "cost_terms": cost_terms,
            "negs": np.minimum(vals[1:, 0], 0.0) ** 2,  # states 1..N
            "residual": residual,
        }

    def objective(self, sim):
        return float(
            sim["cost_terms"].sum()
            + self.w_pos * sim["negs"].sum()
            + self.w_end * sim["residual"] ** 2
        )

    def gradient(self, Xs, u_raws, sim, fd_step):
        """Central finite differences, batched over each step's parameters."""
        N, n, dt = self.N, self.n, self.dt
        m = n * n
        cost_prefix = np.concatenate([[0.0], np.cumsum(sim["cost_terms"])])
        pen_prefix = self.w_pos * np.concatenate([[0.0], np.cumsum(sim["negs"])])
        gX = np.empty((N, m))
        gU = np.empty((N, m))
        for k in range(N):
            xv = skew_to_vec(Xs[k])
            uv = herm_to_vec(u_raws[k])
            hx = fd_step * np.maximum(1.0, np.abs(xv))
            hu = fd_step * np.maximum(1.0, np.abs(uv))
            Xcand = []
            for i in range(m):
                for s in (+1.0, -1.0):
                    v = xv.copy()
                    v[i] += s * hx[i]
                    Xcand.append(vec_to_skew(v, n))
            Ucand = []
            for i in range(m):
                for s in (+1.0, -1.0):
                    v = uv.copy()
                    v[i] += s * hu[i]
                    Ucand.append(vec_to_herm(v, n))
            Xcand = np.array(Xcand)
            Ucand = np.array(Ucand)
            B = 4 * m

            # step k under perturbed controls (shared state rho_k)
            uX = np.broadcast_to(sim["u_useds"][k], (2 * m, n, n))  # X-perturbs keep u
            uU = project_commutant_eig(sim["vals"][k], sim["vecs"][k], Ucand, self.dtol)
            u_all = np.concatenate([uX, uU])
            props_all = np.concatenate(
                [expm_skew(Xcand * dt), np.broadcast_to(sim["props"][k], (2 * m, n, n))]
            )
            inner = sim["states"][k] + u_all * dt
            states_b = hermitian_part(props_all @ inner @ dagger(props_all))

            xn = np.concatenate(
                [np.linalg.norm(Xcand, axis=(1, 2)),
                 np.full(2 * m, np.linalg.norm(Xs[k]))]
            )
            un = np.linalg.norm(u_all, axis=(1, 2))
            suffix = (_smooth(xn, self.delta) + self.eps * _smooth(un, self.delta)) * dt

            # propagate the batch through the remaining steps
            for j in range(k + 1, N):
                w, V = np.linalg.eigh(states_b)
                suffix += self.w_pos * np.minimum(w[:, 0], 0.0) ** 2
                uj = project_commutant_eig(w, V, u_raws[j], self.dtol)
                ujn = np.linalg.norm(uj, axis=(1, 2))
                suffix += (_smooth(np.full(B, np.linalg.norm(Xs[j])), self.delta)
                           + self.eps * _smooth(ujn, self.delta)) * dt
                E = sim["props"][j]
                states_b = hermitian_part(E @ (states_b + uj * dt) @ dagger(E))
            w = np.linalg.eigvalsh(states_b)
            suffix += self.w_pos * np.minimum(w[:, 0], 0.0) ** 2
            diff = states_b - self.rho1[None]
            suffix += self.w_end * np.linalg.norm(diff, axis=(1, 2)) ** 2

            phi = cost_prefix[k] + pen_prefix[k] + suffix
            gX[k] = (phi[0 : 2 * m : 2] - phi[1 : 2 * m : 2]) / (2 * hx)
            gU[k] = (phi[2 * m :: 2] - phi[2 * m + 1 :: 2]) / (2 * hu)
        return gX, gU


def solve_discrete_path(
    rho0: np.ndarray,
    rho1: np.ndarray,
    epsilon: float,
    steps: int = 50,
    tol_end: float = 1e-4,
    max_rounds: int = 12,
    max_iters: int = 8,
    w_end: float = 1e4,
    w_pos: float = 1e4,
    fd_step: float = 1e-6,
    delta: float = 1e-8,
    degeneracy_tol: float = 1e-8,
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
    N = int(steps)
    n = rho0.shape[0]

    base = solve_geodesic(rho0, rho1, epsilon, max_enum=max_enum)
    Xs = np.broadcast_to(base.X, (N, n, n)).copy()
    U = expm_skew_times(base.X, np.arange(N) / N)
    u_raws = hermitian_part(U @ base.Z @ dagger(U))

    eng = _Engine(rho0, rho1, epsilon, N, w_end, w_pos, delta, degeneracy_tol)
    sim = eng.simulate(Xs, u_raws)
    traces: list[tuple[float, ...]] = []
    rounds_used = 0
    alpha = 1.0
    for rnd in range(max_rounds):
        rounds_used = rnd + 1
        phi = eng.objective(sim)
        trace = [phi]
        for _ in range(max_iters):
            gX, gU = eng.gradient(Xs, u_raws, sim, fd_step)
            gnorm2 = float((gX**2).sum() + (gU**2).sum())
            if gnorm2 < 1e-24:
                break
            accepted = False
            alpha = min(alpha * 4.0, 1e3 / (1.0 + np.sqrt(gnorm2)))
            while alpha > 1e-14:
                Xs_t = np.stack(
                    [vec_to_skew(skew_to_vec(Xs[k]) - alpha * gX[k], n) for k in range(N)]
                )
                u_t = np.stack(
                    [vec_to_herm(herm_to_vec(u_raws[k]) - alpha * gU[k], n) for k in range(N)]
                )
                sim_t = eng.simulate(Xs_t, u_t)
                phi_t = eng.objective(sim_t)
                if phi_t < phi - 1e-4 * alpha * gnorm2:
                    Xs, u_raws, sim = Xs_t, u_t, sim_t
                    rel = (phi - phi_t) / max(1.0, abs(phi))
                    phi = phi_t
                    trace.append(phi)
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break
            if rel < 1e-8:
                break
        traces.append(tuple(trace))
        if sim["residual"] <= tol_end:
            break
        eng.w_end *= 2.0
        eng.w_pos *= 2.0

    path = DiscretePath(
        N=N,
        dt=1.0 / N,
        states=sim["states"],
        Xs=Xs.copy(),
        us=sim["u_useds"],
        cost=0.0,
        endpoint_residual=sim["residual"],
        converged=bool(sim["residual"] <= tol_end),
        rounds=rounds_used,
        objective_trace=tuple(traces),
    )
    return replace(path, cost=discrete_cost(path, epsilon))
