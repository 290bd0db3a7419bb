"""Direct discretization of the time-varying interpolation problem.

States evolve by exponential-Euler steps rho_{k+1} = e^{X_k dt}(rho_k +
u_k dt)e^{-X_k dt}, which preserve the Hermitian structure and the trace
exactly; the commutant constraint on u_k is enforced by projection at the
current state, and the endpoint and positivity constraints by one penalty
weight that continuation doubles each round.  Each round is one L-BFGS-B
solve (``scipy.optimize.minimize``) over the ``skew_basis``/``herm_basis``
coordinates of the per-step controls.

The gradient of the smoothed objective is one reverse sweep over the
rollout, reusing the eigenpairs and propagators it kept.  It carries
lam = dJ/d rho_{k+1} back through each propagator, through the commutant
projection (self-adjoint in the controls, and dependent on rho_k through
its eigenvectors), and picks up the positivity penalty at every state.  The
sweep only stores each lam; one ``expm_skew_adjoint`` call over the whole
stack then turns them into the X gradients, on the eigenpairs of X_k dt
that built the propagators, so no generator is decomposed twice.  The
returned path is the engine's own final trajectory, the one that decides
convergence.
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
    coords,
    commutator,
    dagger,
    degeneracy_groups,
    eig_skew,
    exp_i,
    expm_skew,
    expm_skew_adjoint,
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


# --- descent engine (one simulation gives the objective, one reverse sweep its gradient) ---

_WEIGHT = 1e4  # initial penalty weight; continuation doubles it each round
_REL_TOL = 1e-8  # an iteration that lowers the objective by less than this, relatively, ends a round
_DELTA = 1e-8  # smoothing width of the norms in the cost


def _smooth(x: np.ndarray) -> np.ndarray:
    return np.sqrt(x * x + _DELTA * _DELTA) - _DELTA


def _smooth_grad(A: np.ndarray) -> np.ndarray:
    """Gradient of _smooth(||A||_F) in A, matrixwise over a stack."""
    return A / np.sqrt(np.linalg.norm(A, axis=(-2, -1), keepdims=True) ** 2 + _DELTA * _DELTA)


class _Path(NamedTuple):
    """One rollout: states 0..N, projected controls 0..N-1 and unweighted objective terms."""

    states: np.ndarray
    w: np.ndarray  # (N+1, n) ascending eigenvalues of each state
    V: np.ndarray  # (N+1, n, n) their eigenvectors
    theta: np.ndarray  # (N, n) eigenvalues of -i X_k dt
    W: np.ndarray  # (N, n, n) their eigenvectors
    props: np.ndarray  # (N, n, n) e^{X_k dt}, from theta and W
    us: np.ndarray
    cost: float  # smoothed sum_k (||X_k|| + epsilon ||u_k||) dt
    neg: float  # sum of squared negative lowest eigenvalues of states 1..N
    end: float  # endpoint residual ||rho_N - rho1||_F


class _Engine:
    """Objective evaluation and reverse-sweep gradient for the solver."""

    def __init__(self, rho0, rho1, epsilon, N):
        self.rho0 = rho0
        self.rho1 = rho1
        self.eps = epsilon
        self.N = N
        self.n = rho0.shape[0]
        self.dt = 1.0 / N
        self.w = _WEIGHT
        self.SX = skew_basis(self.n)
        self.SU = herm_basis(self.n)

    def simulate(self, Xs, u_raws):
        """The whole path from rho0.  Its terms are unweighted, so
        continuation re-weights them without simulating again."""
        N, n, dt = self.N, self.n, self.dt
        states = np.empty((N + 1, n, n), dtype=complex)
        w = np.empty((N + 1, n))
        V = np.empty((N + 1, n, n), dtype=complex)
        us = np.empty((N, n, n), dtype=complex)
        theta, W = eig_skew(Xs * dt)
        props = exp_i(theta, W)
        states[0] = rho = self.rho0
        w[0], V[0] = np.linalg.eigh(rho)
        for k, E in enumerate(props):
            us[k] = project_commutant_eig(w[k], V[k], u_raws[k])
            states[k + 1] = rho = hermitian_part(E @ (rho + us[k] * dt) @ dagger(E))
            w[k + 1], V[k + 1] = np.linalg.eigh(rho)
        xcost = _smooth(np.linalg.norm(Xs, axis=(1, 2)))
        ucost = self.eps * _smooth(np.linalg.norm(us, axis=(1, 2)))
        return _Path(states, w, V, theta, W, props, us, float((xcost + ucost).sum() * dt),
                     float((np.minimum(w[1:, 0], 0.0) ** 2).sum()),
                     float(np.linalg.norm(rho - self.rho1)))

    def objective(self, r):
        """Smoothed cost plus the weighted penalties."""
        return r.cost + self.w * (r.neg + r.end**2)

    def gradient(self, Xs, u_raws, sim):
        """Derivatives of the objective along the control bases, by one
        reverse sweep over their rollout ``sim``: lam = dJ/d rho_{k+1} goes back
        through rho_{k+1} = E_k M_k E_k*, E_k = e^{X_k dt}, M_k = rho_k +
        P_{rho_k}(u_raw_k) dt, to u_raw_k through the self-adjoint projection
        P, and to rho_k through M_k, the eigenvectors P uses and the
        positivity term.  The sweep keeps every lam; after it, one batched
        adjoint on the eigenpairs ``sim`` kept for the E_k gives every X_k
        its gradient, with no eigendecomposition in the loop."""
        N, dt = self.N, self.dt
        states, w, V, us = sim.states, sim.w, sim.V, sim.us
        # P_rho(u) = V (B o V* u V) V* with the block mask B; a move of rho turns V
        # by the skew C = F o (V* drho V), F_jk = 1/(w_k - w_j) across blocks
        labels = degeneracy_groups(w)
        B = labels[:, :, None] == labels[:, None, :]
        F = np.zeros(B.shape)
        np.divide(1.0, w[:, None, :] - w[:, :, None], out=F, where=~B)
        A = dagger(V[:-1]) @ u_raws @ V[:-1]
        # gradient of self.w min(w_0, 0)^2 at each state, v_0 its lowest eigenvector
        v0 = V[:, :, :1]
        pos = 2.0 * self.w * np.minimum(w[:, 0], 0.0)[:, None, None] * (v0 @ dagger(v0))
        gX = dt * _smooth_grad(Xs)
        g = dt * self.eps * _smooth_grad(us)  # dJ/du_k, completed in the sweep
        lam = 2.0 * self.w * (states[N] - self.rho1) + pos[N]
        lams = np.empty_like(states[1:])  # lams[k] = dJ/drho_{k+1}
        for k in range(N - 1, -1, -1):
            E, Vk = sim.props[k], V[k]
            lams[k] = lam
            lam = dagger(E) @ lam @ E  # dJ/dM_k
            g[k] += dt * lam
            G = dagger(Vk) @ g[k] @ Vk
            K = commutator(G, B[k] * A[k]) + commutator(A[k], B[k] * G)
            # lam after step 0 is dJ/drho0, unused: rho0 is fixed
            lam = lam + Vk @ (F[k] * K) @ dagger(Vk) + pos[k]
        # dJ/dE_k = 2 lam_{k+1} E_k M_k; the adjoint on the forward eigenpairs
        # of X_k dt gives the gradient in X_k dt, so X_k's is dt times it
        Y = 2.0 * lams @ sim.props @ (states[:-1] + us * dt)
        gX += dt * expm_skew_adjoint(sim.theta, sim.W, [1.0], Y[:, None])
        gU = project_commutant_eig(w[:-1], V[:-1], g)
        return along(gX, self.SX), along(gU, self.SU)


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

    Initialization takes the constant-control solution and conjugates its
    drift along the path (X_k = X, u_raw_k = e^{X t_k} Z e^{-X t_k}), which
    reproduces the closed-form path exactly in the discrete dynamics; the
    descent can then only improve on it.  One penalty weight multiplies the
    squared endpoint residual plus the squared negative eigenvalues of the
    states; continuation doubles it until the residual meets ``tol_end`` or
    ``max_rounds`` is exhausted (the best path is returned flagged
    non-converged in that case).  Each round is one L-BFGS-B solve of at
    most ``max_iters`` iterations, which stops early once an iteration
    lowers the objective by less than 1e-8 relative to max(1, objective).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    rho1 = np.asarray(rho1, dtype=complex)
    N = check_count("steps", steps, 2)
    if not tol_end >= 0.0:
        raise ValueError(f"tol_end must be nonnegative, got {tol_end}")
    max_rounds = check_count("max_rounds", max_rounds, 1)
    max_iters = check_count("max_iters", max_iters, 0)

    base = solve_geodesic(rho0, rho1, epsilon)
    Xs = np.repeat(base.X[None], N, axis=0)
    U = expm_skew_times(base.X, np.arange(N) / N)
    u_raws = hermitian_part(U @ base.Z @ dagger(U))

    eng = _Engine(rho0, rho1, epsilon, N)

    def controls(x):
        """(Xs, u_raws) from x, their coordinates in the two bases, stacked."""
        cX, cU = x.reshape(2, N, -1)
        return np.tensordot(cX, eng.SX, 1), np.tensordot(cU, eng.SU, 1)

    def fun(x):
        Xs, u_raws = controls(x)
        sim = eng.simulate(Xs, u_raws)
        return eng.objective(sim), np.ravel(eng.gradient(Xs, u_raws, sim))

    x = np.ravel([coords(Xs, eng.SX), coords(u_raws, eng.SU)])
    sim = eng.simulate(*controls(x))
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
            sim = eng.simulate(*controls(x))
        traces.append(tuple(trace))
        if sim.end <= tol_end:
            break
        eng.w *= 2.0

    path = DiscretePath(
        N=N,
        dt=1.0 / N,
        states=sim.states,
        Xs=controls(x)[0],
        us=sim.us,
        cost=0.0,
        endpoint_residual=sim.end,
        converged=bool(sim.end <= tol_end),
        rounds=rounds_used,
        objective_trace=tuple(traces),
    )
    return replace(path, cost=discrete_cost(path, epsilon))
