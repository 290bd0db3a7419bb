"""
Discretizing the flow: per-step controls and descent on the total cost
======================================================================

The constant-control solution (one X, one Z for the whole path) is a
feasible starting point for a finer question: if every time step may use its
own rotation generator X_k and commuting drift u_k, how much cost can be
shaved off?

The discrete dynamics are an exponential-Euler step

    rho_{k+1} = exp(X_k dt) (rho_k + u_k dt) exp(-X_k dt),

where u_k commutes with rho_k so the drift never tilts the eigenframe.  The
solver keeps each state as rho_k = V_k diag(w_k) V_k* and steers the
eigenvalue rates d_k directly, u_k = V_k diag(d_k) V_k*, so the step is
exact: the frame turns, V_{k+1} = exp(X_k dt) V_k, and the eigenvalues
move, w_{k+1} = w_k + d_k dt.  It seeds all steps from the constant-control
answer, then minimizes the cost plus endpoint and positivity penalties by
L-BFGS-B on an exact gradient (one batched adjoint over all steps), with an
endpoint continuation: the penalty weight doubles each round until the
terminal residual is within tolerance.
"""

import numpy as np

from denflow import discrete_cost, solve_discrete_path, solve_geodesic

rho0 = np.diag([1.0, 0.0]).astype(complex)
rho1 = np.diag([0.0, 1.0]).astype(complex)
epsilon = 1.0

# ----------------------------------------------------------------------------
# Constant-control reference: one (X, Z) pair for the whole unit interval.
# ----------------------------------------------------------------------------
ref = solve_geodesic(rho0, rho1, epsilon)
print("constant-control cost:", ref.cost_total)

# ----------------------------------------------------------------------------
# Per-step controls over N = 50 steps.  The seed already hits the endpoint
# exactly, so every later accepted move only lowers the running objective.
# ----------------------------------------------------------------------------
dp = solve_discrete_path(rho0, rho1, epsilon, steps=50)
print("discretized path:")
print("  steps             =", dp.N)
print("  cost              =", dp.cost)
print("  endpoint residual =", dp.endpoint_residual)
print("  converged         =", dp.converged, " after", dp.rounds, "round(s)")

# The objective trace of the final continuation round is non-increasing.
trace = dp.objective_trace[-1]
print("  final-round objective trace:")
for i, value in enumerate(trace):
    print("    iter %2d  objective = %.9f" % (i, value))
drops = np.diff(np.array(trace))
print("  monotone non-increasing:", bool(np.all(drops <= 1e-12)))

# ----------------------------------------------------------------------------
# Bookkeeping checks: the stored cost is exactly the Riemann sum of the
# per-step control norms, and the state sequence starts and ends on the data.
# ----------------------------------------------------------------------------
print("\nchecks:")
print("  cost == sum_k (||X_k|| + eps ||u_k||) dt :", np.isclose(dp.cost, discrete_cost(dp, epsilon)))
print("  ||states[0]  - rho0|| =", np.linalg.norm(dp.states[0] - rho0))
print("  ||states[-1] - rho1|| =", np.linalg.norm(dp.states[-1] - rho1))
print("  cost <= constant-control cost + 1e-2 :", dp.cost <= ref.cost_total + 1e-2)

# Every drift u_k commutes with its state: both are diagonal in the frame V_k.
comms = [
    np.linalg.norm(u @ s - s @ u)
    for u, s in zip(dp.us, dp.states[:-1])
]
print("  max ||[u_k, rho_k]|| =", max(comms))
