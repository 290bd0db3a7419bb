"""
Fitting a rotating, drifting flow to noisy matrix snapshots
===========================================================

Given Hermitian samples rho_1, ..., rho_N observed at times t_1 < ... < t_N,
we fit the structured model

    rho(t) = exp(X t) V diag(p + z t) V* exp(-X t),

i.e. a fixed eigenframe V whose eigenvalues drift linearly (rates z, trace
preserved via sum z = 0) while the whole frame rotates rigidly under a
skew-Hermitian generator X.  Positivity is kept on the whole window by the
endpoint constraints p >= 0 and p + z >= 0.

The script synthesizes noisy data from a known ground truth, runs the
multi-start L-BFGS-B fit, and compares the recovered generator and
initial state against the truth.
"""

import numpy as np

from denflow import (
    MatrixSample,
    model_path,
    residual,
    solve_regularization,
    synth_noisy_path,
)

# ----------------------------------------------------------------------------
# Ground truth: a 2x2 state with eigenvalues (1.0, 0.1) rotating at rate 1.6
# while the eigenvalues drift toward each other.
# ----------------------------------------------------------------------------
rho0 = np.diag([1.0, 0.1]).astype(complex)
X_true = np.array([[0.0, -1.6], [1.6, 0.0]], dtype=complex)
z_true = np.array([-0.05, 0.05])  # rates for the ascending eigenvalues (0.1, 1.0)
times = np.arange(1, 21) * 0.05  # 20 snapshots on (0, 1]

samples = synth_noisy_path(rho0, X_true, z_true, times, noise_amp=0.05, seed=7)
print("synthesized", len(samples), "noisy samples, t in [%.2f, %.2f]" % (times[0], times[-1]))

# ----------------------------------------------------------------------------
# Fit.  Each start is one L-BFGS-B solve on the exact gradient, moving the
# frame V, the eigenvalue parameters (p, z) and the generator X together;
# positivity and sum(z) = 0 hold by the choice of coordinates.  A start ends
# once an iteration stops paying; the lowest objective wins.
# ----------------------------------------------------------------------------
model = solve_regularization(samples, seeds=5)
print("\nfit result:")
print("  objective =", model.objective)
print("  stalled   =", model.stalled)

rho0_hat = model.rho0()
print("  ||rho0_hat - rho0|| =", np.linalg.norm(rho0_hat - rho0))
print("  ||X_hat   - X||     =", np.linalg.norm(model.X - X_true))
print("  z_hat               =", np.round(np.sort(model.z), 6).tolist())
print("  p_hat               =", np.round(np.sort(model.p), 6).tolist())

# ----------------------------------------------------------------------------
# Sanity scale: the fit should not beat the noise floor by much, nor lose to
# the ground-truth model.  Build the truth in model form and compare misfits.
# Note the pairing: synth_noisy_path assigns z entries to the *ascending*
# eigenvalues of rho0, so with V = I and p = (1.0, 0.1) the drift rates must
# be flipped to (+0.05, -0.05).
# ----------------------------------------------------------------------------
from denflow import RegularizedModel

truth = RegularizedModel(
    V=np.eye(2, dtype=complex),
    p=np.array([1.0, 0.1]),
    z=np.array([0.05, -0.05]),
    X=X_true,
    objective=0.0,
)
truth_misfit = residual(truth, samples)
print("\nmisfit of the ground-truth model on the noisy data:", truth_misfit)
print("fit objective / truth misfit:", model.objective / truth_misfit)

# ----------------------------------------------------------------------------
# The fitted flow evaluated on a fine grid stays positive semidefinite.
# ----------------------------------------------------------------------------
grid = np.linspace(times[0], times[-1], 101)
flow = model_path(model, grid)
min_eig = min(np.linalg.eigvalsh(state).min() for state in flow)
print("\nmin eigenvalue of the fitted flow over a 101-point grid:", min_eig)

# On noise-free data the same pipeline recovers the truth to machine-level
# accuracy -- the initializer alone is already essentially exact.
clean = [
    MatrixSample(t=s.t, value=v)
    for s, v in zip(samples, model_path(truth, times))
]
clean_model = solve_regularization(clean, seeds=2)
print("\nnoise-free rerun:")
print("  objective           =", clean_model.objective)
print("  ||rho0_hat - rho0|| =", np.linalg.norm(clean_model.rho0() - rho0))
print("  ||X_hat   - X||     =", np.linalg.norm(clean_model.X - X_true))
