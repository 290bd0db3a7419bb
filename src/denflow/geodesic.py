"""Constant-control interpolation between PSD Hermitian endpoints.

Finds a constant skew-Hermitian rotation generator X and a commuting drift
Z ([rho0, Z] = 0, trace Z = 0) with e^X (rho0 + Z) e^{-X} = rho1, minimizing
||X||_F + epsilon ||Z||_F.  The path rho(t) = e^{Xt}(rho0 + Zt)e^{-Xt} then
rotates eigenvectors at a constant rate while the eigenvalues drift
linearly, and stays PSD because each eigenvalue is a convex combination of
endpoint eigenvalues.

Because Z commutes with rho0, feasibility forces the spectrum of rho0 + Z
to be a permutation pi of the spectrum of rho1.  The search therefore
splits into a finite matching problem (which eigenvalue goes where, fixing
z_i = mu_{pi(i)} - lambda_i) and, per matching, a smooth gauge problem:
among all unitaries Theta commuting with the matched spectrum, minimize the
norm of the principal logarithm of U1 Theta U0'*.  Z is diagonal in the
computed eigenbasis U0 of rho0, which the solution carries for the path
solver; at a repeated eigenvalue of rho0, minimality is within that frame.

Matchings are searched best-first.  The gauge cost of a matching is
bounded below in closed form through the distance from the aligned frame
to the identity, minimized over gauges (nuclear norms of the diagonal
blocks of U1* U0'); adding epsilon ||z|| bounds its total cost.
Matchings are drawn lazily in ascending-bound order, one per class of
matchings that differ only inside a degenerate group of rho1's spectrum
(they share bound and cost), and gauge-searched in turn until a bound
exceeds the best cost found, so no skipped matching could have won.

The gauge search, ``minimal_rotation``, starts from ``linalg.polar_gauge``
or its best flip of one or two singular-pair signs, sweeps once along
one-parameter subgroups e^{aS} of the gauge group (Absil, Mahony &
Sepulchre 2008, ch. 4) to pick the basin, then takes Newton steps to a
stationary point.  Each
generator S of ``linalg.skew_basis(n, labels)`` is a column phase i E_kk
or, inside a degenerate group, a rotation E_kl - E_lk or i(E_kl + E_lk).
All of them satisfy S^3 = -S, so e^{aS} = I + sin(a) S + (1 - cos a) S^2
(Rodrigues), and the Hermitian part of U1 Theta e^{aS} U0'*, whose
eigenvalues are the cosines of the rotation's phases, is a pencil H0 +
sin(a) H1 + (1 - cos a) H2 fixed per coordinate.  Scoring a step then
takes two scaled adds and one ``eigvalsh``, and ``golden`` refines it
only coarsely.  The gradient of 1/2 ||log Q||_F^2 on the gauge group
(Absil et al. 2008, sec. 3.6) has the coordinates Re<S, L>, L the log
of Q = U1 Theta U0'* in U0''s basis, and their Jacobian is the Frechet
derivative of the log in the Schur basis that L is read from
(Daleckii-Krein; Higham 2008, Functions of Matrices, sec. 3.2 and ch.
11).  Riemannian Newton (Absil et al. 2008, ch. 6) on it converges
quadratically.  Where the curvature is not positive, the step is the
fixed point Theta <- Theta e^{-C}, C the part of L inside the degenerate
groups: the horizontal-lift iteration for Riemannian logarithms on
Stiefel and flag manifolds (Zimmermann 2017, SIAM J. Matrix Anal. Appl.
38(2)).  It returns X, the log read from its last step's Schur form,
whose norm is the matching's rotation cost; the winning matching's X is
the solution's, with no second decomposition.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import golden, linear_sum_assignment

from .linalg import (
    InfeasibleError,
    along,
    dagger,
    degeneracy_groups,
    eig_hermitian,
    eig_unitary,
    expm_skew,
    expm_skew_times,
    frob_norm,
    group_slices,
    hermitian_part,
    is_hermitian,
    polar_gauge,
    skew_basis,
    skew_part,
)

_TIE = 1e-12
# a matching is searched unless its lower bound exceeds the incumbent cost by
# more than this.  The gauge cost is the norm of a Schur log, so only
# rounding separates it from the Jensen-arcsin bound of _matchings: the
# closest approach measured on the benchmark inputs was 2.0e-15 below it
_BOUND_SLACK = 1e-12


class CostBreakdown(NamedTuple):
    rotation: float
    scaling: float
    total: float


def path_cost(X: np.ndarray, Z: np.ndarray, epsilon: float) -> CostBreakdown:
    """Objective split: (||X||_F, ||Z||_F, ||X||_F + epsilon*||Z||_F)."""
    rot = frob_norm(X)
    scale = frob_norm(Z)
    return CostBreakdown(rot, scale, rot + epsilon * scale)


@dataclass(frozen=True)
class GeodesicSolution:
    """Constant controls joining two endpoints, with the matching used and
    the eigen-coordinates of rho0 they were solved in: ``frame`` U0 (columns
    the eigenvectors of rho0), ``spectrum`` lambda (ascending) and ``rates``
    z = mu[permutation] - lambda, so that Z = U0 diag(z) U0*."""

    X: np.ndarray
    Z: np.ndarray
    permutation: tuple[int, ...]
    epsilon: float
    cost_rotation: float
    cost_scaling: float
    cost_total: float
    frame: np.ndarray
    spectrum: np.ndarray
    rates: np.ndarray


def _phase_norm(H: np.ndarray):
    """sqrt(sum of arccos(c)^2) over the eigenvalues c of a Hermitian H, or
    of each of a stack: ||log Q||_F when H is the Hermitian part of a
    unitary Q, whose eigenvalues are the cosines of its phases."""
    c = np.linalg.eigvalsh(H)
    # minimum/maximum rather than np.clip, which costs twice as much per call
    return np.sqrt((np.arccos(np.minimum(np.maximum(c, -1.0), 1.0)) ** 2).sum(axis=-1))


def _log_norm(Q: np.ndarray):
    """||log Q||_F for a unitary Q, or for each of a stack, via |phase| =
    arccos of the cosine eigenvalues.

    Only phase magnitudes enter the norm, so the Hermitian part of Q
    suffices; no branch bookkeeping is needed.  Absolute accuracy degrades
    to ~sqrt(eps) for phases near zero and near +-pi, where the cosine is
    near +-1 and d arccos/dc is unbounded; that only matters below any
    tolerance used here.
    """
    return _phase_norm(hermitian_part(Q))


_GRID = np.linspace(-np.pi, np.pi, 25)
# the sweep only picks the basin, so golden stops coarse (see minimal_rotation)
_GOLDEN_TOL = 1e-3
# stop on the gauge gradient's norm, and a cap on the steps; the benchmark
# inputs take a median of 2 Newton steps and at most 16 (the fixed point
# alone took a median of 10 and at most 178)
_GAUGE_TOL = 1e-10
_GAUGE_STEPS = 1000


def _pencil(P: np.ndarray, a) -> np.ndarray:
    """P[0] + sin(a) P[1] + (1 - cos a) P[2] at a step a, or at each of an
    array of steps: Theta e^{aS} for P = (Theta, Theta S, Theta S^2)."""
    return P[0] + np.multiply.outer(np.sin(a), P[1]) + np.multiply.outer(1.0 - np.cos(a), P[2])


def _gauge_jacobian(phases: np.ndarray, W: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Jac[b, a] = d g_b / d v_a at v = 0, for the gauge gradient g(v) =
    ``along``(log(Q e^V), gens), V = sum_a v_a S_a, at a unitary Q = W
    diag(e^{i phases}) W*.

    Daleckii-Krein (Higham 2008, Functions of Matrices, sec. 3.2 and ch.
    11): the derivative of the log at Q along Q V is W (Psi o W* V W) W*,
    Psi the divided differences of the log at the eigenvalues times e^{i
    phi_j}, in the half-angle form e^{i delta/2} / sinc(delta / 2 pi) with
    delta = phi_j - phi_k, which is 1 where phases coincide.  Jac is not
    symmetric inside a degenerate block.
    """
    d = phases[:, None] - phases
    psi = np.exp(0.5j * d) / np.sinc(d / (2 * np.pi))
    Sw = dagger(W) @ gens @ W
    return along(Sw, psi * Sw)


def minimal_rotation(U0p: np.ndarray, U1: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Smallest-norm X with e^X mapping the frame U0p onto U1 up to gauge:
    X = log(U1 Theta U0p*) at the gauge Theta, commuting with
    diag(spectrum), that minimizes ||log(U1 Theta U0p*)||_F.

    Columns of U0p and U1 must pair identical ``spectrum`` entries.  The
    gauge group is the one ``linalg`` decides for the spectrum: column
    phases, and full blocks on repeated entries.

    The start is the blockwise polar factor W Vh of U1* U0p, G_b = W Sigma
    Vh per block, or, if one scores lower by more than ``_TIE``, the best
    flip W diag(f) Vh of the signs of one or two singular pairs: the same
    start in every frame of a pair.  Real frames need the flips: there f(b)
    = f(-b) under conjugation, so a real gauge without an eigenphase at pi
    is a critical point.  Two flips is the smallest move that keeps a real
    frame map's determinant class.

    One coordinate sweep along the gauge generators ``skew_basis(n,
    labels)`` follows.  Per coordinate S the pencil of Herm(U1 Theta e^{aS}
    U0p*) is formed once; a grid over [-pi, pi] brackets the best step and
    ``golden`` refines it one period (2 pi) up, where its relative stop
    |x3 - x0| <= tol (|x1| + |x2|) closes within about 1e-2 rad: the sweep
    only picks the basin.  Newton's method on the gauge gradient does the
    rest (Absil, Mahony & Sepulchre 2008, ch. 6).  Each step reads the
    eigenpairs (phi, W) of K Theta, K = U0p* U1, so that L = W diag(i phi)
    W* is log(U1 Theta U0p*) in U0p's basis and g = ``along``(L, gens) is
    the gradient of 1/2 ||L||_F^2 along the generators, and solves Jac v =
    -g with Jac from ``_gauge_jacobian``: Theta <- Theta e^{sum_a v_a S_a}.
    Jac + Jac^T is the curvature along one-parameter subgroups.  Where it
    is not positive definite, Newton's step can head for a saddle or a
    maximum, so the step is the fixed point's -C, C = P(L) with P keeping
    the entries inside the degenerate groups (Zimmermann 2017): the
    gradient step.  A step that raises the cost by more than ``_TIE`` is
    halved until it does not.  Unguarded, Newton's step ended at a higher
    stationary point than the fixed point in 50 of 3420 matchings of
    seeded pairs at n = 3, 4, by up to 1.17.  The loop
    stops once ||C||_F < ``_GAUGE_TOL``, or after ``_GAUGE_STEPS`` steps.
    X is U0p L U0p* from the last step's Schur pair, the principal
    logarithm that every unitary has, so ||X||_F = ||phi|| is free of the
    arccos noise of the sweep's score.
    """
    n = U0p.shape[0]
    U0pH = U0p.conj().T
    labels = degeneracy_groups(spectrum)
    gens = skew_basis(n, labels)

    # the polar factor first, then each flip of singular pairs k <= l (one if k = l)
    k, l = np.triu_indices(n)
    r = np.arange(1, len(k) + 1)
    flips = np.ones((len(k) + 1, n))
    flips[r, k] = flips[r, l] = -1.0
    cands = polar_gauge(U1.conj().T @ U0p, labels, flips)
    costs = _log_norm(U1 @ cands @ U0pH)
    j = int(np.argmin(costs)) if costs.min() < costs[0] - _TIE else 0
    Theta, cur = cands[j], float(costs[j])

    h = _GRID[1] - _GRID[0]
    for S in gens:
        steps = np.stack([Theta, Theta @ S, Theta @ S @ S])
        P = hermitian_part(U1 @ steps @ U0pH)
        vals = _phase_norm(_pencil(P, _GRID))
        j = int(np.argmin(vals))
        b = _GRID[j] + 2 * np.pi
        xmin, fmin, _ = golden(
            lambda a: _phase_norm(_pencil(P, a)), brack=(b - h, b, b + h),
            tol=_GOLDEN_TOL, full_output=True,
        )
        if vals[j] < fmin:
            xmin, fmin = _GRID[j], vals[j]
        # acceptance threshold sits above the ~sqrt(eps) noise floor
        # of the arccos-based score at phases near 0 and near +-pi
        if fmin < cur - 1e-9:
            Theta = _pencil(steps, xmin)
            cur = float(fmin)

    K = U0pH @ U1
    inside = labels[:, None] == labels
    phases, W = eig_unitary(K @ Theta)
    for _ in range(_GAUGE_STEPS):
        L = (W * (1j * phases)) @ dagger(W)
        if frob_norm(inside * L) < _GAUGE_TOL:
            break
        Jac = _gauge_jacobian(phases, W, gens)
        try:
            np.linalg.cholesky(Jac + Jac.T)  # positive curvature: Newton's step
            step = np.tensordot(np.linalg.solve(Jac, -along(L, gens)), gens, 1)
        except np.linalg.LinAlgError:  # otherwise the fixed-point step
            step = -(inside * L)
        cost = np.linalg.norm(phases)
        while True:  # halved until the cost does not rise
            trial = Theta @ expm_skew(step)
            phases, W = eig_unitary(K @ trial)
            if np.linalg.norm(phases) <= cost + _TIE:
                break
            step = step / 2
        Theta = trial
    V = U0p @ W  # U0p L U0p* = V diag(i phi) V*
    return skew_part((V * (1j * phases)) @ dagger(V))


def _matchings(lam, mu, U0, U1, epsilon):
    """One matching pi per class, lazily, in ascending order of a lower
    bound on its total cost; yields (bound, pi).

    Matchings that differ only inside a degenerate group of mu form a
    class: the gauge already ranges over the unitaries of each group, and
    z = mu_pi - lambda is the same, so they share their bound and their
    true cost.  A prefix is extended by the first free member of each group
    only, which draws the lexicographically first matching of each class.

    The frame U0p of pi has column pi(i) equal to column i of U0, so block
    g of G = U1* U0p is (U1* U0)[g, pi^{-1}(g)] per degenerate group g of
    mu.  Over block-diagonal gauges, min ||U1 Theta U0p* - I||_F^2 = D =
    2n - 2 S with S the sum of the blocks' nuclear norms.  Each eigenphase
    has theta^2 = g(|e^{i theta} - 1|^2) with g(s) = 4 arcsin^2(sqrt(s)/2)
    increasing and convex, so by Jensen the gauge cost is at least
    2 sqrt(n) arcsin(sqrt(D/n) / 2), itself at least the chordal sqrt(D).
    Adding epsilon ||z|| bounds the total.

    The search is best-first (Hart, Nilsson & Raphael 1968) over a heap of
    prefixes pi(0..k-1), each keyed at or below every matching extending
    it.  ||B||_* is at most the sum of B's column norms, so S <= sum_i
    c[i, pi(i)] with c[i, j] = ||(U1* U0)[g(j), i]||_2, and one
    ``linear_sum_assignment`` maximizes that over a prefix's completions
    (as in Murty 1968).  Both spectra ascend, so the sorted-to-sorted
    completion has the smallest ||z|| (rearrangement inequality).
    """
    n = len(lam)
    A = U1.conj().T @ U0
    labels = degeneracy_groups(mu)
    groups = group_slices(labels)
    c = np.empty((n, n))
    for g in groups:
        c[:, g] = np.linalg.norm(A[g], axis=0)[:, None]

    def bound(prefix):
        k, p = len(prefix), list(prefix)
        free = [j for j in range(n) if j not in prefix]
        z2 = ((mu[p] - lam[:k]) ** 2).sum() + ((mu[free] - lam[k:]) ** 2).sum()
        if k == n:
            inv = np.argsort(p)
            # a 1 x 1 block's nuclear norm is its column norm
            S = sum(np.linalg.svd(A[np.ix_(g, inv[g])], compute_uv=False).sum()
                    if len(g) > 1 else c[inv[g[0]], g[0]] for g in groups)
        else:
            rest = c[k:][:, free]
            rows, cols = linear_sum_assignment(rest, maximize=True)
            S = c[np.arange(k), p].sum() + rest[rows, cols].sum()
        D = max(2 * n - 2 * S, 0.0)
        return float(2 * np.sqrt(n) * np.arcsin(np.sqrt(D / n) / 2) + epsilon * np.sqrt(z2))

    heap = [(bound(()), ())]
    while heap:
        key, prefix = heapq.heappop(heap)
        if len(prefix) == n:
            yield key, prefix
            continue
        free = [j for j in range(n) if j not in prefix]
        # free and the labels both ascend, so this keeps the first free
        # member of each mu-group; the others start matchings of its class
        for k, j in enumerate(free):
            if k and labels[j] == labels[free[k - 1]]:
                continue
            child = prefix + (j,)
            if len(child) == n - 1:  # one completion left
                child += tuple(i for i in free if i != j)
            heapq.heappush(heap, (bound(child), child))


def solve_geodesic(rho0: np.ndarray, rho1: np.ndarray, epsilon: float) -> GeodesicSolution:
    """Minimize ||X||_F + epsilon*||Z||_F over constant controls joining
    rho0 to rho1 along e^{Xt}(rho0 + Zt)e^{-Xt}.

    Endpoints must be Hermitian PSD with equal traces (a commuting
    traceless drift cannot change the trace); an endpoint with an
    eigenvalue below -1e-10 max(1, ||rho||_F) raises ValueError, as does a
    negative or non-finite epsilon.  The eigenvalue matching is exact at
    every n: gauge searches run in the ascending lower-bound order of
    ``_matchings`` and stop once a bound exceeds the best cost found.  Ties
    are broken by matching enumeration order, preferring smaller ||Z|| at
    equal cost.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    rho1 = np.asarray(rho1, dtype=complex)
    if not (is_hermitian(rho0) and is_hermitian(rho1)):
        raise ValueError("endpoints must be Hermitian")
    if rho0.shape != rho1.shape:
        raise ValueError(f"dimension mismatch: {rho0.shape} vs {rho1.shape}")
    tr0, tr1 = float(np.trace(rho0).real), float(np.trace(rho1).real)
    if abs(tr0 - tr1) > 1e-8 * max(1.0, abs(tr0), abs(tr1)):
        raise InfeasibleError(
            f"traces differ ({tr0:.12g} vs {tr1:.12g}); "
            "equal trace is required for a commuting-drift path"
        )
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")

    lam, U0 = eig_hermitian(rho0)
    mu, U1 = eig_hermitian(rho1)
    for name, rho, w in (("rho0", rho0, lam), ("rho1", rho1, mu)):
        # relative, so that rank-deficient endpoints stay accepted
        if w[0] < -1e-10 * max(1.0, frob_norm(rho)):
            raise ValueError(f"{name} is not PSD: smallest eigenvalue {w[0]:.6g}")

    def search(perm):
        z = mu[list(perm)] - lam
        znorm = float(np.linalg.norm(z))
        # column perm[i] of the matched frame is column i of U0
        X = minimal_rotation(U0[:, np.argsort(perm)], U1, mu)
        return frob_norm(X) + epsilon * znorm, znorm, perm, z, X

    searched, incumbent = [], np.inf
    for bound, perm in _matchings(lam, mu, U0, U1, epsilon):
        if bound > incumbent + _BOUND_SLACK:
            break  # every later matching is bounded above the incumbent
        searched.append(search(perm))
        incumbent = min(incumbent, searched[-1][0])

    best = None  # (total, znorm, perm, z, X)
    # in enumeration (lexicographic) order, as the tie rule reads
    for cand in sorted(searched, key=lambda cand: cand[2]):
        total, znorm = cand[:2]
        if best is None or total < best[0] - _TIE or (
            abs(total - best[0]) <= _TIE and znorm < best[1] - _TIE
        ):
            best = cand

    _, _, perm, z, X = best
    Z = hermitian_part(U0 @ (z[:, None] * U0.conj().T))
    costs = path_cost(X, Z, epsilon)
    return GeodesicSolution(
        X=X,
        Z=Z,
        permutation=tuple(int(p) for p in perm),
        epsilon=float(epsilon),
        cost_rotation=costs.rotation,
        cost_scaling=costs.scaling,
        cost_total=costs.total,
        frame=U0,
        spectrum=lam,
        rates=z,
    )


def eval_path(sol: GeodesicSolution, rho0: np.ndarray, t: float) -> np.ndarray:
    """Point on the interpolating path: e^{Xt}(rho0 + Zt)e^{-Xt}."""
    if t < 0.0 or t > 1.0:
        warnings.warn(
            f"t={t} outside [0, 1]: extrapolated eigenvalues may go negative",
            stacklevel=2,
        )
    return sample_path(sol, rho0, [t])[0]


def sample_path(sol: GeodesicSolution, rho0: np.ndarray, times) -> np.ndarray:
    """Path evaluated at many times from a single eigendecomposition of X."""
    ts = np.asarray(times, dtype=float)
    U = expm_skew_times(sol.X, ts)
    core = np.asarray(rho0, dtype=complex) + sol.Z * ts[:, None, None]
    return hermitian_part(U @ core @ dagger(U))
