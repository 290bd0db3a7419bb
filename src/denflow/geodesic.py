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
norm of the principal logarithm of U1 Theta U0'*.  When rho0 has repeated
eigenvalues the eigenframe of Z is pinned to the computed eigenbasis of
rho0, so minimality is within that family.

Matchings are searched best-first.  Since |theta| >= |e^{i theta} - 1|, the
gauge cost of a matching is at least the distance from the aligned frame
to the identity, whose minimum over gauges has a closed form (nuclear
norms of the diagonal blocks of U1* U0').  Adding epsilon ||z|| gives a
lower bound on each matching's total cost; all n! bounds are computed at
once, gauge searches run in ascending-bound order, and the search stops
at the first matching whose bound exceeds the best cost found.  No
skipped matching could have won.

The gauge search is coordinate descent over one-parameter subgroups
e^{aS} of the gauge group (Absil, Mahony & Sepulchre 2008, ch. 4).  Each
generator S is a column phase i E_kk or, inside a degenerate group, a
real rotation E_lk - E_kl or an imaginary one i(E_lk + E_kl).  All of them
satisfy S^3 = -S, so e^{aS} = I + sin(a) S + (1 - cos a) S^2 (Rodrigues),
and the Hermitian part of U1 Theta e^{aS} U0'*, whose eigenvalues are the
cosines of the rotation's phases, is a pencil H0 + sin(a) H1 +
(1 - cos a) H2 fixed per coordinate.  Scoring a step then takes two scaled
adds and one ``eigvalsh``.  The pencil has period 2 pi in a, which lets
the golden-section refinement stop at an absolute width (see
``_gauge_search``).
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import golden, linear_sum_assignment

from .linalg import (
    BranchAmbiguityError,
    dagger,
    degeneracy_groups,
    eig_hermitian,
    expm_skew_times,
    frob_norm,
    hermitian_part,
    is_hermitian,
    logm_unitary,
)

_TIE = 1e-12
# a matching is searched unless its lower bound exceeds the incumbent cost by
# more than this; it covers the ~1e-8 arccos noise floor of _log_norm at
# eigenphases near 0 and near +-pi, which can put a computed gauge cost
# slightly below the exact chordal bound
_BOUND_SLACK = 1e-7
_MAX_ENUM = 7  # largest n whose n! matchings are searched exactly


class InfeasibleError(ValueError):
    """No commuting-drift path joins the endpoints (trace mismatch)."""


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
    """Constant controls joining two endpoints, with the matching used."""

    X: np.ndarray
    Z: np.ndarray
    permutation: tuple[int, ...]
    epsilon: float
    cost_rotation: float
    cost_scaling: float
    cost_total: float


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


def _group_slices(labels: np.ndarray) -> list[np.ndarray]:
    return [np.flatnonzero(labels == g) for g in range(labels[-1] + 1)] if len(labels) else []


def _polar_init(G: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """Blockwise unitary polar factors of G's diagonal blocks."""
    Theta = np.zeros_like(G)
    for idx in groups:
        B = G[np.ix_(idx, idx)]
        if len(idx) == 1:
            a = B[0, 0]
            Theta[idx[0], idx[0]] = a / abs(a) if abs(a) > 1e-12 else 1.0
        else:
            W, _, Vh = np.linalg.svd(B)
            Theta[np.ix_(idx, idx)] = W @ Vh
    return Theta


_GRID = np.linspace(-np.pi, np.pi, 25)
_GAUGE_ROUNDS = 3  # coordinate sweeps per start of the gauge search
_SIGN_LIMIT = 12  # largest n whose 2^n real sign patterns are scored for a start


@functools.lru_cache(maxsize=64)
def _gauge_generators(labels: tuple[int, ...]) -> np.ndarray:
    """Skew generators (m, n, n), read-only, of the gauge group of a spectrum
    with these degeneracy labels: a phase i E_kk per column, then per pair
    k < l of a group the rotations E_lk - E_kl and i(E_lk + E_kl)."""
    n = len(labels)
    E = np.eye(n * n, dtype=complex).reshape(n, n, n, n)
    gens = [1j * E[k, k] for k in range(n)]
    for k, l in itertools.combinations(range(n), 2):
        if labels[k] == labels[l]:
            gens += [E[l, k] - E[k, l], 1j * (E[l, k] + E[k, l])]
    out = np.array(gens)
    out.flags.writeable = False
    return out


def _pencil(P: np.ndarray, a) -> np.ndarray:
    """P[0] + sin(a) P[1] + (1 - cos a) P[2] at a step a, or at each of an
    array of steps: Theta e^{aS} for P = (Theta, Theta S, Theta S^2)."""
    return P[0] + np.multiply.outer(np.sin(a), P[1]) + np.multiply.outer(1.0 - np.cos(a), P[2])


def _gauge_search(U0p: np.ndarray, U1: np.ndarray, spectrum: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize ||log(U1 Theta U0p*)||_F over gauges Theta commuting with
    diag(spectrum).  Returns (cost, Theta).

    Coordinate descent from the blockwise polar factor, the identity and
    (for real frames) the best real sign pattern along ``_gauge_generators``.
    Per coordinate S the pencil of Herm(U1 Theta e^{aS} U0p*) is formed once;
    a grid over [-pi, pi] brackets the best step and ``golden`` refines it one
    period (2 pi) up, where its relative stop |x3 - x0| <= tol (|x1| + |x2|)
    closes at ~1e-6 rad instead of chasing rounding and arccos noise.
    """
    n = U0p.shape[0]
    U0pH = U0p.conj().T
    labels = degeneracy_groups(spectrum)
    gens = _gauge_generators(tuple(labels.tolist()))

    G = U1.conj().T @ U0p
    starts = [_polar_init(G, _group_slices(labels)), np.eye(n, dtype=complex)]

    real_inputs = np.abs(U0p.imag).max() <= 1e-12 and np.abs(U1.imag).max() <= 1e-12
    if real_inputs and n <= _SIGN_LIMIT:
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        cands = np.zeros((len(signs), n, n), dtype=complex)
        cands[:, np.arange(n), np.arange(n)] = signs
        costs = _log_norm(U1 @ cands @ U0pH)
        # first strict minimum keeps the enumeration-order tie-break
        j = int(np.argmin(costs))
        starts.append(cands[j])

    h = _GRID[1] - _GRID[0]
    best_cost, best_Theta = np.inf, None
    for Theta in starts:
        cur = _log_norm(U1 @ Theta @ U0pH)
        for _ in range(_GAUGE_ROUNDS):
            improved = False
            for S in gens:
                steps = np.stack([Theta, Theta @ S, Theta @ S @ S])
                P = hermitian_part(U1 @ steps @ U0pH)
                vals = _phase_norm(_pencil(P, _GRID))
                j = int(np.argmin(vals))
                b = _GRID[j] + 2 * np.pi
                xmin, fmin, _ = golden(
                    lambda a: _phase_norm(_pencil(P, a)), brack=(b - h, b, b + h),
                    tol=1e-7, full_output=True,
                )
                if vals[j] < fmin:
                    xmin, fmin = _GRID[j], vals[j]
                # acceptance threshold sits above the ~sqrt(eps) noise floor
                # of the arccos-based score at phases near 0 and near +-pi
                if fmin < cur - 1e-9:
                    Theta = _pencil(steps, xmin)
                    cur = float(fmin)
                    improved = True
            if not improved:
                break
        if cur < best_cost - _TIE:
            best_cost, best_Theta = cur, Theta
    return best_cost, best_Theta


def minimal_rotation(U0p: np.ndarray, U1: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Smallest-norm X with e^X mapping the frame U0p onto U1 up to gauge.

    Columns of U0p and U1 must pair identical ``spectrum`` entries.  The
    residual freedom — unitaries commuting with diag(spectrum): per-column
    phases, full blocks on repeated entries, and diagonal sign patterns for
    real frames — is searched to minimize the log norm, one coordinate at
    a time along the one-parameter subgroups e^{aS} of a column phase or
    of a real or imaginary rotation inside a block (see ``_gauge_search``).
    Repeated entries are grouped by ``linalg.degeneracy_groups``.  Raises
    BranchAmbiguityError if the optimal alignment has an eigenphase at the
    principal-branch cut (callers may retry via a gauge nudge).
    """
    _, Theta = _gauge_search(U0p, U1, spectrum)
    return logm_unitary(U1 @ Theta @ U0p.conj().T)


def _matching_bounds(U0, U1, perms, groups):
    """Chordal lower bound on the gauge-search cost of each matching.

    |theta| >= |e^{i theta} - 1| gives ||log Q||_F >= ||Q - I||_F, and over
    block-diagonal gauges Theta, min ||U1 Theta U0p* - I||_F^2 = 2n - 2 S with
    S the sum of the nuclear norms of the diagonal blocks of G = U1* U0p
    (|G_ii| on a simple eigenvalue).  Row k of ``perms`` is a matching pi,
    whose frame U0p has column pi(i) equal to column i of U0, so block g of
    G is (U1* U0)[g, pi^{-1}(g)].  Returns sqrt(max(2n - 2 S, 0)) per row.
    """
    n = U0.shape[0]
    A = U1.conj().T @ U0
    inv = np.argsort(perms, axis=1)
    S = np.zeros(len(perms))
    for g in groups:
        blocks = A[g[None, :, None], inv[:, None, g]]
        S += np.linalg.svd(blocks, compute_uv=False).sum(axis=-1)
    return np.sqrt(np.maximum(2 * n - 2 * S, 0.0))


def _local_matching(lam, mu, n, eval_total):
    """Assignment seed on |lambda - mu| refined by 2-swap local search."""
    _, seed = linear_sum_assignment(np.abs(lam[:, None] - mu[None, :]))
    perm = list(seed)
    score = eval_total(tuple(perm))
    for _ in range(50):
        best_swap, best_score = None, score
        for i, j in itertools.combinations(range(n), 2):
            cand = perm.copy()
            cand[i], cand[j] = cand[j], cand[i]
            s = eval_total(tuple(cand))
            if s < best_score - _TIE:
                best_swap, best_score = cand, s
        if best_swap is None:
            break
        perm, score = best_swap, best_score
    return tuple(perm)


def solve_geodesic(rho0: np.ndarray, rho1: np.ndarray, epsilon: float) -> GeodesicSolution:
    """Minimize ||X||_F + epsilon*||Z||_F over constant controls joining
    rho0 to rho1 along e^{Xt}(rho0 + Zt)e^{-Xt}.

    Endpoints must be Hermitian PSD with equal traces (a commuting
    traceless drift cannot change the trace); an endpoint with an
    eigenvalue below -1e-10 max(1, ||rho||_F) raises ValueError, as does a
    negative or non-finite epsilon.  For n <= ``_MAX_ENUM`` = 7 the
    eigenvalue matching is exact: every matching gets the chordal lower
    bound sqrt(max(2n - 2 S, 0)) + epsilon ||z|| (see ``_matching_bounds``),
    gauge searches run in ascending-bound order, and they stop once a
    bound exceeds the best cost found.  Larger problems
    fall back to an assignment seed refined by 2-swap local search.  Ties
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

    n = rho0.shape[0]
    lam, U0 = eig_hermitian(rho0)
    mu, U1 = eig_hermitian(rho1)
    for name, rho, w in (("rho0", rho0, lam), ("rho1", rho1, mu)):
        # relative, so that rank-deficient endpoints stay accepted
        if w[0] < -1e-10 * max(1.0, frob_norm(rho)):
            raise ValueError(f"{name} is not PSD: smallest eigenvalue {w[0]:.6g}")

    groups = _group_slices(degeneracy_groups(mu))

    def frame_for(perm):
        P = np.zeros((n, n))
        P[np.arange(n), perm] = 1.0
        return U0 @ P

    def search(perm):
        z = mu[list(perm)] - lam
        znorm = float(np.linalg.norm(z))
        U0p = frame_for(perm)
        gcost, Theta = _gauge_search(U0p, U1, mu)
        return gcost + epsilon * znorm, znorm, perm, z, U0p, Theta

    def eval_total(perm):
        # quick score for local search: polar-init alignment, no descent
        z = mu[list(perm)] - lam
        U0p = frame_for(perm)
        Theta = _polar_init(U1.conj().T @ U0p, groups)
        return _log_norm(U1 @ Theta @ U0p.conj().T) + epsilon * float(np.linalg.norm(z))

    if n <= _MAX_ENUM:
        matchings = list(itertools.permutations(range(n)))
        perms = np.array(matchings)
        bounds = _matching_bounds(U0, U1, perms, groups)
        bounds += epsilon * np.linalg.norm(mu[perms] - lam, axis=1)
        searched, incumbent = {}, np.inf
        for k in np.argsort(bounds, kind="stable"):
            if bounds[k] > incumbent + _BOUND_SLACK:
                break  # every later matching is bounded above the incumbent
            searched[k] = search(matchings[k])
            incumbent = min(incumbent, searched[k][0])
        candidates = [searched[k] for k in sorted(searched)]
    else:
        candidates = [search(_local_matching(lam, mu, n, eval_total))]

    best = None  # (total, znorm, perm, z, U0p, Theta)
    for cand in candidates:  # in enumeration order, as the tie rule reads
        total, znorm = cand[:2]
        if best is None or total < best[0] - _TIE or (
            abs(total - best[0]) <= _TIE and znorm < best[1] - _TIE
        ):
            best = cand

    _, _, perm, z, U0p, Theta = best
    X = None
    nudges = (0.0, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 1e-3)
    for k, delta in enumerate(nudges):
        # right-multiplying Theta by diagonal phases is a commuting gauge:
        # feasibility is preserved exactly, the nudge only steps off the
        # branch cut at the price of an O(delta) cost increase
        phases = np.exp(1j * delta * np.arange(1, n + 1))
        try:
            X = logm_unitary(U1 @ (Theta * phases[None, :]) @ U0p.conj().T)
            break
        except BranchAmbiguityError:
            if k == len(nudges) - 1:
                raise

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
    if not np.all(np.isfinite(ts)):
        raise ValueError("path times must be finite")
    U = expm_skew_times(sol.X, ts)
    core = np.asarray(rho0, dtype=complex) + sol.Z * ts[:, None, None]
    return hermitian_part(U @ core @ dagger(U))
