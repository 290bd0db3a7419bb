"""Command-line front end and file formats.

Matrices travel as JSON documents with explicit real/imaginary parts
(row-major), datasets as JSON arrays of timed samples, sampled paths as
CSV, and figure data as "glyph" records: per-time lists of eigenpairs
(ascending eigenvalues, unit eigenvectors) from which each path matrix
can be rebuilt as sum(eigenvalue * v v*).

Commands: interpolate (constant-control endpoint interpolation), path
(discretized time-varying solve), regularize (fit a flow to noisy
samples), decompose (tangent splitting at a state), synth (noisy dataset
generation).  Exit codes: 0 success, 2 infeasible endpoints, 3 I/O or
schema error, 4 discretized solve did not converge, 5 regularization
stalled; 4 and 5 still write their best-effort outputs.  Logs go to
standard error; --quiet keeps errors only.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from .geodesic import InfeasibleError, sample_path, solve_geodesic
from .linalg import (
    commutator,
    eig_hermitian,
    frob_inner,
    frob_norm,
    hermitian_part,
    is_hermitian,
    is_skew_hermitian,
    is_unitary,
)
from .regularize import (
    MatrixSample,
    model_path,
    solve_regularization,
    synth_noisy_path,
)
from .tangent import split_tangent
from .transcription import solve_discrete_path

log = logging.getLogger("denflow")


class DocumentError(ValueError):
    """Malformed or invalid input document (maps to exit code 3)."""


# --- matrix documents ---

_KIND_CHECKS = {
    "hermitian": (is_hermitian, "Hermitian"),
    "skew": (is_skew_hermitian, "skew-Hermitian"),
    "unitary": (is_unitary, "unitary"),
}


def matrix_to_doc(M: np.ndarray, kind: str = "hermitian", meta: dict | None = None) -> dict:
    M = np.asarray(M, dtype=complex)
    doc = {
        "n": int(M.shape[0]),
        "kind": kind,
        "re": [[float(x) for x in row] for row in M.real],
        "im": [[float(x) for x in row] for row in M.imag],
    }
    if meta:
        doc["meta"] = meta
    return doc


def doc_to_matrix(doc, kind: str = "hermitian") -> np.ndarray:
    if not isinstance(doc, dict):
        raise DocumentError("matrix document must be a JSON object")
    try:
        n = int(doc["n"])
    except (KeyError, TypeError, ValueError):
        raise DocumentError("matrix document needs an integer field 'n'") from None
    if n < 1:
        raise DocumentError("matrix dimension must be positive")
    if "re" not in doc:
        raise DocumentError("matrix document needs a field 're'")

    def grid(field, default=None):
        raw = doc.get(field, default)
        if raw is None:
            return np.zeros((n, n))
        arr = np.asarray(raw, dtype=float)
        if arr.shape != (n, n):
            raise DocumentError(f"field '{field}' must be an {n}x{n} array")
        return arr

    try:
        M = grid("re") + 1j * grid("im")
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"matrix entries must be real numbers: {exc}") from None
    check, label = _KIND_CHECKS[kind]
    if not check(M, tol=1e-9):
        raise DocumentError(f"matrix is not {label} within 1e-9")
    return M


def load_matrix(path: str, kind: str = "hermitian") -> np.ndarray:
    return doc_to_matrix(_read_json(path), kind=kind)


def save_matrix(path: str, M: np.ndarray, kind: str = "hermitian") -> None:
    _write_json(path, matrix_to_doc(M, kind=kind))


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- datasets ---


def samples_to_doc(samples, meta: dict | None = None) -> dict:
    return {
        "meta": meta or {},
        "samples": [
            {"t": float(s.t), "matrix": matrix_to_doc(s.value)} for s in samples
        ],
    }


def doc_to_samples(doc) -> list[MatrixSample]:
    if isinstance(doc, dict):
        raw = doc.get("samples")
        if raw is None:
            raise DocumentError("dataset document needs a field 'samples'")
    elif isinstance(doc, list):
        raw = doc
    else:
        raise DocumentError("dataset must be a JSON object or array")
    out = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "t" not in item or "matrix" not in item:
            raise DocumentError(f"sample {i} must be an object with 't' and 'matrix'")
        out.append(MatrixSample(t=float(item["t"]), value=doc_to_matrix(item["matrix"])))
    return out


def load_samples(path: str) -> list[MatrixSample]:
    return doc_to_samples(_read_json(path))


# --- sampled paths and glyphs ---


def write_path_csv(path: str, times, states) -> None:
    """Rows of t, flattened entries (re then im), eigenvalues, min-eig, trace."""
    states = np.asarray(states)
    n = states.shape[1]
    header = (
        ["t"]
        + [f"re_{i}_{j}" for i in range(n) for j in range(n)]
        + [f"im_{i}_{j}" for i in range(n) for j in range(n)]
        + [f"eig_{k}" for k in range(n)]
        + ["min_eig", "trace"]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, M in zip(times, states):
            eigs = eig_hermitian(M).values
            row = (
                [float(t)]
                + [float(x) for x in M.real.ravel()]
                + [float(x) for x in M.imag.ravel()]
                + [float(x) for x in eigs]
                + [float(eigs[0]), float(np.trace(M).real)]
            )
            writer.writerow([repr(v) for v in row])


def glyph_records(times, states) -> list[dict]:
    out = []
    for t, M in zip(times, states):
        vals, vecs = eig_hermitian(M)
        axes = [
            {
                "eigenvalue": float(vals[k]),
                "vector_re": [float(x) for x in vecs[:, k].real],
                "vector_im": [float(x) for x in vecs[:, k].imag],
            }
            for k in range(len(vals))
        ]
        out.append({"t": float(t), "axes": axes})
    return out


def _write_sampled_path(out_dir, times, states, fmt, glyphs, stem="path"):
    if fmt == "json":
        samples = [MatrixSample(float(t), M) for t, M in zip(times, states)]
        _write_json(os.path.join(out_dir, f"{stem}.json"), samples_to_doc(samples))
    else:
        write_path_csv(os.path.join(out_dir, f"{stem}.csv"), times, states)
    if glyphs:
        _write_json(os.path.join(out_dir, "glyphs.json"), glyph_records(times, states))


# --- flag parsing helpers ---


def parse_times(text: str) -> np.ndarray:
    """Either 'start:step:stop' (inclusive grid) or a comma list of finite times."""
    try:
        grid = ":" in text
        values = np.array([float(x) for x in text.split(":" if grid else ",")])
        if not np.all(np.isfinite(values)):
            raise ValueError("times must be finite")
        if not grid:
            return values
        start, step_, stop = values
        if step_ <= 0 or stop < start:
            raise ValueError("need step > 0 and stop >= start")
        count = int(round((stop - start) / step_)) + 1
        return np.round(start + step_ * np.arange(count), 12)
    except ValueError as exc:
        raise DocumentError(f"bad --times specification '{text}': {exc}") from None


def parse_reals(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise DocumentError(f"bad comma-separated reals: '{text}'") from None


def _ensure_out(ns) -> str:
    os.makedirs(ns.out, exist_ok=True)
    return ns.out


# --- commands ---


def cmd_interpolate(ns) -> int:
    rho0 = load_matrix(ns.rho0)
    rho1 = load_matrix(ns.rho1)
    sol = solve_geodesic(rho0, rho1, ns.epsilon)
    out = _ensure_out(ns)
    _write_json(
        os.path.join(out, "solution.json"),
        {
            "epsilon": sol.epsilon,
            "permutation": [int(k) for k in sol.permutation],
            "cost": {
                "rotation": sol.cost_rotation,
                "scaling": sol.cost_scaling,
                "total": sol.cost_total,
            },
            "X": matrix_to_doc(sol.X, kind="skew"),
            "Z": matrix_to_doc(sol.Z),
        },
    )
    times = np.linspace(0.0, 1.0, ns.samples)
    states = sample_path(sol, rho0, times)
    _write_sampled_path(out, times, states, ns.format, ns.glyphs)
    log.info(
        "interpolate: cost %.6g (rotation %.6g, scaling %.6g), %d samples -> %s",
        sol.cost_total, sol.cost_rotation, sol.cost_scaling, ns.samples, out,
    )
    return 0


def cmd_path(ns) -> int:
    rho0 = load_matrix(ns.rho0)
    rho1 = load_matrix(ns.rho1)
    dp = solve_discrete_path(
        rho0, rho1, ns.epsilon,
        steps=ns.steps, tol_end=ns.tol_end, max_rounds=ns.max_rounds,
    )
    out = _ensure_out(ns)
    _write_json(
        os.path.join(out, "report.json"),
        {
            "cost": dp.cost,
            "endpoint_residual": dp.endpoint_residual,
            "converged": dp.converged,
            "rounds": dp.rounds,
            "steps": dp.N,
            "objective_trace": list(dp.objective_trace[-1]),
        },
    )
    _write_json(
        os.path.join(out, "controls.json"),
        [
            {"X": matrix_to_doc(X, kind="skew"), "u": matrix_to_doc(u)}
            for X, u in zip(dp.Xs, dp.us)
        ],
    )
    times = np.arange(dp.N + 1) * dp.dt
    _write_sampled_path(out, times, dp.states, ns.format, ns.glyphs)
    if not dp.converged:
        log.warning(
            "path: not converged after %d rounds (endpoint residual %.3g); "
            "best effort written to %s", dp.rounds, dp.endpoint_residual, out,
        )
        return 4
    log.info(
        "path: cost %.6g, endpoint residual %.3g, %d rounds -> %s",
        dp.cost, dp.endpoint_residual, dp.rounds, out,
    )
    return 0


def cmd_regularize(ns) -> int:
    samples = load_samples(ns.data)
    model = solve_regularization(
        samples, seeds=ns.seeds, max_iters=ns.max_iters,
        squared=ns.squared, rng_seed=ns.seed,
    )
    out = _ensure_out(ns)
    _write_json(
        os.path.join(out, "model.json"),
        {
            "objective": model.objective,
            "stalled": model.stalled,
            "p": [float(x) for x in model.p],
            "z": [float(x) for x in model.z],
            "V": matrix_to_doc(model.V, kind="unitary"),
            "X": matrix_to_doc(model.X, kind="skew"),
        },
    )
    ts = np.array([s.t for s in samples])
    fit = model_path(model, ts)
    with open(os.path.join(out, "fit.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "misfit"])
        for s, M in zip(samples, fit):
            writer.writerow([repr(float(s.t)), repr(float(frob_norm(M - s.value)))])
    _write_json(
        os.path.join(out, "data_glyphs.json"),
        glyph_records(ts, np.array([s.value for s in samples])),
    )
    _write_json(os.path.join(out, "fit_glyphs.json"), glyph_records(ts, fit))
    if model.stalled:
        log.warning(
            "regularize: stalled at objective %.6g; result written to %s",
            model.objective, out,
        )
        return 5
    log.info("regularize: objective %.6g over %d samples -> %s",
             model.objective, len(samples), out)
    return 0


def cmd_decompose(ns) -> int:
    rho = load_matrix(ns.rho)
    direction = load_matrix(ns.direction)
    split = split_tangent(rho, direction)
    n = rho.shape[0]
    recon = split.rot + split.u + (split.trace / n) * np.eye(n)
    out = _ensure_out(ns)
    _write_json(
        os.path.join(out, "decomposition.json"),
        {
            "X": matrix_to_doc(split.X, kind="skew"),
            "rotation_part": matrix_to_doc(split.rot),
            "scaling_part": matrix_to_doc(split.u),
            "trace_rate": split.trace,
            "residuals": {
                "orthogonality": abs(frob_inner(split.rot, split.u)),
                "commutation": frob_norm(commutator(split.u, rho)),
                "reconstruction": frob_norm(recon - hermitian_part(direction)),
            },
        },
    )
    log.info("decompose: |rotation| %.6g, |scaling| %.6g -> %s",
             frob_norm(split.rot), frob_norm(split.u), out)
    return 0


def cmd_synth(ns) -> int:
    rho0 = load_matrix(ns.rho0)
    X = load_matrix(ns.x, kind="skew")
    z = parse_reals(ns.z)
    if z.size != rho0.shape[0]:
        raise DocumentError(
            f"--z needs {rho0.shape[0]} entries, got {z.size}"
        )
    times = parse_times(ns.times)
    samples = synth_noisy_path(
        rho0, X, z, times,
        noise_amp=ns.noise, seed=ns.seed, complex_noise=ns.complex_noise,
    )
    out = _ensure_out(ns)
    _write_json(
        os.path.join(out, "dataset.json"),
        samples_to_doc(
            samples,
            meta={"noise_amp": ns.noise, "seed": ns.seed,
                  "complex_noise": ns.complex_noise},
        ),
    )
    log.info("synth: %d samples, noise %.3g, seed %d -> %s",
             len(samples), ns.noise, ns.seed, out)
    return 0


# --- argument parsing ---


class _Parser(argparse.ArgumentParser):
    # usage mistakes are schema-class errors (exit 3), not infeasibility
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(3)


def _add_common(sub):
    sub.add_argument("--out", default=".", help="output directory (default: .)")
    sub.add_argument("--quiet", action="store_true", help="suppress progress logs")


def _add_endpoint_flags(sub):
    sub.add_argument("--rho0", required=True, help="initial state document")
    sub.add_argument("--rho1", required=True, help="target state document")
    sub.add_argument("--epsilon", type=float, required=True,
                     help="scaling-cost weight in the objective")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="sampled-path format (default csv)")
    sub.add_argument("--glyphs", action="store_true",
                     help="also write eigen-glyph records")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="denflow",
                     description="Interpolate, discretize, and fit "
                                 "rotation-plus-scaling matrix flows.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("interpolate", parents=[], help="constant-control interpolation")
    _add_endpoint_flags(p)
    p.add_argument("--samples", type=int, default=21,
                   help="number of path samples (default 21)")
    _add_common(p)
    p.set_defaults(func=cmd_interpolate)

    p = subs.add_parser("path", help="discretized time-varying interpolation")
    _add_endpoint_flags(p)
    p.add_argument("--steps", type=int, default=50, help="time steps (default 50)")
    p.add_argument("--tol-end", type=float, default=1e-4, dest="tol_end",
                   help="endpoint residual tolerance (default 1e-4)")
    p.add_argument("--max-rounds", type=int, default=12, dest="max_rounds",
                   help="continuation rounds (default 12)")
    _add_common(p)
    p.set_defaults(func=cmd_path)

    p = subs.add_parser("regularize", help="fit a flow to noisy samples")
    p.add_argument("--data", required=True, help="dataset document")
    p.add_argument("--seeds", type=int, default=5, help="multi-start count (default 5)")
    p.add_argument("--max-iters", type=int, default=5000, dest="max_iters",
                   help="L-BFGS-B iterations per start (default 5000)")
    p.add_argument("--squared", action="store_true",
                   help="fit sum of squared misfits instead of sum of norms")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for multi-start perturbations (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_regularize)

    p = subs.add_parser("decompose", help="split a tangent direction at a state")
    p.add_argument("--rho", required=True, help="base state document")
    p.add_argument("--direction", required=True, help="Hermitian direction document")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("synth", help="generate a noisy flow dataset")
    p.add_argument("--rho0", required=True, help="initial state document")
    p.add_argument("--x", required=True, help="rotation generator document (skew)")
    p.add_argument("--z", required=True, help="drift rates, comma-separated")
    p.add_argument("--times", required=True,
                   help="sample times: 'start:step:stop' or comma list")
    p.add_argument("--noise", type=float, required=True, help="uniform noise amplitude")
    p.add_argument("--seed", type=int, required=True, help="noise seed")
    p.add_argument("--complex-noise", action="store_true", dest="complex_noise",
                   help="draw imaginary off-diagonal noise too")
    _add_common(p)
    p.set_defaults(func=cmd_synth)
    return parser


def _attach_z_value(argv):
    """Rewrite '--z VALUE' as '--z=VALUE'.  argparse takes a token that
    starts with '-' and is not a plain number, such as '-0.1,0.05', for an
    option; attached, it is read as the value."""
    out = list(argv)
    for i in range(len(out) - 1):
        if out[i] == "--z":
            out[i : i + 2] = [f"--z={out[i + 1]}"]
            break
    return out


def main(argv=None) -> int:
    ns = build_parser().parse_args(_attach_z_value(sys.argv[1:] if argv is None else argv))
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(logging.WARNING if ns.quiet else logging.INFO)
    try:
        return ns.func(ns)
    except InfeasibleError as exc:
        log.error("infeasible: %s", exc)
        return 2
    except DocumentError as exc:
        log.error("%s", exc)
        return 3
    except ValueError as exc:
        log.error("invalid input: %s", exc)
        return 3


def entry() -> None:
    raise SystemExit(main())
