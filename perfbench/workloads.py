"""The four seeded workloads: inputs, the timed call, output checks, quality.

Every input comes from ``numpy.random.default_rng(seed)``; the package only
sees the generated matrices and documents.  Checks use numpy and scipy
directly rather than the package's own kernels, and run outside the timed
region with no tracer installed.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys

import numpy as np
import scipy.linalg

import denflow.geodesic as geodesic
import denflow.regularize as regularize
import denflow.transcription as transcription

HERE = pathlib.Path(__file__).resolve().parent
TOL = 1e-8  # identity checks, relative to max(1, scale)


def random_state(rng, n):
    """Complex PSD matrix of unit trace (full rank with probability one)."""
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = B @ B.conj().T
    A = (A + A.conj().T) / 2
    return A / np.trace(A).real


def haar_unitary(rng, n):
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(B)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def spectra(n):
    """Fixed unit-trace spectra (ascending) for the two endpoints of a pair:
    proportional to k and to k^2, k = 1..n."""
    k = np.arange(1.0, n + 1)
    return k / k.sum(), k**2 / (k**2).sum()


def random_pair(rng, n):
    """Endpoints with the fixed spectra of ``spectra(n)`` in independent
    Haar-random eigenframes.

    Fixing the spectra fixes ||z|| for every eigenvalue matching, so the
    seed moves only the frames.  With fully random spectra the scaling term
    eps ||z|| alone moved the mean cost by 23% between seeds, and the
    eps = 10 pruning, which depends on it, moved the solve time.
    """
    s0, s1 = spectra(n)
    U0, U1 = haar_unitary(rng, n), haar_unitary(rng, n)
    rho0 = (U0 * s0) @ U0.conj().T
    rho1 = (U1 * s1) @ U1.conj().T
    return (rho0 + rho0.conj().T) / 2, (rho1 + rho1.conj().T) / 2


def random_skew(rng, n, scale):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    X = scale * (A - A.conj().T) / 2
    return X - (np.trace(X) / n) * np.eye(n)


def random_drift(rng, rho0):
    """Drift rates z pairing with rho0's ascending eigenvalues p such that
    p + z is another unit-trace spectrum, so p + z t >= 0 on [0, 1]."""
    p = np.linalg.eigvalsh(rho0)
    q = np.sort(rng.dirichlet(np.ones(len(p))))
    return q - p


def _norm(A):
    return float(np.linalg.norm(A))


def _close(a, b, scale=1.0):
    return _norm(np.asarray(a) - np.asarray(b)) <= TOL * max(1.0, scale)


class Workload:
    name = ""
    params: dict = {}
    # percentile of all calls reported as call_ref.tail.  None: the run makes
    # too few calls for a percentile above the median with ten calls beyond
    # it, so call_ref.tail is the median call of the slowest input, which one
    # slow moment of the machine cannot set the way it sets the slowest call
    TAIL = None
    # calls run in this process, so the reference loop is timed inside them
    # here; otherwise ``call`` hands ``ref`` on to the child process
    IN_PROCESS = True

    def __init__(self, seed, work_dir):
        self.rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.items = self.make_inputs()

    def make_inputs(self):
        raise NotImplementedError

    def warmup(self):
        """One tiny call on fixed inputs, so lazy imports finish in set-up."""

    def describe(self, i):
        raise NotImplementedError

    def call(self, i, tracing=False, ref=None):
        raise NotImplementedError

    def check(self, i, result):
        """None if the result passes, else the reason it does not."""
        raise NotImplementedError

    def quality(self, done):
        """End-to-end quality metrics from ``done``, a list of (input index,
        result) pairs of one pass with failed calls left out."""
        return {}

    def counters(self, done):
        """Per-layer counters read from the results of one pass."""
        return {}

    def child_spans(self):
        """Span recordings and matrix counts made in child processes."""
        return [], {}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- geodesic --------------------------------------------------------------


class Geodesic(Workload):
    """solve_geodesic on random unit-trace PSD pairs.

    The small-epsilon n = 3 solves form the largest class, with the faster
    solves below it and the n = 4 solves above, so the median call falls
    inside that class rather than on the boundary between two classes.
    """

    name = "geodesic"
    TAIL = 75  # 22 calls a pass, two or three passes a run
    # epsilon: {n: pairs}.  An n = 3 solve's time depends on its frames
    # (how many gauge-search rounds it needs), so the class is large enough
    # that its median moves little from seed to seed.
    PAIRS = {0.1: {2: 1, 3: 8, 4: 1}, 1.0: {2: 1, 3: 8, 4: 1}, 10.0: {2: 1, 3: 1, 4: 1}}
    params = {"pairs {eps: {n: count}}": PAIRS,
              "endpoints": "spectra k/sum k and k^2/sum k^2 in Haar-random frames"}

    def make_inputs(self):
        items = []
        for eps, counts in self.PAIRS.items():
            for n, count in counts.items():
                for _ in range(count):
                    items.append((n, eps, *random_pair(self.rng, n)))
        return items

    def describe(self, i):
        n, eps, _, _ = self.items[i]
        return f"n={n} eps={eps}"

    def warmup(self):
        geodesic.solve_geodesic(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]), 1.0)

    def call(self, i, tracing=False, ref=None):
        n, eps, rho0, rho1 = self.items[i]
        return geodesic.solve_geodesic(rho0, rho1, eps)

    def check(self, i, sol):
        n, eps, rho0, rho1 = self.items[i]
        X, Z = sol.X, sol.Z
        if not _close(X, -X.conj().T, _norm(X)):
            return "X is not skew-Hermitian"
        if not _close(Z, Z.conj().T, _norm(Z)):
            return "Z is not Hermitian"
        if abs(np.trace(Z)) > TOL:
            return "Z is not traceless"
        if _norm(Z @ rho0 - rho0 @ Z) > TOL:
            return "[Z, rho0] != 0"
        E = scipy.linalg.expm(X)
        if not _close(E @ (rho0 + Z) @ E.conj().T, rho1):
            return "e^X (rho0 + Z) e^-X != rho1"
        want = _norm(X) + eps * _norm(Z)
        if abs(sol.cost_total - want) > TOL * max(1.0, want):
            return f"cost_total {sol.cost_total} != |X| + eps |Z| = {want}"
        states = geodesic.sample_path(sol, rho0, np.linspace(0.0, 1.0, 11))
        if np.linalg.eigvalsh(states).min() < -TOL:
            return "sample_path leaves the PSD cone"
        if np.abs(np.trace(states, axis1=1, axis2=2) - np.trace(rho0)).max() > TOL:
            return "sample_path changes the trace"
        return None

    def quality(self, done):
        return {"geodesic.cost_mean": float(np.mean([s.cost_total for _, s in done]))}


# --- path ------------------------------------------------------------------


class Path(Workload):
    """solve_discrete_path on one continuation round of three descent steps.

    Every (n, N) class runs at an epsilon on either side of 1, where
    rotation and scaling cost the same per unit norm.  The n = 3, N = 20
    class has two pairs per epsilon, so it holds the median call between the
    faster n = 2 class and the slower N = 50 class.  At the default twelve rounds the number of rounds
    a pair needs (one to three here) swung a solve's time by up to 2.4x from
    seed to seed; one round fixes the descent work per solve, and
    ``path.converged_frac`` reports how many met ``tol_end`` within it.  The
    three-step budget (the default is eight) keeps a pass near 8 s, so a run
    times every input at least twice.
    """

    name = "path"
    CASES = tuple((n, N, eps) for n, N, pairs in ((2, 20, 1), (3, 20, 2), (3, 50, 1))
                  for _ in range(pairs) for eps in (0.3, 3.0))
    MAX_ROUNDS = 1
    MAX_ITERS = 3
    params = {"cases (n, N, eps)": CASES, "max_rounds": MAX_ROUNDS, "max_iters": MAX_ITERS,
              "tol_end": "default (1e-4)", "endpoints": "as in geodesic"}

    def make_inputs(self):
        return [(n, N, eps, *random_pair(self.rng, n)) for n, N, eps in self.CASES]

    def describe(self, i):
        n, N, eps, _, _ = self.items[i]
        return f"n={n} N={N} eps={eps}"

    def warmup(self):
        transcription.solve_discrete_path(
            np.diag([0.7, 0.3]), np.diag([0.4, 0.6]), 1.0, steps=4, max_rounds=1)

    def call(self, i, tracing=False, ref=None):
        n, N, eps, rho0, rho1 = self.items[i]
        return transcription.solve_discrete_path(
            rho0, rho1, eps, steps=N, max_rounds=self.MAX_ROUNDS, max_iters=self.MAX_ITERS)

    def check(self, i, dp):
        n, N, eps, rho0, rho1 = self.items[i]
        tol_end = 1e-4
        if dp.converged != (dp.endpoint_residual <= tol_end):
            return (f"converged={dp.converged} but endpoint_residual="
                    f"{dp.endpoint_residual:.6g} vs tol_end={tol_end}")
        if not _close(dp.states[0], rho0):
            return "states[0] != rho0"
        traces = np.trace(dp.states, axis1=1, axis2=2)
        if np.abs(traces - np.trace(rho0)).max() > TOL:
            return "trace not kept along the path"
        return None

    def quality(self, done):
        ratios = []
        for i, dp in done:
            n, N, eps, rho0, rho1 = self.items[i]
            ratios.append(dp.cost / geodesic.solve_geodesic(rho0, rho1, eps).cost_total)
        return {"path.cost_ratio": float(np.median(ratios))}

    def counters(self, done):
        return {
            "path.rounds": sum(dp.rounds for _, dp in done),
            "path.accepted_steps": sum(len(t) - 1 for _, dp in done for t in dp.objective_trace),
            "path.converged_frac": float(np.mean([dp.converged for _, dp in done])),
        }


# --- regularize ------------------------------------------------------------


class Regularize(Workload):
    """solve_regularization on synth_noisy_path datasets, on a sweep budget.

    At library defaults a fit runs until the relative decrease per sweep
    drops below 1e-8: 3 to 18 s at n = 2 and minutes at n = 3, varying
    with the data.  A fixed sweep budget keeps the work per fit steady;
    ``regularize.converged_frac`` reports how many fits met the stop rule.
    """

    name = "regularize"
    SAMPLES = 20
    NOISE = 0.03
    ROTATION = 1.0  # scale of the generating X
    # n: (datasets, multi-starts, sweep budget per start); the budgets make
    # an n = 2 fit about as long as an n = 3 fit, so the median call does not
    # sit on the boundary between two classes of different cost
    FITS = {2: (2, 5, 40), 3: (2, 1, 80)}
    params = {"n": sorted(FITS), "datasets": {n: f[0] for n, f in FITS.items()},
              "seeds": {n: f[1] for n, f in FITS.items()},
              "max_iters": {n: f[2] for n, f in FITS.items()},
              "samples": f"{SAMPLES} at t = k/{SAMPLES}", "noise": NOISE,
              "generator": "rho0 = V diag(s0) V* with Haar V, z = s1 - s0 (spectra as in "
                           "geodesic), random traceless skew X of scale 1"}

    def make_inputs(self):
        times = np.arange(1, self.SAMPLES + 1) / self.SAMPLES
        items = []
        for n, (count, seeds, budget) in self.FITS.items():
            for _ in range(count):
                s0, s1 = spectra(n)
                V = haar_unitary(self.rng, n)
                rho0 = (V * s0) @ V.conj().T
                X = random_skew(self.rng, n, self.ROTATION)
                z = s1 - s0
                noise_seed = int(self.rng.integers(2**31))
                samples = regularize.synth_noisy_path(
                    rho0, X, z, times, noise_amp=self.NOISE, seed=noise_seed)
                truth = regularize.RegularizedModel(V=V, p=s0, z=z, X=X, objective=0.0)
                items.append((n, seeds, budget, samples, truth))
        return items

    def describe(self, i):
        n, seeds, budget, _, _ = self.items[i]
        return f"n={n} seeds={seeds} max_iters={budget}"

    def warmup(self):
        samples = [regularize.MatrixSample(t, np.diag([0.7 - 0.3 * t, 0.3 + 0.3 * t]))
                   for t in (0.0, 0.5, 1.0)]
        regularize.solve_regularization(samples, seeds=1, max_iters=2)

    def call(self, i, tracing=False, ref=None):
        n, seeds, budget, samples, _ = self.items[i]
        return regularize.solve_regularization(samples, seeds=seeds, max_iters=budget)

    def check(self, i, m):
        if m.p.min() < -TOL:
            return "p < 0"
        if (m.p + m.z).min() < -TOL:
            return "p + z < 0"
        if abs(m.z.sum()) > TOL:
            return "sum(z) != 0"
        if not _close(m.V.conj().T @ m.V, np.eye(len(m.p))):
            return "V is not unitary"
        if not _close(m.X, -m.X.conj().T, _norm(m.X)):
            return "X is not skew-Hermitian"
        if abs(np.trace(m.X)) > TOL:
            return "X is not traceless"
        return None

    def quality(self, done):
        ratios = [m.objective / regularize.residual(self.items[i][4], self.items[i][3])
                  for i, m in done]
        return {"regularize.objective_ratio": float(np.median(ratios))}

    def counters(self, done):
        return {
            "regularize.accepted_steps": sum(len(m.history) - 1 for _, m in done),
            "regularize.converged_frac": float(np.mean([not m.stalled for _, m in done])),
        }


# --- cli -------------------------------------------------------------------


def _matrix_doc(M, kind="hermitian"):
    M = np.asarray(M, dtype=complex)
    return {"n": int(M.shape[0]), "kind": kind,
            "re": M.real.tolist(), "im": M.imag.tolist()}


class Cli(Workload):
    """A fixed command sequence, each command in a fresh interpreter.

    The time goes to interpreter start, ``import denflow`` and output
    formatting, so this is where import cost and document I/O show.
    """

    name = "cli"
    IN_PROCESS = False
    SAMPLES = 1001
    EPSILON = 10.0
    SYNTH_TIMES = "0.01:0.01:1"
    # two n = 2 interpolations, so the median call falls inside that class
    # rather than on the boundary between the synth and interpolate classes
    PAIRS = (2, 2, 3)
    params = {"commands": ["interpolate n=2", "interpolate n=2", "interpolate n=3",
                           "decompose n=3", "synth n=3"],
              "interpolate": f"--epsilon {EPSILON} --samples {SAMPLES} --format json --glyphs",
              "synth": f"--times {SYNTH_TIMES} (100 times) --noise 0.03 --complex-noise",
              "process": "python3 perfbench/child.py per command"}

    def __init__(self, seed, work_dir):
        self.calls = 0
        self.trace_files: list = []
        self.max_rss_mb = 0.0
        super().__init__(seed, work_dir)

    def _save(self, name, M, kind="hermitian"):
        path = os.path.join(self.work_dir, "inputs", name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_matrix_doc(M, kind), fh)
        return path

    def make_inputs(self):
        os.makedirs(os.path.join(self.work_dir, "inputs"), exist_ok=True)
        rng = self.rng
        items = []
        for k, n in enumerate(self.PAIRS):
            rho0, rho1 = random_pair(rng, n)
            a = self._save(f"rho0_{k}.json", rho0)
            b = self._save(f"rho1_{k}.json", rho1)
            items.append((f"interpolate n={n}", [
                "interpolate", "--rho0", a, "--rho1", b, "--epsilon", str(self.EPSILON),
                "--samples", str(self.SAMPLES), "--format", "json", "--glyphs", "--quiet"]))
        rho = self._save("rho.json", random_state(rng, 3))
        D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        direction = self._save("direction.json", (D + D.conj().T) / 2)
        items.append(("decompose n=3", ["decompose", "--rho", rho, "--direction", direction,
                                        "--quiet"]))
        rho0 = random_state(rng, 3)
        x = self._save("x.json", random_skew(rng, 3, 1.0), kind="skew")
        # "--z=" form: a list starting with a minus sign would otherwise
        # be read as an option
        z = ",".join(repr(float(v)) for v in random_drift(rng, rho0))
        items.append(("synth n=3", [
            "synth", "--rho0", self._save("synth_rho0.json", rho0), "--x", x, f"--z={z}",
            "--times", self.SYNTH_TIMES, "--noise", "0.03",
            "--seed", str(int(rng.integers(2**31))), "--complex-noise", "--quiet"]))
        return items

    def describe(self, i):
        return self.items[i][0]

    def warmup(self):
        import denflow.cli  # noqa: F401  (the checks parse documents with it)

    def call(self, i, tracing=False, ref=None):
        label, argv = self.items[i]
        k = self.calls
        self.calls += 1
        out = os.path.join(self.work_dir, f"call{k}")
        os.makedirs(out)
        cmd = [sys.executable, str(HERE / "child.py")]
        if tracing:
            trace = os.path.join(self.work_dir, f"trace{k}.json")
            self.trace_files.append((i, trace))
            cmd += ["--trace", trace]
        if ref is not None:
            timings = os.path.join(self.work_dir, f"ref{k}.json")
            cmd += ["--ref", timings]
        cmd += ["--", *argv, "--out", out]
        with open(os.path.join(out, "stderr.txt"), "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.work_dir, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_mb = max(self.max_rss_mb, usage.ru_maxrss / 1024.0)
        if ref is not None and os.path.exists(timings):
            with open(timings, encoding="utf-8") as fh:
                doc = json.load(fh)
            ref.add(doc["times"], doc["inside"])
        return {"code": proc.returncode, "out": out}

    def check(self, i, res):
        from denflow.cli import DocumentError, doc_to_matrix, load_samples

        label = self.items[i][0]
        out = res["out"]
        if res["code"] != 0:
            with open(os.path.join(out, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            return f"exit code {res['code']} {tail}"
        try:
            if label.startswith("interpolate"):
                with open(os.path.join(out, "solution.json"), encoding="utf-8") as fh:
                    sol = json.load(fh)
                doc_to_matrix(sol["X"], kind="skew")
                doc_to_matrix(sol["Z"])
                if len(load_samples(os.path.join(out, "path.json"))) != self.SAMPLES:
                    return "path.json sample count"
                with open(os.path.join(out, "glyphs.json"), encoding="utf-8") as fh:
                    if len(json.load(fh)) != self.SAMPLES:
                        return "glyphs.json record count"
            elif label.startswith("decompose"):
                with open(os.path.join(out, "decomposition.json"), encoding="utf-8") as fh:
                    doc = json.load(fh)
                doc_to_matrix(doc["X"], kind="skew")
                doc_to_matrix(doc["rotation_part"])
                doc_to_matrix(doc["scaling_part"])
            else:
                if len(load_samples(os.path.join(out, "dataset.json"))) != 100:
                    return "dataset.json sample count"
        except (OSError, KeyError, ValueError, DocumentError) as exc:
            return f"output does not parse back: {exc!r}"
        return None

    def counters(self, done):
        size = 0
        for _, res in done:
            for root, _, files in os.walk(res["out"]):
                size += sum(os.path.getsize(os.path.join(root, f))
                            for f in files if f != "stderr.txt")
        return {"cli.bytes_out": size}

    def child_spans(self):
        from tracer import load_spans

        recordings, matrices = [], {}
        for i, path in self.trace_files:
            spans, counts = load_spans(path)
            recordings.append([(n, a, b, p, i) for n, a, b, p, _ in spans])
            for k, v in counts.items():
                matrices[k] = matrices.get(k, 0) + v
        self.trace_files = []
        return recordings, matrices

    def peak_rss_mb(self):
        return self.max_rss_mb


WORKLOADS = {w.name: w for w in (Geodesic, Path, Regularize, Cli)}


def import_seconds(repeats=3):
    """Median time of ``import denflow`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import denflow; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        times.append(float(res.stdout.strip()))
    return statistics.median(times)
