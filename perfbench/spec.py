"""The benchmark's definition: run length, workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is generated from this file:

    python3 perfbench/spec.py          # rewrite BENCHMARK.json
"""

import json
import pathlib

from tracer import BATCHED, SPAN_NAMES

RUN_SECONDS = 20

WORKLOADS = (
    ("geodesic",
     "gauge search (golden + eigvalsh scoring) over all n! matchings; small eps "
     "searches every matching, eps=10 prunes most, so matching and gauge changes show"),
    ("path",
     "finite-difference gradient of the discretized path: O(N^2) batched eigh per "
     "iteration; N=20 vs N=50 separates per-step from per-pair cost"),
    ("regularize",
     "block finite-difference regularizer on a sweep budget; only n=3 reaches the "
     "Jacobi eig_hermitian through expm_skew, n=2 takes the closed form"),
    ("cli",
     "fresh interpreter per command: import time, document I/O, glyph eig_hermitian "
     "calls, split_tangent and synth; the only workload where import cost shows"),
)

# name, unit, better, bound (largest share of the parent's median a change
# may lose before it counts as a regression)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_ref", "ref", "lower", 0.25),
    ("call_ref.p50", "ref", "lower", 0.25),
    ("call_ref.tail", "ref", "lower", 0.25),
    ("ok_frac", "1", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("geodesic.cost_mean", "1", "lower", 0.2),
    ("path.cost_ratio", "1", "lower", 0.02),
    ("regularize.objective_ratio", "1", "lower", 0.1),
)
# quality metrics a workload does not compute read this neutral value
NOT_MEASURED = 1.0
QUALITY = ("geodesic.cost_mean", "path.cost_ratio", "regularize.objective_ratio")

COUNTERS = (
    ("path.rounds", "count", "lower"),
    ("path.accepted_steps", "count", "lower"),
    ("path.converged_frac", "1", "higher"),
    ("regularize.accepted_steps", "count", "lower"),
    ("regularize.converged_frac", "1", "higher"),
    ("cli.bytes_out", "bytes", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
)


def per_layer():
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.total_s", "s", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in BATCHED:
            out.append((f"{name}.matrices", "count", "lower"))
    return tuple(out) + COUNTERS


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


def render():
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    target = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(render(), encoding="utf-8")
