"""denflow benchmark: one workload, one seed, one process, one call in flight.

    python3 perfbench/run.py --workload {geodesic,path,regularize,cli}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it imports denflow from ``src/`` there
and refuses to run without it.  Inputs come from ``--seed`` alone.  The
calls form a closed loop with one client: the next call starts when the
previous one returns.

``--trace 0`` repeats whole passes over the inputs for about ``--seconds``
and reports the end-to-end metrics; no tracer is installed.  Call and pass
times are reported in units of a fixed reference loop that the run times
before and inside its calls (see ``Reference``), so that the machine's own
speed, which drifts by tens of percent on a shared host, cancels.  ``--trace 1``
times one plain pass and one traced pass and reports the per-layer
metrics; the spans go to ``perfbench/_out/``.  Every output is checked
after timing.  Human-readable lines come first; the last line of standard
output is the JSON result.
"""

import os

# every matrix here is 5x5 or smaller: keep BLAS and OpenMP on one thread,
# here and in every child process (they inherit the environment)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

from reference import Reference  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"  # input documents and command outputs, removed at exit
OUT = HERE / "_out"  # span recordings of traced runs
SETUP_REPEATS = 5


def import_package():
    """Import denflow from this checkout's sources, never from elsewhere."""
    pkg = SRC / "denflow"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: {pkg} not found; run from the root of a denflow checkout")
    sys.path.insert(0, str(SRC))
    # child processes (set-up probes, CLI commands) import the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import denflow

    if pathlib.Path(denflow.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported denflow from {denflow.__file__}, not {pkg}")


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_seconds(args):
    """Median, over fresh processes, of start-up to ready for the first call."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def timed_passes(wl, seconds, ref, tracer=None, max_passes=None, sample_inside=True):
    """Whole passes over the inputs until one more would overrun ``seconds``.

    Returns a list of passes, each a list of (call seconds, local reference
    unit, result) per input; a call that raises leaves its exception as the
    result.
    """
    passes = []
    begin = perf_counter()
    child_ref = ref if sample_inside else None
    while True:
        calls = []
        for i in range(len(wl.items)):
            if tracer is not None:
                tracer.request = i
            calls.append(ref.timed_call(
                lambda: wl.call(i, tracing=tracer is not None, ref=child_ref),
                sample_inside and wl.IN_PROCESS))
        passes.append(calls)
        if max_passes is not None and len(passes) >= max_passes:
            return passes
        typical = statistics.median(pass_seconds(p) for p in passes)
        if perf_counter() - begin + typical > seconds:
            return passes


def pass_seconds(calls):
    return sum(t for t, _, _ in calls)


def in_units(calls, unit):
    """Each call's time in its own local unit, or in ``unit`` if it has none."""
    return [t / (u or unit) for t, u, _ in calls]


def check_passes(wl, passes):
    """(calls attempted, [(pass, input, reason)] for every failed check)."""
    attempted, failures = 0, []
    for k, calls in enumerate(passes):
        for i, (_, _, res) in enumerate(calls):
            attempted += 1
            if isinstance(res, Exception):
                reason = f"raised {res!r}"
            else:
                reason = wl.check(i, res)
            if reason:
                failures.append((k, i, reason))
    return attempted, failures


def done_pairs(calls):
    return [(i, r) for i, (_, _, r) in enumerate(calls) if not isinstance(r, Exception)]


def percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q))


def end_to_end(args, wl, spec):
    setup_s = setup_seconds(args)
    ref = Reference()
    passes = timed_passes(wl, args.seconds, ref)
    attempted, failures = check_passes(wl, passes)
    # every call in the reference unit measured while it ran
    rel = [in_units(calls, ref.unit()) for calls in passes]
    flat = [r for calls in rel for r in calls]
    per_input = [statistics.median(calls[i] for calls in rel) for i in range(len(wl.items))]
    if wl.TAIL is None:
        tail, tail_text = max(per_input), "median call of the slowest input"
    else:
        tail, tail_text = percentile(flat, wl.TAIL), f"p{wl.TAIL} of {len(flat)} calls"
    values = {
        "setup_s": setup_s,
        "wall_ref": statistics.median(map(sum, rel)),
        "call_ref.p50": statistics.median(flat),
        "call_ref.tail": tail,
        "ok_frac": 1.0 - len(failures) / attempted,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    quality = wl.quality(done_pairs(passes[0]))
    for name in spec.QUALITY:
        values[name] = quality.get(name, spec.NOT_MEASURED)
    for i, med in enumerate(per_input):
        secs = statistics.median(calls[i][0] for calls in passes)
        print(f"  [{i}] {wl.describe(i):<28} median call {med:10.2f} ref {secs:.4f} s")
    print(f"passes: {len(passes)}, calls: {len(flat)}, call_ref.tail: {tail_text}")
    print(f"in seconds: median pass {statistics.median(map(pass_seconds, passes)):.4f} s; "
          f"reference unit: mean {ref.unit() * 1e3:.4f} ms over {len(ref.times)} "
          f"loops, {ref.inside:.3f} s of them inside calls")
    print(f"fail_frac: {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for name in spec.QUALITY:
        if name not in quality:
            print(f"{name}: not computed on this workload, reported as {spec.NOT_MEASURED}")
    return values, attempted, failures, spec.END_TO_END


def per_layer(args, wl, spec):
    from tracer import Tracer, concat, dump_spans, summarize, wrapped_bindings

    from workloads import import_seconds

    # no reference timings inside calls here: they would land in the spans
    plain_ref, traced_ref = Reference(), Reference()
    plain = timed_passes(wl, args.seconds, plain_ref, max_passes=1, sample_inside=False)
    tracer = Tracer().install()
    try:
        traced = timed_passes(wl, args.seconds, traced_ref, tracer=tracer, max_passes=1,
                              sample_inside=False)
    finally:
        tracer.restore()
    if wrapped_bindings():
        raise RuntimeError(f"tracer left wrappers behind: {wrapped_bindings()}")
    recordings, child_matrices = wl.child_spans()
    spans = concat([tracer.spans, *recordings])
    matrices = dict(tracer.matrices)
    for k, v in child_matrices.items():
        matrices[k] = matrices.get(k, 0) + v
    attempted, failures = check_passes(wl, plain + traced)
    for i in range(len(wl.items)):
        print(f"  [{i}] {wl.describe(i):<28} plain {plain[0][i][0]:.4f} s, "
              f"traced {traced[0][i][0]:.4f} s")

    values = {}
    for name, (calls, total, self_s) in summarize(spans).items():
        values[f"{name}.calls"] = calls
        values[f"{name}.total_s"] = total
        values[f"{name}.self_s"] = self_s
    for name, count in matrices.items():
        values[f"{name}.matrices"] = count
    values.update(wl.counters(done_pairs(traced[0])))
    values["cli.import_s"] = import_seconds()
    # both passes in reference units, so a change of machine speed between
    # them does not read as tracing overhead
    values["trace.overhead_frac"] = ((pass_seconds(traced[0]) / traced_ref.unit())
                                     / (pass_seconds(plain[0]) / plain_ref.unit()) - 1.0)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    dump_spans(path, spans, matrices, {"workload": args.workload, "seed": args.seed})
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
    layers = [(name, unit, better, None) for name, unit, better in spec.per_layer()]
    return {n: values.get(n, 0) for n, _, _, _ in layers}, attempted, failures, layers


def parse_args(argv):
    import spec

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, warm up, print 'ready' and exit "
                        "(the set-up probe the run times)")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    import_package()
    import spec
    from tracer import wrapped_bindings

    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir)
        wl.warmup()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"env: {json.dumps(environment())}")
        print(f"inputs: {json.dumps(wl.params, default=str)}")
        if args.trace:
            values, attempted, failures, table = per_layer(args, wl, spec)
        else:
            if wrapped_bindings():
                raise RuntimeError(f"untraced run found wrappers: {wrapped_bindings()}")
            values, attempted, failures, table = end_to_end(args, wl, spec)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for k, i, reason in failures:
        print(f"FAIL pass {k} input {i} ({wl.describe(i)}): {reason}")
    metrics = {}
    for name, unit, _, _ in table:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<44} {values[name]:>14.6g} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
