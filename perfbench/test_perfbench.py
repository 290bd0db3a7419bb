"""Tests of the benchmark's own machinery: tracer restore, self-time
arithmetic, the reference loop, and BENCHMARK.json matching its definition.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import pathlib
import sys
import types

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import tracer as tr  # noqa: E402


def test_install_rebinds_consumers_and_restore_puts_originals_back():
    import denflow.geodesic
    import denflow.linalg
    import denflow.transcription
    import scipy.optimize

    before = {
        (mod, attr): vars(mod)[attr]
        for mod, attr in [
            (denflow.transcription, "solve_geodesic"),
            (denflow.geodesic, "solve_geodesic"),
            (denflow.geodesic, "golden"),
            (denflow.geodesic, "eig_hermitian"),
            (denflow.linalg, "eig_hermitian"),
            (np.linalg, "eigh"),
            (scipy.optimize, "golden"),
        ]
    }
    assert tr.wrapped_bindings() == []
    t = tr.Tracer().install()
    try:
        for (mod, attr), original in before.items():
            assert vars(mod)[attr] is not original
            assert vars(mod)[attr].__wrapped__ is original
        denflow.transcription.solve_geodesic(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]), 1.0)
    finally:
        t.restore()
    for (mod, attr), original in before.items():
        assert vars(mod)[attr] is original
    assert tr.wrapped_bindings() == []
    names = {s[0] for s in t.spans}
    assert {"geodesic.solve_geodesic", "linalg.eig_hermitian", "scipy.optimize.golden",
            "numpy.linalg.eigvalsh"} <= names
    # every call below the solve points back at it
    assert t.spans[0][0] == "geodesic.solve_geodesic" and t.spans[0][3] == -1
    assert all(s[3] >= 0 for s in t.spans[1:])


def test_restore_after_an_exception():
    import denflow.linalg

    original = denflow.linalg.eig_hermitian
    t = tr.Tracer().install()
    try:
        with pytest.raises(ValueError):
            denflow.linalg.eig_hermitian(np.zeros((2, 3)))
    finally:
        t.restore()
    assert denflow.linalg.eig_hermitian is original
    assert [s[0] for s in t.spans] == ["linalg.eig_hermitian"]
    assert t._stack == []


def test_batched_kernels_count_matrices():
    t = tr.Tracer().install()
    try:
        np.linalg.eigh(np.eye(3))
        np.linalg.eigvalsh(np.stack([np.eye(2)] * 5))
    finally:
        t.restore()
    assert t.matrices == {"numpy.linalg.eigh": 1, "numpy.linalg.eigvalsh": 5}


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ("outer", 0.0, 10.0, -1, 0),
        ("inner", 1.0, 3.0, 0, 0),
        ("leaf", 1.5, 2.0, 1, 0),
        ("inner", 5.0, 6.0, 0, 0),
        ("outer", 20.0, 21.0, -1, 1),
    ]
    got = tr.summarize(spans)
    assert got["outer"] == [2, 11.0, 8.0]
    assert got["inner"] == [2, 3.0, 2.5]
    assert got["leaf"] == [1, 0.5, 0.5]
    # overlapping or out-of-range child intervals count once, clipped
    assert tr._covered([(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)], 0.0, 10.0) == 4.0


def test_self_time_on_a_live_nested_call():
    mod = types.ModuleType("perfbench_synthetic")
    sys.modules[mod.__name__] = mod
    try:
        def inner(x):
            return sum(i * i for i in range(x))

        def outer(x):
            return mod.inner(x) + mod.inner(x)

        mod.inner, mod.outer = inner, outer
        targets = (("s.outer", mod.__name__, "outer"), ("s.inner", mod.__name__, "inner"))
        t = tr.Tracer().install(targets)
        try:
            mod.outer(20000)
        finally:
            t.restore()
        assert mod.outer is outer and mod.inner is inner
    finally:
        del sys.modules[mod.__name__]
    got = tr.summarize(t.spans)
    assert got["s.outer"][0] == 1 and got["s.inner"][0] == 2
    assert [s[3] for s in t.spans] == [-1, 0, 0]
    outer_total, outer_self = got["s.outer"][1:]
    assert outer_self == pytest.approx(outer_total - got["s.inner"][1], abs=1e-12)
    assert 0.0 < outer_self < outer_total


def test_concat_keeps_parents_inside_each_recording():
    a = [("x", 0.0, 2.0, -1, 0), ("y", 0.5, 1.0, 0, 0)]
    b = [("x", 3.0, 4.0, -1, 1), ("y", 3.1, 3.2, 0, 1)]
    joined = tr.concat([a, b])
    assert [s[3] for s in joined] == [-1, 0, -1, 2]
    assert tr.summarize(joined)["x"] == [2, 3.0, pytest.approx(2.4)]


def test_reference_loop_runs_unwrapped_under_a_tracer():
    from reference import Reference

    ref = Reference()
    t = tr.Tracer().install()
    try:
        ref.sample()
        with pytest.raises(RuntimeError):
            Reference()
    finally:
        t.restore()
    assert t.spans == [] and t.matrices["numpy.linalg.eigvalsh"] == 0
    assert len(ref.times) == Reference.SAMPLES
    assert ref.unit() == pytest.approx(sum(ref.times) / len(ref.times))


def test_timed_call_takes_inside_timings_out_of_the_call():
    import signal
    from time import perf_counter

    import run
    from reference import Reference

    def busy():
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
        return "done"

    ref = Reference()
    handler = signal.getsignal(signal.SIGPROF)
    t0 = perf_counter()
    elapsed, unit, res = ref.timed_call(busy, sample_here=True)
    outer = perf_counter() - t0
    during = ref.times[Reference.SAMPLES:]
    assert res == "done" and len(during) >= 2
    assert unit == pytest.approx(sum(during) / len(during))
    before = sum(ref.times[:Reference.SAMPLES])
    assert elapsed == pytest.approx(outer - before - ref.inside, abs=0.01)
    assert ref.inside >= sum(during)
    # the timer and handler are gone after the call
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is handler

    # no timing inside the call: no local unit, so the run's mean applies
    elapsed, unit, res = ref.timed_call(lambda: 1 / 0, sample_here=False)
    assert isinstance(res, ZeroDivisionError) and unit is None
    assert run.in_units([(elapsed, unit, res), (1.0, 0.5, None)], 0.25) == [elapsed / 0.25, 2.0]


def test_child_writes_its_reference_timings_and_restores_the_handler(tmp_path, capsys):
    import json
    import signal

    import child

    out = tmp_path / "ref.json"
    handler = signal.getsignal(signal.SIGPROF)
    with pytest.raises(SystemExit):
        child.main(["--ref", str(out), "--", "--help"])
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"times", "inside"} and doc["inside"] >= sum(doc["times"])


def test_benchmark_json_matches_the_definition():
    committed = (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    assert committed == spec.render()
    names = [m["name"] for m in spec.benchmark_json()["per_layer"]]
    assert len(names) == len(set(names)) <= 128
    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())
