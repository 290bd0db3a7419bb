"""The reference loop: the unit the benchmark's call times are reported in.

It imports only numpy and the standard library, so that a child process
of the ``cli`` workload can time it without loading the rest of the
benchmark.
"""

import signal
import statistics
from time import perf_counter


class Reference:
    """A fixed loop of small numpy calls, timed before and during each call.

    On a shared host the speed of one core drifts by tens of percent within
    seconds and over minutes, and a call slows or speeds up with it.  The
    loop runs the same kind of code as the workloads (Python-level
    iteration over 3x3 ``eigvalsh`` and matrix products) on fixed inputs
    that no seed or denflow change touches, so its time is a unit of the
    machine's speed at that moment.  It is timed ``SAMPLES`` times before
    every call and once every ``PERIOD`` seconds of CPU time inside the
    call, from a signal handler whose time is taken out of the call's; for
    a call that runs a child process, the child does the timing inside.  ``eigvalsh`` is bound when the reference
    is made, before any tracer wraps ``numpy.linalg``.
    """

    SAMPLES = 5  # loop timings before every call
    ITERS = 100  # iterations per timing: about 1 ms on a 2.1 GHz Xeon core
    PERIOD = 0.05  # seconds of process CPU time between timings inside a call

    def __init__(self):
        import numpy

        self.eigvalsh = numpy.linalg.eigvalsh
        if hasattr(self.eigvalsh, "__perfbench_span__"):
            raise RuntimeError("reference made while a tracer is installed")
        rng = numpy.random.default_rng(0)
        B = rng.normal(size=(8, 3, 3)) + 1j * rng.normal(size=(8, 3, 3))
        self.mats = list(B + B.conj().transpose(0, 2, 1))
        self.times = []
        self.inside = 0.0  # seconds spent in timings made inside calls

    def loop(self):
        acc = 0.0
        for k in range(self.ITERS):
            A = self.mats[k % len(self.mats)]
            acc += float(self.eigvalsh(A)[-1]) + float((A @ A)[0, 0].real)
        return acc

    def timing(self):
        t0 = perf_counter()
        self.loop()
        dt = perf_counter() - t0
        self.times.append(dt)
        return dt

    def sample(self):
        for _ in range(self.SAMPLES):
            self.timing()

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.timing()
        self.inside += perf_counter() - t0

    def start(self):
        """Time the loop every ``PERIOD`` seconds of this process's CPU time."""
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD, self.PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def add(self, times, inside):
        """Take in the timings a child process made inside a call."""
        self.times.extend(times)
        self.inside += inside

    def timed_call(self, fn, sample_here):
        """(seconds fn took, net of timings inside it; local unit; result).

        With ``sample_here`` the loop is timed in this process during the
        call; a call that runs a child process may instead ``add`` the
        timings the child made.  The local unit is the mean of the timings
        made during the call, or None when there were none (a call shorter
        than ``PERIOD``, or one run untimed).  A mean, not a median: the
        loop's time switches between a fast and a slow level as the host's
        load comes and goes, and a call's time follows the share of it spent
        at each level, which the mean tracks.
        """
        first = len(self.times)
        self.sample()
        inside = self.inside
        if sample_here:
            self.start()
        t0 = perf_counter()
        try:
            res = fn()
        except Exception as exc:  # reported as a failed call
            res = exc
        finally:
            elapsed = perf_counter() - t0
            if sample_here:
                self.stop()
        during = self.times[first + self.SAMPLES:]
        local = statistics.fmean(during) if during else None
        return elapsed - (self.inside - inside), local, res

    def unit(self):
        """Mean loop time over the run, in seconds."""
        return statistics.fmean(self.times)
