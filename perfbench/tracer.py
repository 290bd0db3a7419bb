"""Outside-in tracer for the denflow layers.

The package itself records nothing, so the tracer measures each layer from
outside: it replaces a public function by a timing wrapper in every module
that holds a binding to it (``denflow.transcription.solve_geodesic``,
``denflow.geodesic.golden``, ``numpy.linalg.eigh``, ...), records one span
per call with the span that was open when it started, and puts every
original binding back on ``restore``.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (span name, module that defines the name, attribute)
TARGETS = (
    ("linalg.eig_hermitian", "denflow.linalg", "eig_hermitian"),
    ("linalg.expm_skew", "denflow.linalg", "expm_skew"),
    ("linalg.eig_unitary", "denflow.linalg", "eig_unitary"),
    ("linalg.logm_unitary", "denflow.linalg", "logm_unitary"),
    ("tangent.project_commutant", "denflow.tangent", "project_commutant"),
    ("tangent.split_tangent", "denflow.tangent", "split_tangent"),
    ("geodesic.solve_geodesic", "denflow.geodesic", "solve_geodesic"),
    ("geodesic.sample_path", "denflow.geodesic", "sample_path"),
    ("transcription.solve_discrete_path", "denflow.transcription", "solve_discrete_path"),
    ("transcription.step", "denflow.transcription", "step"),
    ("regularize.solve_regularization", "denflow.regularize", "solve_regularization"),
    ("regularize.synth_noisy_path", "denflow.regularize", "synth_noisy_path"),
    ("regularize.model_path", "denflow.regularize", "model_path"),
    ("regularize.residual", "denflow.regularize", "residual"),
    ("cli.main", "denflow.cli", "main"),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh"),
    ("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("numpy.linalg.svd", "numpy.linalg", "svd"),
    ("scipy.optimize.golden", "scipy.optimize", "golden"),
)
SPAN_NAMES = tuple(t[0] for t in TARGETS)
# kernels whose first argument is a stack of matrices; the tracer sums
# the stack sizes so batching changes show as fewer calls, same matrices
BATCHED = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")

_MARK = "__perfbench_span__"


def _consumers(home, attr, original):
    """The home module plus every denflow module bound to the same object."""
    mods = [home]
    for name, mod in list(sys.modules.items()):
        if mod is None or mod is home:
            continue
        if (name == "denflow" or name.startswith("denflow.")) and vars(mod).get(attr) is original:
            mods.append(mod)
    return mods


def wrapped_bindings():
    """(module, attribute) pairs that currently hold a tracer wrapper."""
    found = []
    for _, home_name, attr in TARGETS:
        home = importlib.import_module(home_name)
        for name, mod in list(sys.modules.items()):
            if mod is None:
                continue
            if mod is home or name == "denflow" or name.startswith("denflow."):
                if hasattr(vars(mod).get(attr), _MARK):
                    found.append((name, attr))
    return found


class Tracer:
    """Span recorder over rebound functions.

    ``spans`` holds ``(name, start, end, parent, request)`` tuples, where
    ``parent`` indexes the enclosing span (-1 at the top) and ``request``
    is whatever the caller set on ``self.request`` before the call.
    """

    def __init__(self):
        self.spans: list = []
        self.matrices = {name: 0 for name in BATCHED}
        self.request = None
        self._stack: list[int] = []
        self._bindings: list = []

    def wrap(self, name, original):
        tracer = self
        batched = name in BATCHED

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if batched:
                shape = getattr(args[0], "shape", ())
                count = 1
                for d in shape[:-2]:
                    count *= d
                tracer.matrices[name] += count
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)  # reserve the slot children point at
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.request)

        setattr(traced, _MARK, name)
        return traced

    def install(self, targets=TARGETS):
        """Rebind every target in its home module and its denflow consumers."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        # import every home first: a module imported after wrapping began
        # would bind the wrappers and keep them after restore
        homes = [importlib.import_module(home_name) for _, home_name, _ in targets]
        for (name, home_name, attr), home in zip(targets, homes):
            original = getattr(home, attr)
            if hasattr(original, _MARK):
                raise RuntimeError(f"{home_name}.{attr} is already wrapped")
            traced = self.wrap(name, original)
            for mod in _consumers(home, attr, original):
                self._bindings.append((mod, attr, original))
                setattr(mod, attr, traced)
        return self

    def restore(self):
        """Put back every original binding, newest first."""
        while self._bindings:
            mod, attr, original = self._bindings.pop()
            setattr(mod, attr, original)

    def dump(self, path):
        dump_spans(path, self.spans, self.matrices)


def dump_spans(path, spans, matrices, extra=None):
    """Write spans, matrix counts and optional extra fields as one JSON document."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "names": names,
        "spans": [[index[n], a, b, p, r] for n, a, b, p, r in spans],
        "matrices": matrices,
    }
    doc.update(extra or {})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_spans(path):
    """Spans and matrix counts from a file written by ``dump_spans``."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    spans = [(names[i], a, b, p, r) for i, a, b, p, r in doc["spans"]]
    return spans, doc["matrices"]


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans):
    """Per span name: [calls, total seconds, self seconds].

    Self time is a span's duration minus the part of it that its child
    spans cover.  ``spans`` may concatenate several recordings as long as
    each parent index points into the same list.
    """
    children: dict[int, list] = {}
    for name, a, b, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((a, b))
    out: dict[str, list] = {}
    for i, (name, a, b, _, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += b - a
        row[2] += (b - a) - _covered(children.get(i, ()), a, b)
    return out


def concat(recordings):
    """Join span lists, shifting parent indices so they stay valid."""
    out = []
    for spans in recordings:
        base = len(out)
        out.extend(
            (n, a, b, p + base if p >= 0 else -1, r) for n, a, b, p, r in spans
        )
    return out
