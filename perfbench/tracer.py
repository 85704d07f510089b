"""Layer spans for one mixedspin CLI run, recorded from outside the package.

The tracer replaces public functions at the names their callers look up
(for example ``mixedspin.sweeps.diagonalize``, which ``SpectralCache.get``
calls) with wrappers that record a span: layer name, start, end, parent span
and thread. The parent travels in a ``ContextVar``; the sweep's thread pool is
swapped for one that copies the submitting context into each task, so spans
on pool threads name the ``run_sweep`` span as their parent explicitly.

A layer's self time is its span's duration minus the part of that interval
covered by the union of its child spans. Child spans on several pool threads
overlap, so a thread-local stack (which loses the parent across threads)
would misreport the orchestration layer's self time.
"""

from __future__ import annotations

import contextvars
import importlib
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# Layers reported with calls and self time, in report order.
LAYERS = (
    "models.build_model",
    "thermal.diagonalize",
    "thermal.thermal_state",
    "thermal.weights",
    "negativity.partial_trace",
    "negativity.negativity",
    "sweeps.run_sweep",
    "cli.emit_csv",
)

# Span record fields (lists, so a wrapper can fill them in place).
NAME, START, END, PARENT, THREAD, EXTRA = range(6)


class ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._current = contextvars.ContextVar("perfbench_span", default=None)

    def wrap(self, name, fn, extra=None):
        """Return fn wrapped in a span; extra(args, result) sets the span's EXTRA field."""
        spans, current, clock = self.spans, self._current, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, current.get(), threading.get_ident(), None]
            token = current.set(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                current.reset(token)
                spans.append(rec)
            if extra is not None:
                rec[EXTRA] = extra(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the layer functions of the imported mixedspin package."""
        sweeps = importlib.import_module("mixedspin.sweeps")
        cli = importlib.import_module("mixedspin.cli")
        # `mixedspin.negativity` as an attribute is the re-exported function,
        # so the submodule has to come from the import system.
        negmod = importlib.import_module("mixedspin.negativity")

        def patch(owner, attr, name, extra=None):
            if hasattr(owner, attr):
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), extra))

        patch(sweeps, "build_model", "models.build_model")
        patch(sweeps, "diagonalize", "thermal.diagonalize",
              lambda args, result: int(result.eigenvalues.shape[0]))
        patch(sweeps, "thermal_state", "thermal.thermal_state",
              lambda args, result: 2 * int(args[0].eigenvalues.shape[0]) ** 3)
        patch(sweeps, "internal_energy", "thermal.weights")
        patch(sweeps, "log_partition", "thermal.weights")
        patch(negmod, "partial_trace", "negativity.partial_trace")
        patch(negmod, "negativity", "negativity.negativity")
        patch(sweeps.SpectralCache, "get", "sweeps.cache.get")
        patch(cli, "run_sweep", "sweeps.run_sweep")
        patch(cli, "emit_csv", "cli.emit_csv",
              lambda args, result: os.path.getsize(args[0]))
        if hasattr(sweeps, "ThreadPoolExecutor"):
            sweeps.ThreadPoolExecutor = ContextPool

    def summary(self) -> dict:
        """Per-layer calls and self time plus the counters the benchmark reports."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[PARENT] is not None:
                children[id(rec[PARENT])].append(rec)

        layers = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        gets = misses = 0
        dim = flop = csv_bytes = 0
        for rec in self.spans:
            kids = children.get(id(rec), ())
            name = rec[NAME]
            self_s = (rec[END] - rec[START]) - _covered(rec, kids)
            if name == "sweeps.cache.get":
                # A lookup is orchestration; it missed if it ran an eigensolve.
                gets += 1
                misses += any(k[NAME] == "thermal.diagonalize" for k in kids)
                layers["sweeps.run_sweep"]["self_s"] += self_s
                continue
            entry = layers[name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            if name == "thermal.diagonalize":
                dim = max(dim, rec[EXTRA] or 0)
            elif name == "thermal.thermal_state":
                flop += rec[EXTRA] or 0
            elif name == "cli.emit_csv":
                csv_bytes += rec[EXTRA] or 0
        return {"layers": layers, "cache_gets": gets, "cache_misses": misses,
                "diagonalize_dim": dim, "flop_computed": flop, "csv_bytes": csv_bytes,
                "threads": len({rec[THREAD] for rec in self.spans})}


def _covered(rec, kids) -> float:
    """Length of the union of the child intervals, clipped to rec's interval."""
    lo, hi = rec[START], rec[END]
    total = 0.0
    run_start = run_end = None
    for kid in sorted(kids, key=lambda k: k[START]):
        s, e = max(kid[START], lo), min(kid[END], hi)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total
