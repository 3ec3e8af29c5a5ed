"""In-memory spans around the calls into each frustra_gp module.

Spans are recorded from the benchmark's own files: `install` replaces each
public function with a timing wrapper at every place a calling module looks
it up (`frustra_gp.experiments.rotation_matrices`, not only
`frustra_gp.dynamics.rotation_matrices`), and `uninstall` puts the
originals back.  A function that no longer exists is skipped, so its layer
metrics read 0 calls instead of failing.

A span opened on a worker thread that has no open span of its own is a
child of the innermost span open on the thread that created the tracer:
the sweep's thread pool works on behalf of the call that is waiting for it.
`tracemalloc` runs only inside the `rotation_matrices` and
`oracle_trajectory` spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import frustra_gp
from frustra_gp import auto_time_grid, sector_weights
from frustra_gp.errors import IndeterminatePhaseError


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    error: str | None = None
    info: dict = field(default_factory=dict)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _rotation_info(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    return {
        "S": len(sector_weights(a["config"].bath_size)) ** 2,
        "n": len(a["times"]),
    }


def _surface_info(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    grid = a["grid"]
    if a["time_steps"] is not None:
        n = a["time_steps"]
    else:
        n = auto_time_grid(a["config"], a["t"], a["sampling_factor"]).n_steps
    info = {"cells": grid.n_theta * grid.n_phi, "n": n, "threads": a["threads"]}
    if result is not None:
        info["indeterminate"] = int(np.count_nonzero(~np.isfinite(result.gamma)))
        info["singular"] = int(result.singular_count.sum())
    return info


def _closed_form_info(fn, args, kwargs, result) -> dict:
    track = args[0] if args else kwargs["track"]
    info = {"n": track.n_steps}
    if result is not None:
        info["singular"] = result.diagnostics.singular_nodes
    return info


def _oracle_info(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    return {"dim": 2 * 4 ** a["config"].bath_size, "n": a["grid"].n_steps}


# span name -> (modules whose lookup is wrapped, info extractor, trace allocations)
WRAPPED = {
    "cli.run": (("cli",), None, False),
    "experiments.strategy_compare": (("cli",), None, False),
    "experiments.gp_surface": (("cli", "experiments"), _surface_info, False),
    "experiments.verify_suite": (("cli",), None, False),
    "experiments.auto_time_grid": (("cli", "experiments"), None, False),
    "dynamics.rotation_matrices": (("dynamics", "experiments"), _rotation_info, True),
    "phase.gp_closed_form": (("cli", "experiments"), _closed_form_info, False),
    "phase.polar_track": (("cli", "experiments"), None, False),
    "phase.gp_discrete_holonomy": (("cli", "experiments"), None, False),
    "oracle.oracle_trajectory": (("experiments",), _oracle_info, True),
    "model.sector_weights": (("dynamics", "experiments"), None, False),
}


class Tracer:
    """Records spans while enabled; create it on the thread that runs the CLI."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.enabled = False
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, info=None, trace_alloc: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None
            )
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            stack.append(idx)
            alloc = trace_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            result = None
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(name, start, end, parent, threading.get_ident(), error)
                if alloc:
                    span.info["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if info is not None:
                    span.info.update(info(fn, args, kwargs, result))
                self.spans[idx] = span

        return wrapper

    def install(self) -> None:
        for name, (callers, info, trace_alloc) in WRAPPED.items():
            attr = name.split(".", 1)[1]
            for caller in callers:
                module = getattr(frustra_gp, caller)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._installed.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, info, trace_alloc))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (s.end - s.start) - union_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def _under(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one operation's spans (see BENCHMARK.json)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {name: [] for name in WRAPPED}
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return union_length((spans[i].start, spans[i].end) for i in by_name[name])

    def self_s(names):
        return sum(selfs[i] for name in names for i in by_name[name])

    def peak_mb(name):
        peaks = (spans[i].info.get("peak_alloc_b", 0) for i in by_name[name])
        return max(peaks, default=0) / 2**20

    rot = [spans[i].info for i in by_name["dynamics.rotation_matrices"]]
    surf = [spans[i].info for i in by_name["experiments.gp_surface"]]
    # Closed-form calls outside a sweep are cells of their own; inside a
    # sweep the sweep's grid already counts them.
    lone = [
        i
        for i in by_name["phase.gp_closed_form"]
        if not _under(spans, i, "experiments.gp_surface")
    ]
    sector_nodes = sum(r["S"] * r["n"] for r in rot)
    # Self time of the whole experiments layer: on compare-n20 it is the
    # sweep's per-cell loop, and unlike gp_surface.self_s it is measured on
    # every workload.
    experiments = [n for n in WRAPPED if n.startswith("experiments.")]
    return {
        "dynamics.rotation_matrices.calls": calls("dynamics.rotation_matrices"),
        "dynamics.rotation_matrices.busy_s": busy("dynamics.rotation_matrices"),
        "dynamics.rotation_matrices.peak_alloc_mb": peak_mb("dynamics.rotation_matrices"),
        "dynamics.sectors": max((r["S"] for r in rot), default=0),
        "dynamics.time_nodes": sum(r["n"] for r in rot),
        "dynamics.sector_nodes": sector_nodes,
        "dynamics.bytes_computed": 8 * sector_nodes,
        "experiments.gp_surface.calls": calls("experiments.gp_surface"),
        "experiments.gp_surface.busy_s": busy("experiments.gp_surface"),
        "experiments.gp_surface.self_s": self_s(["experiments.gp_surface"]),
        "experiments.strategy_compare.busy_s": busy("experiments.strategy_compare"),
        "experiments.verify_suite.busy_s": busy("experiments.verify_suite"),
        "experiments.self_s": self_s(experiments),
        "phase.gp_closed_form.calls": calls("phase.gp_closed_form"),
        "phase.gp_closed_form.busy_s": busy("phase.gp_closed_form"),
        "phase.cells": sum(s["cells"] for s in surf) + len(lone),
        "phase.cell_nodes": sum(s["cells"] * s["n"] for s in surf)
        + sum(spans[i].info["n"] for i in lone),
        "phase.indeterminate_cells": sum(s["indeterminate"] for s in surf if "indeterminate" in s)
        + sum(spans[i].error == IndeterminatePhaseError.__name__ for i in lone),
        "phase.singular_nodes": sum(s["singular"] for s in surf if "singular" in s)
        + sum(spans[i].info.get("singular", 0) for i in lone),
        "phase.polar_track.busy_s": busy("phase.polar_track"),
        "phase.gp_discrete_holonomy.calls": calls("phase.gp_discrete_holonomy"),
        "phase.gp_discrete_holonomy.busy_s": busy("phase.gp_discrete_holonomy"),
        "oracle.oracle_trajectory.calls": calls("oracle.oracle_trajectory"),
        "oracle.oracle_trajectory.busy_s": busy("oracle.oracle_trajectory"),
        "oracle.oracle_trajectory.peak_alloc_mb": peak_mb("oracle.oracle_trajectory"),
        "oracle.max_dim": max(
            (spans[i].info["dim"] for i in by_name["oracle.oracle_trajectory"]), default=0
        ),
        "model.sector_weights.calls": calls("model.sector_weights"),
        "model.sector_weights.busy_s": busy("model.sector_weights"),
        "cli.run.busy_s": busy("cli.run"),
        "cli.self_s": self_s(["cli.run"]),
    }
