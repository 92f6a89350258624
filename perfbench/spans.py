"""In-memory spans around the repro layers, recorded from outside.

A traced run wraps each layer's public entry point at the name its
callers look it up: a module global that other modules import by name
(``repro.rl.env`` binds ``rasterize`` and ``measure_epe`` itself, so the
wrapper replaces those bindings too) or a class attribute.  Nothing under
``src/`` changes; ``uninstall`` puts every original back.

A span is one call into a layer: name, start, end, parent span, the clip
being optimized on that thread, and an item count (masks, points,
candidates...).  Spans stay in memory and are written once, at the end.
A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Sequence


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    clip: str | None
    items: int
    thread: int


class Tracer:
    """Thread-safe span recorder: one open-span stack per thread, one
    shared list of finished spans."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[Span] = []
        self.accepted = 0
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def clip(self) -> str | None:
        return getattr(self._local, "clip", None)

    @clip.setter
    def clip(self, name: str | None) -> None:
        self._local.clip = name

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        frame = (sid, name, stack[-1][0] if stack else None, time.perf_counter())
        stack.append(frame)
        return frame

    def end(self, frame: tuple, items: int = 0) -> None:
        finish = time.perf_counter()
        stack = self._stack()
        stack.remove(frame)
        sid, name, parent, start = frame
        span = Span(sid, name, start, finish, parent, self.clip, int(items),
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)

    def take(self) -> tuple[list[Span], int]:
        """Return and forget every finished span and the accepted-move
        count."""
        with self._lock:
            spans, self.spans = self.spans, []
            accepted, self.accepted = self.accepted, 0
        return spans, accepted

    # Accepted-move bookkeeping for rl.score_moves: the states a call
    # returned stay pending until the caller shows which one it kept.
    def hold_candidates(self, states: list | None) -> None:
        self._local.pending = states

    def resolve_candidates(self, chosen) -> None:
        pending = getattr(self._local, "pending", None)
        if pending and any(state is chosen for state in pending):
            with self._lock:
                self.accepted += 1
        self._local.pending = None


def write_jsonl(spans: Iterable[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(asdict(span)) + "\n")


def covered_length(intervals: Sequence[tuple[float, float]], lo: float,
                   hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """``{sid: duration minus the union of its children's intervals}``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - covered_length(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


def layer_totals(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, summed ``items`` and summed self time
    ``s``."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "items": 0, "s": 0.0}
    )
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["items"] += span.items
        entry["s"] += own[span.sid]
    return dict(totals)


# -- the layer wrappers -------------------------------------------------------

def _first_arg_len(args, kwargs, result) -> int:
    return len(args[1]) if len(args) > 1 else 0


def _epe_points(args, kwargs, result) -> int:
    reports = result if isinstance(result, list) else [result]
    return sum(getattr(report, "count", 0) for report in reports)


def _result_len(args, kwargs, result) -> int:
    return len(result)


LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    # (span name, module, attribute path, item counter)
    ("geometry.rasterize", "repro.geometry.raster", "rasterize", None),
    ("litho.simulate_batch", "repro.litho.simulator",
     "LithographySimulator.simulate_batch", _first_arg_len),
    ("litho.simulate_epe_batch", "repro.litho.simulator",
     "LithographySimulator.simulate_epe_batch", _first_arg_len),
    ("litho.band_intensity", "repro.litho.kernels",
     "OpticalKernelSet.intensity_from_mask_ffts", None),
    ("litho.fft", "repro.backend", "ArrayBackend.fft2", None),
    ("litho.fft", "repro.backend", "ArrayBackend.ifft2", None),
    ("litho.fft", "repro.backend", "ArrayBackend.rfft2", None),
    ("litho.kernel_set", "repro.litho.kernels", "build_kernel_set", None),
    ("litho.kernel_set", "repro.litho.kernels",
     "OpticalKernelSet.band_spectra", None),
    ("metrology.epe", "repro.metrology.epe", "measure_epe", _epe_points),
    ("metrology.epe", "repro.metrology.epe", "measure_epe_batch",
     _epe_points),
    ("metrology.epe", "repro.metrology.epe", "measure_epe_sparse",
     _epe_points),
    ("metrology.epe", "repro.metrology.epe", "measure_epe_grouped",
     _epe_points),
    ("metrology.epe", "repro.metrology.epe", "measure_epe_grouped_sparse",
     _epe_points),
    ("metrology.epe", "repro.metrology.epe", "segment_epe", None),
    ("metrology.epe", "repro.metrology.epe", "segment_epe_batch", None),
    ("metrology.pvband", "repro.metrology.pvband", "pvband_area", None),
    ("metrology.pvband", "repro.metrology.pvband", "pvband_area_batch", None),
    ("squish.encode", "repro.squish.features", "NodeFeatureEncoder.encode_all",
     _result_len),
    ("graphs.build", "repro.graphs.construction", "build_segment_graph", None),
    ("core.policy_forward", "repro.core.policy", "CamoPolicy.forward", None),
    ("core.modulate", "repro.core.modulator", "Modulator.modulate", None),
    ("rl.score_moves", "repro.rl.env", "OPCEnvironment.score_moves", None),
    ("service.verify", "repro.service.scheduler", "ShapeBinScheduler.flush",
     _result_len),
    ("service.verify", "repro.service.scheduler",
     "ShapeBinScheduler.flush_ready", _result_len),
    ("service.journal", "repro.service.journal", "OutcomeJournal.append",
     None),
    ("engine.optimize", "repro.baselines.mbopc", "MBOPC.optimize", None),
    ("engine.optimize", "repro.core.agent", "CAMO.optimize", None),
)
"""Every wrapped entry point.  ``engine.optimize`` is the per-clip root
span: it names the clip for the spans under it and closes the
accepted-move bookkeeping of ``rl.score_moves``, whose item count is the
candidates it simulated exactly."""


CALLERS = ("repro.rl.env", "repro.service.scheduler", "repro.service.service")
"""Modules that import layer functions by name; loaded before patching
so that their bindings are replaced, and restored, too."""


def _wrap(tracer: Tracer, name: str, fn: Callable,
          items: Callable | None) -> Callable:
    if name == "engine.optimize":
        @functools.wraps(fn)
        def root(self, clip, *args, **kwargs):
            if not tracer.active:
                return fn(self, clip, *args, **kwargs)
            tracer.clip = clip.name
            tracer.hold_candidates(None)
            frame = tracer.begin(name)
            try:
                result = fn(self, clip, *args, **kwargs)
                tracer.resolve_candidates(result.final_state)
                return result
            finally:
                tracer.end(frame)
                tracer.clip = None
        return root

    if name == "rl.score_moves":
        @functools.wraps(fn)
        def score(self, state, candidates, *args, **kwargs):
            if not tracer.active:
                return fn(self, state, candidates, *args, **kwargs)
            tracer.resolve_candidates(state)
            frame = tracer.begin(name)
            scored = None
            try:
                scored = fn(self, state, candidates, *args, **kwargs)
                return scored
            finally:
                simulated = [pair for pair in scored or () if pair is not None]
                tracer.end(frame, len(simulated))
                tracer.hold_candidates([nxt for nxt, _ in simulated])
        return score

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.begin(name)
        count = 0
        try:
            result = fn(*args, **kwargs)
            if items is not None:
                count = items(args, kwargs, result)
            return result
        finally:
            tracer.end(frame, count)
    return wrapper


class Patches:
    """The installed wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Patches:
    """Wrap every entry point in :data:`LAYERS` for ``tracer``.

    Functions are replaced in every loaded ``repro`` module that binds
    the original object, so callers that imported them by name see the
    wrapper too; :data:`CALLERS` are imported first for that reason.
    """
    patches = Patches()
    for module_name in CALLERS + tuple(layer[1] for layer in LAYERS):
        importlib.import_module(module_name)
    for name, module_name, path, items in LAYERS:
        module = sys.modules[module_name]
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            patches.replace(owner, attr,
                            _wrap(tracer, name, owner.__dict__[attr], items))
            continue
        original = getattr(module, path)
        wrapper = _wrap(tracer, name, original, items)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and loaded.__dict__.get(path) is original):
                patches.replace(loaded, path, wrapper)
    return patches
