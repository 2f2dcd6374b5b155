"""In-memory spans around the library's layer boundaries.

A span is (name, start, end, parent, unit): ``parent`` is the index of the
enclosing span (``None`` for a unit's root) and ``unit`` identifies the
operation (an int) or set-up (a string such as ``"setup0"``) that caused
it. Spans are recorded by wrapping library functions in the module where
callers look them up -- ``texturedge.pipeline.srad`` rather than
``texturedge.enhance.srad`` for ``run_pipeline``, because ``pipeline``
imports the name -- and the originals are restored afterwards. Counts are
recorded at the same boundaries. Nothing is written until the run ends.
"""
from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple, Optional

from texturedge import enhance, evalmetrics, imgio, pipeline, segment, texture

# float64 arrays of image size that one srad iteration writes, read off
# enhance.srad: the four differences (4), grad_sq (9 ufunc results), lap (4),
# q_sq (8), c (4), nan_to_num and clip (2), and the update of u (9); the two
# padded copies (of u and of c) are counted separately
SRAD_ARRAYS_PER_ITERATION = 40
SRAD_PADDED_PER_ITERATION = 2


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    unit: object


def _srad_counts(a: dict, result) -> dict:
    h, w = result.shape
    iterations = a["params"].iterations
    arrays = SRAD_ARRAYS_PER_ITERATION * h * w + SRAD_PADDED_PER_ITERATION * (h + 2) * (w + 2)
    return {"enhance.srad.pixel_iters": h * w * iterations,
            "enhance.srad.bytes_computed": 8 * arrays * iterations}


def _map_counts(a: dict, result) -> dict:
    """rows x histogrammed columns x levels^2 x planes, as texture_map_sliding
    histograms one anchor column band per row and plane."""
    q, window = a["q"], a["window_side"]
    dx, dy = (abs(int(v)) for v in a["offset"])
    cells = 0
    if window > dx and window > dy:
        planes = 2 if a["symmetric"] else 1
        cells = q.height * (q.width + 2 * (window // 2) - dx) * q.levels ** 2 * planes
    return {"texture.map.calls": 1, "texture.map.hist_cells": cells}


def _contour_counts(a: dict, result) -> dict:
    return {"segment.contour_vertices": sum(len(c) for c in result)}


def _roc_counts(a: dict, result) -> dict:
    return {"evalmetrics.roc_points": len(result.points)}


def _pgm_counts(a: dict, result) -> dict:
    return {"imgio.bytes_written": os.stat(a["path"]).st_size}


# (span name, count function or None, [(module, attribute), ...]). Functions
# with no per-layer metric of their own are wrapped too, so that their time
# is not counted as their caller's self time.
LAYER_FUNCTIONS = [
    ("enhance.srad", _srad_counts, [(enhance, "srad"), (pipeline, "srad")]),
    ("enhance.clahe", None, [(enhance, "clahe"), (pipeline, "clahe")]),
    ("texture.quantize", None, [(texture, "quantize"), (pipeline, "quantize")]),
    ("texture.map", _map_counts, [(texture, "texture_map_sliding"),
                                  (pipeline, "texture_map_sliding")]),
    ("texture.directional_sum", None, [(texture, "directional_sum"),
                                       (pipeline, "directional_sum")]),
    ("texture.to_gray", None, [(texture, "texture_map_to_gray"),
                               (pipeline, "texture_map_to_gray")]),
    ("texture.encode_map", None, [(texture, "encode_texture_map"),
                                  (pipeline, "encode_texture_map")]),
    # pipeline reaches these through ``pipeline.seg``, the segment module
    ("segment.otsu_threshold", None, [(segment, "otsu_threshold")]),
    ("segment.binarize", None, [(segment, "binarize")]),
    ("segment.refine_mask", None, [(segment, "refine_mask")]),
    ("segment.trace_contour", _contour_counts, [(segment, "trace_contour")]),
    ("segment.mask_to_gray", None, [(segment, "mask_to_gray")]),
    ("segment.make_overlay", None, [(segment, "make_overlay")]),
    ("segment.contours_to_text", None, [(segment, "contours_to_text")]),
    ("evalmetrics.circle_mask", None, [(evalmetrics, "circle_mask"),
                                       (pipeline, "circle_mask")]),
    ("evalmetrics.confusion", None, [(evalmetrics, "confusion"), (pipeline, "confusion")]),
    ("evalmetrics.metrics", None, [(evalmetrics, "metrics"), (pipeline, "metrics")]),
    ("evalmetrics.roc_az", _roc_counts, [(evalmetrics, "roc_az"), (pipeline, "roc_az")]),
    ("evalmetrics.roc_points_csv", None, [(pipeline, "roc_points_csv")]),
    ("imgio.read_pgm", None, [(imgio, "read_pgm"), (pipeline, "read_pgm")]),
    ("imgio.write_pgm", _pgm_counts, [(imgio, "write_pgm"), (pipeline, "write_pgm")]),
    ("imgio.extract_roi", None, [(imgio, "extract_roi"), (pipeline, "extract_roi")]),
    ("pipeline.run_pipeline", None, [(pipeline, "run_pipeline")]),
    ("pipeline.write_artifacts", None, [(pipeline, "write_artifacts")]),
]


class Tracer:
    """Records spans and counts while installed; a no-op otherwise."""

    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.counts: dict = defaultdict(int)  # (unit, count name) -> total
        self._stack: list[int] = []
        self._unit = None

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._unit is None:
                return fn(*args, **kwargs)
            result = self._call(name, fn, args, kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments, result).items():
                    self.counts[(self._unit, key)] += value
            return result
        return traced

    def _call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._unit)

    @contextmanager
    def installed(self):
        """Wrap every ``LAYER_FUNCTIONS`` entry; restore the originals on exit."""
        saved = []
        try:
            for name, count, sites in LAYER_FUNCTIONS:
                for module, attr in sites:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def unit(self, unit_id, fn, *args):
        """Run ``fn(*args)`` as one unit whose root span is named after its kind."""
        self._unit = unit_id
        try:
            return self._call("setup" if isinstance(unit_id, str) else "op", fn, args, {})
        finally:
            self._unit = None


def merge(first: list[Span], second: list[Span]) -> list[Span]:
    """One list of two processes' spans, ``second``'s parents shifted."""
    shift = len(first)
    return list(first) + [
        s._replace(parent=None if s.parent is None else s.parent + shift) for s in second]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child_time)]


# (metric, unit, better, kind, source). ``self_s`` is the mean self time per
# unit and ``share`` the summed self time over the summed unit time. A unit
# is an operation where the layer runs inside operations, otherwise a set-up
# (enhance on roi_sweep). Counts are per unit by the same rule.
# ``op_calls`` counts spans whose name starts with ``source`` inside
# operations only.
PER_LAYER = [
    ("enhance.srad.self_s", "s", "lower", "self_s", "enhance.srad"),
    ("enhance.srad.share", "ratio", "lower", "share", "enhance.srad"),
    ("enhance.srad.pixel_iters", "count", "lower", "count", "enhance.srad.pixel_iters"),
    ("enhance.srad.bytes_computed", "B", "lower", "count", "enhance.srad.bytes_computed"),
    ("enhance.clahe.self_s", "s", "lower", "self_s", "enhance.clahe"),
    ("enhance.op_calls", "count", "lower", "op_calls", "enhance."),
    ("texture.map.self_s", "s", "lower", "self_s", "texture.map"),
    ("texture.map.share", "ratio", "lower", "share", "texture.map"),
    ("texture.map.calls", "count", "lower", "count", "texture.map.calls"),
    ("texture.map.hist_cells", "count", "lower", "count", "texture.map.hist_cells"),
    ("texture.quantize.self_s", "s", "lower", "self_s", "texture.quantize"),
    ("texture.directional_sum.self_s", "s", "lower", "self_s", "texture.directional_sum"),
    ("segment.otsu_threshold.self_s", "s", "lower", "self_s", "segment.otsu_threshold"),
    ("segment.refine_mask.self_s", "s", "lower", "self_s", "segment.refine_mask"),
    ("segment.trace_contour.self_s", "s", "lower", "self_s", "segment.trace_contour"),
    ("segment.contour_vertices", "count", "lower", "count", "segment.contour_vertices"),
    ("evalmetrics.roc_az.self_s", "s", "lower", "self_s", "evalmetrics.roc_az"),
    ("evalmetrics.confusion.self_s", "s", "lower", "self_s", "evalmetrics.confusion"),
    ("evalmetrics.roc_points", "count", "lower", "count", "evalmetrics.roc_points"),
    ("imgio.read_pgm.self_s", "s", "lower", "self_s", "imgio.read_pgm"),
    ("imgio.write_pgm.self_s", "s", "lower", "self_s", "imgio.write_pgm"),
    ("imgio.bytes_written", "B", "lower", "count", "imgio.bytes_written"),
    ("imgio.extract_roi.self_s", "s", "lower", "self_s", "imgio.extract_roi"),
    ("pipeline.run_pipeline.self_s", "s", "lower", "self_s", "pipeline.run_pipeline"),
    ("pipeline.write_artifacts.self_s", "s", "lower", "self_s", "pipeline.write_artifacts"),
]


def _kind(unit) -> str:
    return "setup" if isinstance(unit, str) else "op"


def layer_metrics(spans: list[Span], counts: dict) -> dict[str, float]:
    """Reduce recorded spans and counts to the ``PER_LAYER`` metrics."""
    units = {"op": set(), "setup": set()}
    unit_time = defaultdict(float)
    span_self = defaultdict(float)   # (unit kind, span name) -> summed self time
    op_calls = defaultdict(int)      # span name -> spans inside operations
    for span, own in zip(spans, self_times(spans)):
        kind = _kind(span.unit)
        if span.parent is None:
            units[kind].add(span.unit)
            unit_time[kind] += span.end - span.start
            continue
        span_self[(kind, span.name)] += own
        if kind == "op":
            op_calls[span.name] += 1
    count_sum = defaultdict(int)
    for (unit, key), value in counts.items():
        count_sum[(_kind(unit), key)] += value

    def per_unit(totals, key, over_time=False):
        for kind in ("op", "setup"):
            if (kind, key) in totals:
                base = unit_time[kind] if over_time else len(units[kind])
                return totals[(kind, key)] / base
        return 0.0

    out = {}
    for metric, _, _, kind, source in PER_LAYER:
        if kind == "op_calls":
            calls = sum(n for name, n in op_calls.items() if name.startswith(source))
            out[metric] = calls / max(len(units["op"]), 1)
        elif kind == "count":
            out[metric] = per_unit(count_sum, source)
        else:
            out[metric] = per_unit(span_self, source, over_time=(kind == "share"))
    return out
