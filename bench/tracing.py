"""Traced mode: spans around every call into a conelight layer.

`Tracer.install` replaces each public function of the five layer modules
with a wrapper, under every name any conelight module binds it to (so
`conelight.detector.evaluate` is wrapped as well as
`conelight.maps.evaluate`).  A wrapper records one span: name, start, end,
parent span and request id.  Spans are held in flat arrays in memory and
written out once the run is over; the per-layer metrics are computed from
them.  In `conelight.cli` only `dispatch`, the front end, is wrapped, so
parsing and JSON output count as the cli layer's own time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "maps", "geometry", "detector", "illumination")

# (metric, kind, span name, unit).  Kinds: "calls" = calls per request,
# "us" = mean microseconds per call, "ms" = milliseconds per request
# inside the function (children included); the rest are computed below.
PER_LAYER = (
    ("cli.dispatch.ms", "ms", "cli.dispatch", "ms"),
    ("cli.self.ms", "self_ms", "cli.dispatch", "ms"),
    ("cli.stdout.kb", "stdout", None, "KiB"),
    ("maps.evaluate.calls", "calls", "maps.evaluate", "calls/request"),
    ("maps.evaluate.us", "us", "maps.evaluate", "us"),
    ("maps.ratio_vector.calls", "calls", "maps.ratio_vector", "calls/request"),
    ("maps.ratio_vector.us", "us", "maps.ratio_vector", "us"),
    ("maps.load_map.ms", "ms", "maps.load_map", "ms"),
    ("geometry.as_positive_vector.calls", "per_sample", "geometry.as_positive_vector", "calls/sample"),
    ("geometry.as_positive_vector.us", "us", "geometry.as_positive_vector", "us"),
    ("geometry.extreme_points.ms", "ms", "geometry.extreme_points", "ms"),
    ("detector.run.ms", "ms", "detector.run", "ms"),
    ("detector.record_step.calls", "calls", "detector.record_step", "calls/request"),
    ("detector.record_step.us", "us", "detector.record_step", "us"),
    ("detector.recordable_subsets.us", "us", "detector.recordable_subsets", "us"),
    ("detector.estimate_eigenvector.ms", "ms", "detector.estimate_eigenvector", "ms"),
    ("detector.chain_schedule.ms", "ms", "detector.chain_schedule", "ms"),
    ("detector.min_remaining_lower_bound.ms", "ms", "detector.min_remaining_lower_bound", "ms"),
    ("detector.useful_sample_ratio", "useful", None, "ratio"),
    ("detector.bound_ratio", "bound", None, "ratio"),
    ("illumination.symmetric_chain_decomposition.ms", "ms", "illumination.symmetric_chain_decomposition", "ms"),
    ("illumination.optimal_illuminating_set.ms", "ms", "illumination.optimal_illuminating_set", "ms"),
    ("illumination.chain_illuminator.calls", "calls", "illumination.chain_illuminator", "calls/request"),
    ("illumination.illuminates.calls", "calls", "illumination.illuminates", "calls/request"),
    ("illumination.verify_illumination.ms", "ms", "illumination.verify_illumination", "ms"),
    ("illumination.illuminated_supports.calls", "calls", "illumination.illuminated_supports", "calls/request"),
    ("illumination.illuminated_supports.us", "us", "illumination.illuminated_supports", "us"),
    ("illumination.canonical_class_representative.calls", "calls", "illumination.canonical_class_representative", "calls/request"),
    ("illumination.lower_bound_certificate.ms", "ms", "illumination.lower_bound_certificate", "ms"),
    ("illumination.illumination_number_exact.ms", "ms", "illumination.illumination_number_exact", "ms"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_request = -1
        self.samples = 0
        self.useful_samples = 0

    def install(self) -> None:
        package = importlib.import_module("conelight")
        modules = [importlib.import_module(f"conelight.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                public = inspect.isfunction(fn) and fn.__module__ == module.__name__
                if public and not attr.startswith("_") and (layer != "cli" or attr == "dispatch"):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, fn, span_name: str):
        self.names.append(span_name)
        name_id = len(self.names) - 1
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.current_request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = t0
                stack.pop()

        if span_name != "detector.record_step":
            return traced

        @functools.wraps(fn)
        def counted(f, x, ledger):
            # a sample is useful when it records a subset the ledger lacked
            before = len(ledger.recorded)
            subsets = traced(f, x, ledger)
            self.samples += 1
            self.useful_samples += len(ledger.recorded) > before
            return subsets

        return counted

    def metrics(self, requests: int, stdout_bytes: int, bound_ratios: list[float]) -> dict:
        requests = max(requests, 1)  # per-request figures read 0 when nothing completed
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        ids = {span: i for i, span in enumerate(self.names)}
        calls = dict(zip(self.names, np.bincount(name, minlength=len(self.names)).tolist()))
        total = dict(zip(self.names, np.bincount(name, weights=duration, minlength=len(self.names))))

        def value(kind: str, span: str | None) -> float:
            count = calls.get(span, 0)
            if kind == "calls":
                return count / requests
            if kind == "us":
                return total[span] / count * 1e6 if count else 0.0
            if kind == "ms":
                return total.get(span, 0.0) / requests * 1e3
            if kind == "self_ms":
                mine = name == ids[span]
                return float((duration[mine] - children[mine]).sum()) / requests * 1e3
            if kind == "per_sample":
                samples = calls.get("detector.record_step", 0)
                return count / samples if samples else 0.0
            if kind == "stdout":
                return stdout_bytes / requests / 1024
            if kind == "useful":
                return self.useful_samples / self.samples if self.samples else 0.0
            if kind == "bound":
                return sum(bound_ratios) / len(bound_ratios) if bound_ratios else 0.0
            raise ValueError(kind)

        return {
            metric: {"value": float(value(kind, span)), "unit": unit}
            for metric, kind, span, unit in PER_LAYER
        }

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path,
            span_names=np.array(self.names),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            request=np.asarray(self.request, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
