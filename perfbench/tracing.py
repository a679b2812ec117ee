"""Span recording inside one traced `tiltlab run`, and its per-layer summary.

child.py installs a Tracer before it calls the CLI. The tracer replaces
each public tiltlab function named in LAYERS, in every tiltlab module that
holds it, by a wrapper that records a span: layer, start, end, the index of
the enclosing span, and the work counts of the call. Callers look these
names up when they call them, so the wrappers see every call without any
change to the program. Spans stay in memory and are written once, after
the run. A target that no longer exists is listed as absent, not an error.

summarize() runs in the benchmark process and turns the spans into the
per-layer metrics. A layer's self time is its spans' durations minus the
part covered by their child spans, so the self times of all layers plus
cli.self_s add up to the traced process's time. Counts (calls, rows,
params, score entries, fallbacks) repeat exactly from run to run; times
do not.

Which end-to-end metric each layer should move, and where:
  training.fused_step.*, training.fused_ratio     run_s on gp-cond-b512
  losses.loss_value_and_grad.*,
  encoders.similarity_{matrix,vjp}.s              run_s on g2d-joint-b512
  training.adam_step.*, encoders.encode{,_vjp}.*  run_s on flow-mlp-b64
  datagen.*, crossmodal.{build_index,recall_at_k}.*  run_s on flow-mlp-b64
  gaussian.s, cli.self_s, training.train.self_s   regression guards, all
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time


def _rows(position):
    return lambda args, out: {"rows": len(args[position])}


def _fused(args, out):
    return {"entries": len(args[0]) * len(args[1]), "fallbacks": int(out is None)}


def _score_entries(args, out):
    scores = getattr(args[1], "s", args[1])
    return {"entries": int(scores.size)}


def _params(args, out):
    return {"params": int(args[0].size)}


def _queries(args, out):
    return {"queries": len(args[0])}


def _datagen_rows(args, out):
    u = getattr(out, "u", None)
    return {"rows": len(u)} if u is not None else {}


# layer -> (module, function, counter). "*" wraps every public function the
# module defines, so renaming one of them keeps the layer measured.
LAYERS = {
    "training.train": ("tiltlab.training", "train", None),
    "training.fused_step": ("tiltlab.training", "_fused_inner_step", _fused),
    "training.adam_step": ("tiltlab.training", "adam_step", _params),
    "losses.loss_value_and_grad": ("tiltlab.losses", "loss_value_and_grad", _score_entries),
    "encoders.encode": ("tiltlab.encoders", "encode", _rows(2)),
    "encoders.encode_vjp": ("tiltlab.encoders", "encode_vjp", _rows(2)),
    "encoders.similarity_matrix": ("tiltlab.encoders", "similarity_matrix", None),
    "encoders.similarity_vjp": ("tiltlab.encoders", "similarity_vjp", None),
    "crossmodal.build_index": ("tiltlab.crossmodal", "build_index", _queries),
    "crossmodal.recall_at_k": ("tiltlab.crossmodal", "recall_at_k", _queries),
    "datagen": ("tiltlab.datagen", "*", _datagen_rows),
    "gaussian": ("tiltlab.gaussian", "*", None),
}

ROOT_LAYER = "cli"


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, counts]
        self.absent = []
        self._stack = []

    def _wrap(self, layer, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
            if counter is not None:
                try:
                    span[4] = counter(args, out)
                except (AttributeError, IndexError, TypeError):
                    span[4] = {}
            return out

        return traced

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        tiltlab_modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tiltlab"]
        for layer, (module_name, attr, counter) in LAYERS.items():
            module = sys.modules.get(module_name)
            if module is None:
                self.absent.append(layer)
                continue
            if attr == "*":
                targets = [
                    fn
                    for name, fn in vars(module).items()
                    if inspect.isfunction(fn) and fn.__module__ == module_name and not name.startswith("_")
                ]
            else:
                fn = getattr(module, attr, None)
                targets = [fn] if callable(fn) else []
            if not targets:
                self.absent.append(layer)
            for fn in targets:
                wrapped = self._wrap(layer, fn, counter)
                for mod in tiltlab_modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapped)

    def run_root(self, start, fn):
        """Call fn inside the root span, which opens at `start` (a
        time.monotonic() stamp taken before the process was spawned)."""
        self.spans.append([ROOT_LAYER, start, 0.0, -1, None])
        self._stack.append(0)
        try:
            return fn()
        finally:
            self.spans[0][2] = time.monotonic()
            self._stack.pop()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(doc):
    """Per-layer metrics from one dumped trace: {metric name: value}."""
    spans = doc["spans"]
    self_s = [end - start for _, start, end, _, _ in spans]
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    layers = {}
    for i, (layer, start, end, parent, counts) in enumerate(spans):
        agg = layers.setdefault(layer, {"calls": 0, "s": 0.0, "us": [], "counts": {}})
        agg["calls"] += 1
        agg["s"] += self_s[i]
        agg["us"].append((end - start) * 1e6)
        # rows of data made count once, at the outermost datagen call
        if layer == "datagen" and parent >= 0 and spans[parent][0] == "datagen":
            continue
        for key, value in (counts or {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value

    def get(layer, key):
        agg = layers.get(layer)
        if agg is None:
            return 0
        return agg[key] if key in ("calls", "s") else agg["counts"].get(key, 0)

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    m = {}
    fused_ok = get("training.fused_step", "calls") - get("training.fused_step", "fallbacks")
    for key in ("calls", "fallbacks", "s"):
        m[f"training.fused_step.{key}"] = get("training.fused_step", key)
    m["training.fused_step.ns_per_entry"] = per(
        get("training.fused_step", "s"), get("training.fused_step", "entries"), 1e9
    )
    m["training.fused_ratio"] = per(fused_ok, fused_ok + get("losses.loss_value_and_grad", "calls"), 1.0)
    for key in ("calls", "s"):
        m[f"losses.loss_value_and_grad.{key}"] = get("losses.loss_value_and_grad", key)
    m["losses.loss_value_and_grad.ns_per_entry"] = per(
        get("losses.loss_value_and_grad", "s"), get("losses.loss_value_and_grad", "entries"), 1e9
    )
    m["encoders.similarity_matrix.s"] = get("encoders.similarity_matrix", "s")
    m["encoders.similarity_vjp.s"] = get("encoders.similarity_vjp", "s")
    for key in ("calls", "params", "s"):
        m[f"training.adam_step.{key}"] = get("training.adam_step", key)
    m["training.adam_step.ns_per_param"] = per(
        get("training.adam_step", "s"), get("training.adam_step", "params"), 1e9
    )
    for layer in ("encoders.encode", "encoders.encode_vjp"):
        for key in ("calls", "rows", "s"):
            m[f"{layer}.{key}"] = get(layer, key)
        durations = layers.get(layer, {}).get("us", [])
        m[f"{layer}.us_p50"] = _percentile(durations, 0.50)
        m[f"{layer}.us_p99"] = _percentile(durations, 0.99)
    m["datagen.s"] = get("datagen", "s")
    m["datagen.us_per_row"] = per(get("datagen", "s"), get("datagen", "rows"), 1e6)
    for layer in ("crossmodal.build_index", "crossmodal.recall_at_k"):
        for key in ("calls", "queries", "s"):
            m[f"{layer}.{key}"] = get(layer, key)
    m["gaussian.s"] = get("gaussian", "s")
    m["cli.self_s"] = get(ROOT_LAYER, "s")
    m["training.train.self_s"] = get("training.train", "s")
    m["trace.self_sum_s"] = sum(agg["s"] for agg in layers.values())
    return m
