"""Span tracer that wraps stockcast's public functions from outside.

Each wrapped function records a span (name, start, end, parent) kept in
memory and written out when the repetition ends.  The autodiff ops are
too numerous to keep one span per call; they are counted per op instead
(calls, forward seconds, backward seconds, bytes of new output arrays), and their time
is charged to the enclosing span so that every span's self time excludes
the ops it ran.  A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from functools import partial

import numpy as np

pc = time.perf_counter

OPS = ("matmul", "conv1d_channels", "maxpool1d_op", "add", "mul", "sigmoid", "tanh",
       "relu", "take", "reshape", "concat", "transpose", "tmean", "power", "neg")

# span name -> (module, attribute path); the span's layer is the part
# of the name before the first dot
SPANS = {
    "cli.main": ("stockcast.cli", "main"),
    "config.parse_config": ("stockcast.config", "parse_config"),
    "runner.execute": ("stockcast.runner", "execute"),
    "runner.prepare_series": ("stockcast.runner", "prepare_series"),
    "runner.results_csv_text": ("stockcast.runner", "results_csv_text"),
    "runner.run_errors_csv_text": ("stockcast.runner", "run_errors_csv_text"),
    "runner.traces_json_text": ("stockcast.runner", "traces_json_text"),
    "runner.atomic_write": ("stockcast.runner", "atomic_write"),
    "ingest.load_series": ("stockcast.ingest", "load_series"),
    "preprocess.split_by_date": ("stockcast.preprocess", "split_by_date"),
    "preprocess.fit_scaler": ("stockcast.preprocess", "fit_scaler"),
    "preprocess.scale": ("stockcast.preprocess", "scale"),
    "experiment.run_grid": ("stockcast.experiment", "run_grid"),
    "experiment.run_cell": ("stockcast.experiment", "run_cell"),
    "experiment.train": ("stockcast.experiment", "train"),
    "experiment.evaluate_run": ("stockcast.experiment", "evaluate_run"),
    "windowing.make_single_step_samples": ("stockcast.windowing", "make_single_step_samples"),
    "windowing.make_direct_samples": ("stockcast.windowing", "make_direct_samples"),
    "windowing.make_samples": ("stockcast.windowing", "make_samples"),
    "windowing.rolling_test_forecast": ("stockcast.windowing", "rolling_test_forecast"),
    "models.build_model": ("stockcast.models", "build_model"),
    "models.forward": ("stockcast.models", "Model.forward"),
    "nn.backward": ("stockcast.nn.autodiff", "Tensor.backward"),
    "nn.adam_step": ("stockcast.nn.optim", "Adam.step"),
    "dm_pipeline.load_run_errors": ("stockcast.dm_pipeline", "load_run_errors"),
    "dm_pipeline.dm_csv_text": ("stockcast.dm_pipeline", "dm_csv_text"),
    "evaluation.dm_test": ("stockcast.evaluation", "dm_test"),
    "evaluation.pairwise_dm_matrix": ("stockcast.evaluation", "pairwise_dm_matrix"),
}
# spans inside which model calls and new tensors count as training or evaluation
PHASES = {"experiment.train": "train", "experiment.evaluate_run": "eval",
          "windowing.rolling_test_forecast": "eval"}
# spans whose result length is a count of work done
LENGTH_COUNTS = {"windowing.make_single_step_samples": "windowing.samples",
                 "windowing.make_direct_samples": "windowing.samples",
                 "windowing.make_samples": "windowing.samples",
                 "windowing.rolling_test_forecast": "windowing.origins"}

LAYERS = ("cli", "config", "ingest", "preprocess", "windowing", "models", "nn",
          "experiment", "runner", "dm_pipeline", "evaluation")


def _resolve(module: str, path: str):
    """(owner, attribute, value) or None when the target no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def _rebind(owner, attr: str, original, replacement):
    """Replace a function everywhere stockcast bound it, from-imports included."""
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return
    for name, module in list(sys.modules.items()):
        if name == "stockcast" or name.startswith("stockcast."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def _length(result) -> int:
    if isinstance(result, tuple):  # array form: (X, Y)
        result = result[0]
    return len(result)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, self_s, phase]
        self._stack: list[list] = []      # [span index, seconds covered by children]
        self.phase = "other"
        self.ops = {op: [0, 0.0, 0.0, 0] for op in OPS}  # calls, fwd_s, bwd_s, out bytes
        self.op_seconds = 0.0
        self._op_depth = 0
        self.tensors = {"train": 0, "eval": 0, "other": 0}
        self.counts: dict[str, int] = {}
        self.step_ms: list[float] = []
        self._step_start = None
        self.absent: list[str] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name: str):
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, pc(), None, self._stack[-2][0] if len(self._stack) > 1 else -1,
                           0.0, self.phase])

    def _close(self) -> float:
        end = pc()
        index, covered = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        span[4] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration
        return end

    def _charge(self, seconds: float):
        self.op_seconds += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    # --- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        phase = PHASES.get(name)
        count = LENGTH_COUNTS.get(name)
        is_step = name == "nn.adam_step"

        def wrapped(*args, **kwargs):
            outer = self.phase
            if phase:
                self.phase = phase
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._close()
                self.phase = outer
            if count:
                self.counts[count] = self.counts.get(count, 0) + _length(result)
            if is_step and self._step_start is not None:
                self.step_ms.append((end - self._step_start) * 1e3)
                self._step_start = None
            return result

        return wrapped

    def _op_wrapper(self, op: str, fn):
        stat = self.ops[op]

        def timed_backward(backward):
            def run(g):
                self._op_depth += 1
                t0 = pc()
                try:
                    backward(g)
                finally:
                    self._op_depth -= 1
                dt = pc() - t0
                stat[2] += dt
                if not self._op_depth:
                    self._charge(dt)
            return run

        def wrapped(*args, **kwargs):
            self._op_depth += 1
            t0 = pc()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._op_depth -= 1
            dt = pc() - t0
            stat[0] += 1
            stat[1] += dt
            data = getattr(out, "data", None)
            if isinstance(data, np.ndarray) and data.flags.owndata:  # a view computes nothing
                stat[3] += data.nbytes
            if not self._op_depth:
                self._charge(dt)
            backward = getattr(out, "_backward", None)
            if backward is not None:
                out._backward = timed_backward(backward)
            return out

        return wrapped

    def install(self):
        """Wrap every target that exists; list the others as absent."""
        targets = [(name, module, path, partial(self._span_wrapper, name))
                   for name, (module, path) in SPANS.items()]
        targets += [(f"nn.op.{op}", "stockcast.nn.autodiff", op, partial(self._op_wrapper, op))
                    for op in OPS]
        targets += [("nn.zero_grad", "stockcast.nn.params", "ParamSet.zero_grad",
                     self._zero_grad_marker),
                    ("nn.tensor_init", "stockcast.nn.autodiff", "Tensor.__init__",
                     self._tensor_init_marker)]
        for name, module, path, wrap in targets:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            _rebind(owner, attr, fn, wrap(fn))

    def _zero_grad_marker(self, fn):
        def wrapped(*args, **kwargs):
            if self.phase == "train":
                self._step_start = pc()
            return fn(*args, **kwargs)
        return wrapped

    def _tensor_init_marker(self, fn):
        tensors = self.tensors

        def wrapped(obj, *args, **kwargs):
            tensors[self.phase] += 1
            return fn(obj, *args, **kwargs)
        return wrapped

    # --- results -----------------------------------------------------------

    def _total(self, *names, phase=None) -> float:
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] in names and (phase is None or s[5] == phase))

    def _calls(self, name: str, phase: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[5] == phase)

    def metrics(self) -> dict[str, float]:
        m: dict[str, float] = {}
        for op, (calls, fwd, bwd, nbytes) in self.ops.items():
            m[f"nn.op.{op}.calls"] = calls
            m[f"nn.op.{op}.fwd_s"] = fwd
            m[f"nn.op.{op}.bwd_s"] = bwd
            m[f"nn.op.{op}.out_mb"] = nbytes / 1e6
        m["nn.backward_s"] = self._total("nn.backward")
        m["nn.adam_step_s"] = self._total("nn.adam_step")
        m["nn.tensors.train"] = self.tensors["train"]
        m["nn.tensors.eval"] = self.tensors["eval"]
        m["experiment.train_s"] = self._total("experiment.train")
        m["experiment.train_step_ms.p50"] = _nearest_rank(self.step_ms, 0.50)
        m["experiment.train_step_ms.p99"] = _nearest_rank(self.step_ms, 0.99)
        m["experiment.evaluate_s"] = self._total("experiment.evaluate_run")
        m["models.forward_calls.train"] = self._calls("models.forward", "train")
        m["models.forward_calls.eval"] = self._calls("models.forward", "eval")
        m["models.forward_s.eval"] = self._total("models.forward", phase="eval")
        m["windowing.rolling_forecast_s"] = self._total("windowing.rolling_test_forecast")
        m["windowing.origins"] = self.counts.get("windowing.origins", 0)
        m["windowing.make_samples_s"] = self._total(
            "windowing.make_single_step_samples", "windowing.make_direct_samples",
            "windowing.make_samples")
        m["windowing.samples"] = self.counts.get("windowing.samples", 0)
        m["runner.write_s"] = self._total(
            "runner.results_csv_text", "runner.run_errors_csv_text",
            "runner.traces_json_text", "runner.atomic_write")
        m["dm_pipeline.load_s"] = self._total("dm_pipeline.load_run_errors")
        m["evaluation.dm_test_s"] = self._total("evaluation.dm_test")
        m["evaluation.dm_tests"] = sum(1 for s in self.spans if s[0] == "evaluation.dm_test")
        m["config.parse_s"] = self._total("config.parse_config")
        m["ingest.load_series_s"] = self._total("ingest.load_series")
        self_s = dict.fromkeys(LAYERS, 0.0)
        self_s["nn"] += self.op_seconds
        for s in self.spans:
            layer = s[0].split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + s[4]
        for layer, seconds in self_s.items():
            m[f"{layer}.self_s"] = seconds
        return m

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "self_s", "phase"],
                       "spans": self.spans, "absent": self.absent}, f)


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
