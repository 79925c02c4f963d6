"""In-memory span tracer for the traced run.

The tracer wraps the public functions of each `sain` module from outside, at
the module attribute where the caller looks the name up (for example
`sain.training.forward_batch` and `sain.model.top_k_mask_rows`), so nothing
under `src/` changes. Each call records a span (name, start, end, parent span,
workload) and, at some boundaries, counters. Time the tracer spends on its own
bookkeeping is taken off its clock, so span durations and self times cover the
library's work only; the cost of tracing shows as the traced minus
untraced training throughput.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from dataclasses import dataclass, field

import numpy as np

# Tables with one row per entity or feature token; their Adam update touches
# every row although only the rows in a batch have a gradient.
ENTITY_TABLES = ("embeddings", "cf_user", "cf_item", "user_factors",
                 "item_factors", "user_bias", "item_bias")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    workload: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory. `span()` times a block of benchmark code;
    `wrap()` replaces a module or class attribute with a traced version until
    `restore()`."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.params = None          # the params object adam_step is updating
        self._stack: list[Span] = []
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name) -> Span:
        t0 = time.perf_counter()
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self.workload)
        self.spans.append(s)
        self._stack.append(s)
        t1 = time.perf_counter()
        self._paused += t1 - t0
        s.start = t1 - self._paused
        return s

    def _close(self, s: Span, after=None) -> None:
        t0 = time.perf_counter()
        s.end = t0 - self._paused
        self._stack.pop()
        if after is not None:
            after(s)
        self._paused += time.perf_counter() - t0

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Trace calls to owner.attr. `name` is a span name or a function of
        (args, kwargs) returning one; `before(args)` and
        `after(span, args, result)` run off the tracer's clock."""
        original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            if before is not None:
                before(args)
            label = name(args, kwargs) if callable(name) else name
            tracer._paused += time.perf_counter() - t0
            s = tracer._open(label)
            done = None
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    done = lambda sp: after(sp, args, result)  # noqa: E731
                return result
            finally:
                tracer._close(s, done)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def to_json(self) -> list[dict]:
        self_s = self.self_seconds()
        return [{"id": s.id, "name": s.name, "parent": s.parent,
                 "workload": s.workload, "start": s.start, "end": s.end,
                 "self": self_s[s.id], **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]


class NullTracer:
    """Stand-in for the untraced run: blocks are not timed."""

    def span(self, name: str):
        return contextlib.nullcontext()


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[6] if len(args) > 6 else "eval")
    if mode == "train":
        return "model.forward_batch.train"
    return "model.forward_batch.eval1" if len(args[0]) == 1 else "model.forward_batch.eval"


def install(tracer: Tracer, sain) -> None:
    """Wrap the public functions of every `sain` module the benchmark drives,
    where their callers look them up."""
    data, training, model = sain.data, sain.training, sain.model

    for attr in ("build_dataset", "load_ratings", "build_feature_vocab",
                 "parse_feature_file", "encode_entity_features", "pack_features",
                 "split_dataset"):
        tracer.wrap(data, attr, f"data.{attr}")
    tracer.wrap(data.PreparedData, "digest", "data.digest")
    tracer.wrap(training, "interactions_to_arrays", "data.interactions_to_arrays")

    for attr in ("run_training", "evaluate_sain", "evaluate_mf", "predict_sain",
                 "predict_mf", "save_model", "load_model"):
        tracer.wrap(training, attr, f"training.{attr}")

    def watch(args):
        tracer.params = args[0].params

    for engine in (training.SainEngine, training.MfEngine):
        tracer.wrap(engine, "step", "training.step", before=watch)
        tracer.wrap(engine, "evaluate", "training.evaluate")
        tracer.wrap(engine, "snapshot", "training.snapshot")

    def with_batch(s, args, result):
        s.attrs["batch"] = int(len(args[0]))

    tracer.wrap(training, "forward_batch", _forward_name, after=with_batch)
    tracer.wrap(training, "joint_loss", "model.joint_loss")
    tracer.wrap(training, "backward", "model.backward")

    def adam_counts(s, args, result):
        param, grad = args[0], args[1]
        # Computed, not measured: param, grad, m and v read; param, m, v written.
        s.attrs["bytes"] = 7 * int(param.nbytes)
        tensors = tracer.params.tensors if tracer.params is not None else {}
        name = next((n for n, t in tensors.items() if t is param), None)
        if name in ENTITY_TABLES:
            rows = param.shape[0]
            s.attrs["rows"] = int(rows)
            s.attrs["touched"] = int(np.count_nonzero(
                grad.reshape(rows, -1).any(axis=1)))

    tracer.wrap(training, "adam_step", "tensor.adam_step", after=adam_counts)

    def topk_counts(s, args, result):
        weights = args[0]
        s.attrs["rows"] = int(weights[..., 0].size)
        s.attrs["active"] = int(np.count_nonzero(
            (~result & (weights > 0)).any(axis=-1)))

    tracer.wrap(model, "softmax_rows", "tensor.softmax_rows")
    tracer.wrap(model, "top_k_mask_rows", "tensor.top_k_mask_rows", after=topk_counts)

    for attr in ("mf_scores", "mf_loss", "mf_backward"):
        tracer.wrap(training, attr, f"baseline.{attr}")

    def ckpt_bytes(s, args, result):
        s.attrs["bytes"] = os.path.getsize(args[0])

    tracer.wrap(training, "save_checkpoint", "checkpoint.save_checkpoint",
                after=ckpt_bytes)
    tracer.wrap(training, "load_checkpoint", "checkpoint.load_checkpoint")


# Metric name -> unit for the traced run, in report order.
LAYER_UNITS = {
    "data.load_ratings.s": "s",
    "data.build_feature_vocab.s": "s",
    "data.build_feature_vocab.self_s": "s",
    "data.parse_feature_file.s": "s",
    "data.parse_feature_file.calls_per_field": "calls/field",
    "data.encode_entity_features.s": "s",
    "data.pack_features.s": "s",
    "data.split_dataset.s": "s",
    "data.interactions_to_arrays.calls": "count",
    "data.interactions_to_arrays.ms": "ms",
    "data.digest.ms": "ms",
    "training.step.ms_p50": "ms",
    "training.step.ms_p95": "ms",
    "training.step.self_ms_p50": "ms",
    "training.step.calls": "count",
    "training.step.adam_share": "share",
    "training.step.forward_backward_share": "share",
    "training.evaluate.ms": "ms",
    "training.snapshot.ms": "ms",
    "training.snapshot.calls": "count",
    "model.forward_batch.train.ms_p50": "ms",
    "model.forward_batch.train.self_ms_p50": "ms",
    "model.backward.ms_p50": "ms",
    "model.joint_loss.ms_p50": "ms",
    "model.forward_batch.eval.ms_p50": "ms",
    "model.forward_batch.eval1.ms_p50": "ms",
    "tensor.softmax_rows.ms_per_step": "ms",
    "tensor.top_k_mask_rows.ms_per_step": "ms",
    "tensor.top_k_mask_rows.active_row_share": "share",
    "tensor.adam_step.ms_per_step": "ms",
    "tensor.adam_step.calls_per_step": "calls/step",
    "tensor.adam_step.bytes_per_step": "B/step-computed",
    "tensor.adam_step.touched_row_share": "share",
    "baseline.mf_scores.ms_p50": "ms",
    "baseline.mf_backward.ms_p50": "ms",
    "checkpoint.save_checkpoint.ms": "ms",
    "checkpoint.load_checkpoint.ms": "ms",
    "checkpoint.bytes": "bytes",
    "trace.untraced.train_samples_per_s": "1/s",
    "trace.traced.train_samples_per_s": "1/s",
    "trace.overhead.train_samples_per_s": "1/s",
    "trace.overhead_share": "share",
}


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, n_fields: int) -> dict[str, float]:
    """Per-layer numbers from the recorded spans. The benchmark's phase spans
    (`bench.setup`, `bench.train`, ...) are the roots; a span counts towards
    a training step when a `training.step` span encloses it."""
    spans = tracer.spans
    self_s = tracer.self_seconds()
    phase: list[str] = []
    step: list[int | None] = []
    for s in spans:
        up = None if s.parent is None else s.parent
        phase.append(s.name if up is None else phase[up])
        step.append(s.id if s.name == "training.step" else (None if up is None else step[up]))

    def pick(name, in_phase=None, in_step=False):
        return [s for s in spans if s.name == name
                and (in_phase is None or phase[s.id] == in_phase)
                and (not in_step or step[s.id] is not None)]

    def total(name, **kw) -> float:
        return sum(s.seconds for s in pick(name, **kw))

    def ms(ss) -> list[float]:
        return [s.seconds * 1e3 for s in ss]

    def mean_ms(ss) -> float:
        return float(np.mean(ms(ss))) if ss else 0.0

    steps = pick("training.step")
    n_steps = max(1, len(steps))
    step_total = sum(s.seconds for s in steps) or 1.0
    setups = max(1, len(pick("bench.setup")))
    per_setup = 1.0 / setups
    out: dict[str, float] = {}

    for fn in ("load_ratings", "build_feature_vocab", "parse_feature_file",
               "encode_entity_features", "pack_features", "split_dataset"):
        out[f"data.{fn}.s"] = total(f"data.{fn}", in_phase="bench.setup") * per_setup
    out["data.build_feature_vocab.self_s"] = per_setup * sum(
        self_s[s.id] for s in pick("data.build_feature_vocab", in_phase="bench.setup"))
    parses = pick("data.parse_feature_file", in_phase="bench.setup")
    out["data.parse_feature_file.calls_per_field"] = len(parses) / (setups * n_fields)
    conversions = pick("data.interactions_to_arrays", in_phase="bench.train")
    out["data.interactions_to_arrays.calls"] = len(conversions)
    out["data.interactions_to_arrays.ms"] = sum(ms(conversions))
    out["data.digest.ms"] = mean_ms(pick("data.digest"))

    out["training.step.ms_p50"] = _pct(ms(steps), 50)
    out["training.step.ms_p95"] = _pct(ms(steps), 95)
    out["training.step.self_ms_p50"] = _pct([self_s[s.id] * 1e3 for s in steps], 50)
    out["training.step.calls"] = len(steps)
    out["training.step.adam_share"] = total("tensor.adam_step", in_step=True) / step_total
    out["training.step.forward_backward_share"] = sum(
        total(n, in_step=True) for n in ("model.forward_batch.train", "model.backward",
                                         "baseline.mf_scores", "baseline.mf_backward")
    ) / step_total
    out["training.evaluate.ms"] = mean_ms(pick("training.evaluate"))
    snapshots = pick("training.snapshot")
    out["training.snapshot.ms"] = mean_ms(snapshots)
    out["training.snapshot.calls"] = len(snapshots)

    forwards = pick("model.forward_batch.train")
    out["model.forward_batch.train.ms_p50"] = _pct(ms(forwards), 50)
    out["model.forward_batch.train.self_ms_p50"] = _pct(
        [self_s[s.id] * 1e3 for s in forwards], 50)
    out["model.backward.ms_p50"] = _pct(ms(pick("model.backward")), 50)
    out["model.joint_loss.ms_p50"] = _pct(ms(pick("model.joint_loss")), 50)
    evals = pick("model.forward_batch.eval")
    widest = max((s.attrs["batch"] for s in evals), default=0)
    out["model.forward_batch.eval.ms_p50"] = _pct(
        ms([s for s in evals if s.attrs["batch"] == widest]), 50)
    out["model.forward_batch.eval1.ms_p50"] = _pct(ms(pick("model.forward_batch.eval1")), 50)

    out["tensor.softmax_rows.ms_per_step"] = (
        total("tensor.softmax_rows", in_step=True) * 1e3 / n_steps)
    topk = pick("tensor.top_k_mask_rows", in_step=True)
    out["tensor.top_k_mask_rows.ms_per_step"] = sum(ms(topk)) / n_steps
    rows = sum(s.attrs["rows"] for s in topk)
    out["tensor.top_k_mask_rows.active_row_share"] = (
        sum(s.attrs["active"] for s in topk) / rows if rows else 0.0)
    adam = pick("tensor.adam_step", in_step=True)
    out["tensor.adam_step.ms_per_step"] = sum(ms(adam)) / n_steps
    out["tensor.adam_step.calls_per_step"] = len(adam) / n_steps
    out["tensor.adam_step.bytes_per_step"] = sum(s.attrs["bytes"] for s in adam) / n_steps
    tables = [s for s in adam if "rows" in s.attrs]
    rows = sum(s.attrs["rows"] for s in tables)
    out["tensor.adam_step.touched_row_share"] = (
        sum(s.attrs["touched"] for s in tables) / rows if rows else 0.0)

    out["baseline.mf_scores.ms_p50"] = _pct(ms(pick("baseline.mf_scores", in_step=True)), 50)
    out["baseline.mf_backward.ms_p50"] = _pct(ms(pick("baseline.mf_backward")), 50)

    saves = pick("checkpoint.save_checkpoint")
    out["checkpoint.save_checkpoint.ms"] = mean_ms(saves)
    out["checkpoint.load_checkpoint.ms"] = mean_ms(pick("checkpoint.load_checkpoint"))
    out["checkpoint.bytes"] = saves[-1].attrs["bytes"] if saves else 0
    return out

