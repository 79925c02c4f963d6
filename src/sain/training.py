"""Mini-batch training with Adam, seeded shuffles, validation-driven early
stopping, divergence detection, and deterministic reporting. One generic loop
drives both model kinds through a small engine interface, and both engines
share one optimizer update: an in-place Adam step on the views of the
model's ParamSet arena, one per entity table and one per run of the other
tensors, so a step allocates nothing the size of the model. Each engine
names the batch's distinct ids as the rows of its entity-id tables, so Adam
leaves out the zero-gradient terms of the rest, with the same bits.
Evaluation clips predictions to the rating range; every emitted number is
formatted with repr() so logs are byte-stable across runs.
"""

from __future__ import annotations

import csv
import ctypes
import math
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import groupby

import numpy as np

from .baseline import MfParams, mf_backward, mf_loss, mf_scores
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import PreparedData, interactions_to_arrays
from .errors import DivergenceError, ParseError, ShapeError, json_value
from .model import (FieldLayout, ModelConfig, SainParams, backward,
                    decayed_names, forward_batch, joint_loss)
from .seeding import derive_seed, stream_rng
from .tensor import ParamSet, adam_step, sorted_distinct

RATING_MIN, RATING_MAX = 1.0, 5.0
# Pairs per eval-mode forward pass. A block's trace (q/k/v, four (B,H,S,S)
# arrays, the batch-norm and residual arrays) is what an eval holds at its
# peak: 12.3 MB at 256 pairs with S=10, d=64 and H=4 (tracemalloc), 24.3 MB
# at 512 and about 220 MB at the former 4096; storing the attention arrays
# keys-first changed neither figure. On perfbench's `wide-topk` workload
# (2 cores, one BLAS thread, 10 runs each), going from 4096 to 512 cut the
# median peak RSS from 338 to 115 MB and raised eval pairs/s 5%; 1024
# peaked at ~145 MB. 256 pairs are 10240 attention rows there, above
# tensor.KEYS_FIRST_ROWS. With those arrays stored keys-first, an in-process
# test-split pass took a median 84.0 ms at 256 pairs and 83.2 ms at 512
# (8 interleaved rounds), so 256 keeps the smaller trace for a 1% slower
# pass. Any multiple of 4 gives the same output bits (see _eval_outputs).
EVAL_BATCH = 256
DIVERGENCE_LIMIT = 1e8
# glibc mallopt parameters and the values keep_heap() sets.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 256 << 20


def fmt(x) -> str:
    """Canonical float text: repr of the Python float, shortest round-trip."""
    return repr(float(x))


def clip_ratings(scores: np.ndarray) -> np.ndarray:
    return np.clip(scores, RATING_MIN, RATING_MAX)


def require_finite(*arrays) -> None:
    """Refuse a model's outputs unless all are finite. Weights can be finite
    yet so large that the scores overflow, to NaN or to an infinity that
    clip_ratings would serve as a rating bound, so raw scores are checked
    before clipping. The commands score under np.errstate(all="ignore"), so
    that this is one error line, not numpy's warnings."""
    for a in arrays:
        if not np.logical_and.reduce(np.isfinite(a), axis=None):
            raise DivergenceError("the checkpoint's scores are not finite: its "
                                  "weights overflow")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 256
    max_epochs: int = 100
    patience: int = 10
    min_delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for kind, names in (("integer", ("batch_size", "max_epochs", "patience", "seed")),
                            ("number", ("learning_rate", "weight_decay", "min_delta"))):
            for name in names:
                json_value(name, getattr(self, name), kind)
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs, and patience must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, "
                             f"got {self.learning_rate!r}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be finite and >= 0, "
                             f"got {self.weight_decay!r}")
        if not math.isfinite(self.min_delta):
            raise ValueError(f"min_delta must be finite, got {self.min_delta!r}")


@dataclass
class EvalReport:
    """Headline numbers are for the served prediction (the combined score);
    detail carries (rmse, mae) per scoring head."""

    rmse: float
    mae: float
    count: int
    detail: dict[str, tuple[float, float]] = field(default_factory=dict)


@dataclass
class EpochLog:
    epoch: int
    loss_content: float | None
    loss_preference: float | None
    loss_combined: float
    val_rmse: float
    val_mae: float


@dataclass
class TrainResult:
    """params is the best-validation-epoch snapshot (what gets served and
    checkpointed) and adam its optimizer state in checkpoint form, with views
    of the snapshot's moment vectors. final_params is the live engine's
    params after the last epoch run, not a copy. epoch_seconds holds each
    epoch's (train, eval) wall seconds, for the timing sidecar only."""

    params: object
    adam: dict
    history: list[EpochLog]
    best_epoch: int
    best_val_rmse: float
    stopped_early: bool
    final_params: object
    epoch_seconds: list[tuple[float, float]] = field(default_factory=list)

    @property
    def stop_reason(self) -> str:
        """Why the loop ended: `patience` or `max_epochs` (a divergence
        raises instead)."""
        return "patience" if self.stopped_early else "max_epochs"


def keep_heap() -> None:
    """Keep freed memory in the heap between training steps. A step's
    temporaries (tens of MB on the benchmark workloads) are freed at its end;
    with glibc's defaults the heap top above them is then returned to the OS,
    and the next step faults every page back in. Blocks up to 32 MiB come
    from the heap instead of their own mappings, and only a free top above
    256 MiB is trimmed. Process-wide and idempotent; a no-op where the C
    library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


def adam_update(params: ParamSet, grads: dict[str, np.ndarray], tcfg: TrainConfig,
                decay_set: set[str], rows: dict[str, np.ndarray] | None = None) -> None:
    """One optimizer step of every tensor, in place: the set's step counter
    advances once, then adam_step runs with decoupled decay on the names in
    decay_set. Each entity table (params.EMBEDDINGS) gets its own call, on
    its arena view with its moment views; `rows` maps a table to the sorted
    distinct rows outside which its gradient is exactly zero (the batch's
    ids), and adam_step then leaves out the zero-gradient terms elsewhere,
    with the same bits. Every run of other tensors that sit next to each
    other in the arena and share their decay gets one call on its slice of
    the arena, as adam_step is elementwise: one call for SAIN's dense tail
    under every l2_scope. Its gradient is the same run's slice of
    grads.flat when zero_grads made the gradients, else they are joined."""
    params.t += 1
    rows = rows or {}

    def kind(item) -> tuple[str | None, bool]:
        name = item[0]
        return (name if name in params.EMBEDDINGS else None), name in decay_set

    lo = 0
    for (table, decayed), run in groupby(params.tensors.items(), key=kind):
        if table is not None:
            param, grad, table_rows = params.tensors[table], grads[table], rows.get(table)
            m, v = params.moments[table]
            hi = lo + param.size
        else:
            names = [name for name, _ in run]
            hi = lo + sum(params.tensors[name].size for name in names)
            param, grad, table_rows = params.flat[lo:hi], _joined(grads, names), None
            m, v = params.m[lo:hi], params.v[lo:hi]
        adam_step(param, grad, m, v, params.t, tcfg.learning_rate,
                  tcfg.weight_decay if decayed else 0.0, params.beta1, params.beta2,
                  params.eps, params.scratch, rows=table_rows)
        lo = hi


def _joined(grads: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    """The gradients of consecutive tensors as one vector: a slice of
    grads.flat when all are views into it, else a copy."""
    offsets = getattr(grads, "offsets", {})
    if all(name in offsets for name in names):
        start = offsets[names[0]]
        return grads.flat[start:start + sum(grads[n].size for n in names)]
    return np.concatenate([np.reshape(grads[n], -1) for n in names])


class _Engine:
    """What both engines set up: the heap setting, the training columns and
    the names under decoupled decay."""

    def __init__(self, data: PreparedData, params, tcfg: TrainConfig,
                 l2_scope: str = "all"):
        keep_heap()
        self.data = data
        self.params = params
        self.tcfg = tcfg
        self.users, self.items, self.ratings = interactions_to_arrays(data.split.train)
        self.decay_set = decayed_names(params, l2_scope)

    @property
    def n_train(self) -> int:
        return self.users.shape[0]


class SainEngine(_Engine):
    """Attention-model steps: joint three-score loss, full backward, the
    shared in-place Adam update with scoped decoupled decay, and batch-norm
    running-stat commits."""

    def __init__(self, data: PreparedData, params: SainParams, tcfg: TrainConfig):
        super().__init__(data, params, tcfg, params.config.l2_scope)
        self.dropout_rng = stream_rng(tcfg.seed, "dropout")

    def step(self, idx: np.ndarray):
        u, i, r = self.users[idx], self.items[idx], self.ratings[idx]
        trace = forward_batch(u, i, self.data.user_packed, self.data.item_packed,
                              self.params, mode="train", dropout_rng=self.dropout_rng)
        loss, parts = joint_loss(trace, r, self.params.config.loss_weights)
        grads = backward(trace, r, self.params)
        rows = {"cf_user": sorted_distinct(u), "cf_item": sorted_distinct(i)}
        adam_update(self.params, grads, self.tcfg, self.decay_set, rows)
        self.params.bn_mean = trace.bn_new_mean
        self.params.bn_var = trace.bn_new_var
        return loss, parts

    def evaluate(self, split: str) -> EvalReport:
        return evaluate_sain(self.params, self.data, split)

    def snapshot(self):
        return self.params.clone()


class MfEngine(_Engine):
    """Baseline steps: single MSE loss; the log's content/preference columns
    stay empty because the model has one scoring head."""

    def step(self, idx: np.ndarray):
        u, i, r = self.users[idx], self.items[idx], self.ratings[idx]
        scores = mf_scores(u, i, self.params)
        loss = mf_loss(scores, r)
        grads = mf_backward(u, i, scores, r, self.params)
        users, items = sorted_distinct(u), sorted_distinct(i)
        rows = {"user_factors": users, "user_bias": users,
                "item_factors": items, "item_bias": items}
        adam_update(self.params, grads, self.tcfg, self.decay_set, rows)
        return loss, (None, None, loss)

    def evaluate(self, split: str) -> EvalReport:
        return evaluate_mf(self.params, self.data, split)

    def snapshot(self):
        return self.params.clone()


def run_training(engine, tcfg: TrainConfig) -> TrainResult:
    """Generic epoch loop: seeded shuffle, mini-batch steps, validation after
    every epoch, early stop after `patience` epochs without improvement, abort
    on a non-finite or runaway loss. The returned params and optimizer state
    are the snapshot from the best validation epoch."""
    shuffle_rng = stream_rng(tcfg.seed, "shuffle")
    n = engine.n_train
    history: list[EpochLog] = []
    best_rmse = float("inf")
    best_epoch = 0
    best_params = engine.snapshot()
    bad = 0
    stopped_early = False
    epoch_seconds = []
    for epoch in range(1, tcfg.max_epochs + 1):
        started = time.perf_counter()
        perm = shuffle_rng.permutation(n)
        sse = [0.0, 0.0, 0.0]
        seen = [False, False, False]
        for start in range(0, n, tcfg.batch_size):
            idx = perm[start:start + tcfg.batch_size]
            loss, parts = engine.step(idx)
            if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}: loss={loss!r}")
            for j, p in enumerate(parts):
                if p is not None:
                    sse[j] += p * idx.shape[0]
                    seen[j] = True
        trained = time.perf_counter()
        val = engine.evaluate("validation")
        epoch_seconds.append((trained - started, time.perf_counter() - trained))
        history.append(EpochLog(
            epoch=epoch,
            loss_content=sse[0] / n if seen[0] else None,
            loss_preference=sse[1] / n if seen[1] else None,
            loss_combined=sse[2] / n,
            val_rmse=val.rmse, val_mae=val.mae))
        if val.rmse < best_rmse - tcfg.min_delta:
            best_rmse = val.rmse
            best_epoch = epoch
            best_params = engine.snapshot()
            bad = 0
        else:
            bad += 1
            if bad >= tcfg.patience:
                stopped_early = True
                break
    return TrainResult(params=best_params, adam=best_params.optimizer_state(),
                       history=history, best_epoch=best_epoch,
                       best_val_rmse=best_rmse, stopped_early=stopped_early,
                       final_params=engine.params,
                       epoch_seconds=epoch_seconds)


def train_sain(data: PreparedData, mcfg: ModelConfig, tcfg: TrainConfig) -> TrainResult:
    layout = FieldLayout.from_vocab(data.vocab, data.num_users, data.num_items)
    params = SainParams.init(layout, mcfg, stream_rng(tcfg.seed, "init"))
    return run_training(SainEngine(data, params, tcfg), tcfg)


def train_biasedmf(data: PreparedData, dim: int, tcfg: TrainConfig,
                   l2_scope: str = "all") -> TrainResult:
    _, _, train_r = interactions_to_arrays(data.split.train)
    mu = float(train_r.mean())
    params = MfParams.init(data.num_users, data.num_items, dim, mu,
                           stream_rng(tcfg.seed, "init"))
    return run_training(MfEngine(data, params, tcfg, l2_scope), tcfg)


def rmse_mae(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Root-mean-squared and mean-absolute error of a prediction set."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError("prediction and truth lengths differ")
    if pred.size == 0:
        raise ValueError("empty prediction set")
    err = pred - truth
    return float(np.sqrt(np.mean(err * err))), float(np.mean(np.abs(err)))


def _eval_outputs(params: SainParams, data: PreparedData, uids: np.ndarray,
                  iids: np.ndarray) -> dict[str, np.ndarray]:
    """Eval-mode scores and gate weights of every pair, EVAL_BATCH pairs per
    forward pass. Only these (B,) arrays outlive a block: its trace is dropped
    before the next block's forward pass, so two traces are never alive and
    the peak is one block's trace plus the five (n,) outputs.

    Eval-mode rows do not depend on each other (batch norm uses the running
    stats), so the blocking does not change what a row computes, but it can
    change how BLAS sums it. OpenBLAS runs a one-row matrix product as a
    matrix-vector product, and its matrix-vector kernel takes rows in groups
    of 4, summing the rows past the last full group in another order. So no
    block of one row is split off a larger call: a last row joins the block
    before it. Then, for a block size that is a multiple of 4, every row
    keeps its place in its group and the last rows stay the last rows, and
    the outputs are the same bits at every such block size."""
    n = uids.shape[0]
    outs = {name: np.empty(n) for name in ("content", "preference", "combined",
                                           "gate_user", "gate_item")}
    bounds = list(range(0, n, EVAL_BATCH)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    for lo, hi in zip(bounds, bounds[1:]):
        sl = slice(lo, hi)
        trace = forward_batch(uids[sl], iids[sl], data.user_packed,
                              data.item_packed, params)
        outs["content"][sl] = trace.score_content
        outs["preference"][sl] = trace.score_preference
        outs["combined"][sl] = trace.score_combined
        outs["gate_user"][sl] = trace.gate_alpha["user"]
        outs["gate_item"][sl] = trace.gate_alpha["item"]
        del trace
    require_finite(*outs.values())
    return outs


def evaluate_sain(params: SainParams, data: PreparedData,
                  split: str = "test") -> EvalReport:
    """Deterministic eval-mode metrics. The served combined score is clipped to
    the rating range; the content/preference breakdown stays unclipped as a
    diagnostic."""
    users, items, ratings = interactions_to_arrays(data.split.select(split))
    outs = _eval_outputs(params, data, users, items)
    detail = {"content": rmse_mae(outs["content"], ratings),
              "preference": rmse_mae(outs["preference"], ratings),
              "combined": rmse_mae(clip_ratings(outs["combined"]), ratings)}
    rmse, mae = detail["combined"]
    return EvalReport(rmse=rmse, mae=mae, count=int(users.shape[0]), detail=detail)


def evaluate_mf(params: MfParams, data: PreparedData,
                split: str = "test") -> EvalReport:
    users, items, ratings = interactions_to_arrays(data.split.select(split))
    scores = mf_scores(users, items, params)
    require_finite(scores)
    rmse, mae = rmse_mae(clip_ratings(scores), ratings)
    return EvalReport(rmse=rmse, mae=mae, count=int(users.shape[0]),
                      detail={"combined": (rmse, mae)})


def predict_sain(params: SainParams, data: PreparedData, uids: np.ndarray,
                 iids: np.ndarray) -> list[dict]:
    """Per-pair served prediction plus the blend diagnostics."""
    outs = _eval_outputs(params, data, np.asarray(uids, dtype=np.int64),
                         np.asarray(iids, dtype=np.int64))
    comb = clip_ratings(outs["combined"])
    cont = clip_ratings(outs["content"])
    pref = clip_ratings(outs["preference"])
    return [{"score": float(comb[j]), "score_content": float(cont[j]),
             "score_preference": float(pref[j]),
             "gate_user": float(outs["gate_user"][j]),
             "gate_item": float(outs["gate_item"][j])}
            for j in range(comb.shape[0])]


def predict_mf(params: MfParams, uids: np.ndarray, iids: np.ndarray) -> list[dict]:
    scores = mf_scores(uids, iids, params)
    require_finite(scores)
    return [{"score": float(s)} for s in clip_ratings(scores)]


def sweep_top_k(data: PreparedData, mcfg: ModelConfig, tcfg: TrainConfig,
                k_values: list[int], repeats: int = 1) -> list[dict]:
    """Retrain per K on the fixed split. Every K shares the same seed so rows
    are comparable; extra repeats rerun the whole sweep under derived seeds.
    Repeat 0 uses the base seed itself."""
    if any(int(k) < 1 for k in k_values):
        raise ValueError("k values must be >= 1")
    rows = []
    for rep in range(repeats):
        run_seed = tcfg.seed if rep == 0 else derive_seed(tcfg.seed, "sweep", rep)
        run_tcfg = replace(tcfg, seed=run_seed)
        for k in k_values:
            result = train_sain(data, replace(mcfg, top_k=int(k)), run_tcfg)
            test = evaluate_sain(result.params, data, "test")
            rows.append({"k": int(k), "repeat": rep, "seed": run_seed,
                         "best_epoch": result.best_epoch,
                         "val_rmse": result.best_val_rmse,
                         "test_rmse": test.rmse, "test_mae": test.mae})
    return rows


def attention_matrices(params: SainParams, data: PreparedData, uid: int,
                       iid: int) -> list[np.ndarray]:
    """Eval-mode pre-top-K attention of the pair (dense user uid, dense item
    iid), one (m+n, m+n) matrix per head, rows = query positions in field
    order (user fields then item fields). It is the eval pass predict_sain
    runs, on a batch of one."""
    trace = forward_batch(np.asarray([uid], dtype=np.int64),
                          np.asarray([iid], dtype=np.int64), data.user_packed,
                          data.item_packed, params)
    require_finite(trace.alpha_full[0])
    return [trace.alpha_full[0, h] for h in range(params.config.num_heads)]


def write_training_log(path: str, history: list[EpochLog]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "loss_content", "loss_preference", "loss_combined",
                    "val_rmse", "val_mae"])
        for e in history:
            w.writerow([e.epoch,
                        "" if e.loss_content is None else fmt(e.loss_content),
                        "" if e.loss_preference is None else fmt(e.loss_preference),
                        fmt(e.loss_combined), fmt(e.val_rmse), fmt(e.val_mae)])


def write_sweep_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["k", "test_rmse", "test_mae"])
        for r in rows:
            w.writerow([r["k"], fmt(r["test_rmse"]), fmt(r["test_mae"])])


def write_attention_csv(path: str, matrix: np.ndarray, labels: list[str]) -> None:
    """Square labeled matrix: header row of field names, each data row led by
    its query field name."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["field"] + list(labels))
        for qname, row in zip(labels, matrix):
            w.writerow([qname] + [fmt(v) for v in row])


def save_model(path: str, kind: str, params, adam: dict | None = None,
               meta: dict | None = None) -> None:
    """Serialize either model kind into the binary checkpoint container, with
    `adam`, an optimizer state in the form ParamSet.optimizer_state() returns,
    when given."""
    if kind == "sain":
        ckpt = Checkpoint(kind=kind, config=asdict(params.config),
                          layout=asdict(params.layout), tensors=params.tensors,
                          stats={"bn_mean": params.bn_mean, "bn_var": params.bn_var},
                          adam=adam, meta=meta or {})
    elif kind == "biasedmf":
        layout = {"num_users": params.num_users, "num_items": params.num_items,
                  "dim": params.dim, "mu": params.mu}
        ckpt = Checkpoint(kind=kind, config={}, layout=layout,
                          tensors=params.tensors, stats={},
                          adam=adam, meta=meta or {})
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    save_checkpoint(path, ckpt)


def _check_shapes(path: str, what: str, arrays: dict[str, np.ndarray],
                  expected: dict[str, tuple]) -> None:
    got = [(name, a.shape) for name, a in arrays.items()]
    if got != list(expected.items()):
        wrong = next((f"{n} {s}" for n, s in got if expected.get(n) != s),
                     "the tensor names or their order")
        raise ParseError(f"checkpoint {what} do not match its layout "
                         f"({wrong}): {path}")


def load_model(path: str):
    """Inverse of save_model: (kind, params, adam or None, meta). The stored
    layout is taken as written: its counts must be JSON integers and a
    BiasedMF `mu` a finite JSON number. Every tensor must have the name,
    order and shape that the layout and config imply, and the optimizer
    moments those of the tensors. They are packed into the params' arena
    once; the returned adam is its optimizer_state(), with views of its
    moment vectors."""
    ckpt = load_checkpoint(path)
    try:
        if ckpt.kind == "sain":
            layout = FieldLayout.from_dict(ckpt.layout)
            config = ModelConfig.from_dict(ckpt.config)
            expected = SainParams.shapes(layout, config)
            stats = {"bn_mean": (config.embed_dim,), "bn_var": (config.embed_dim,)}
            _check_shapes(path, "stats", ckpt.stats, stats)
        elif ckpt.kind == "biasedmf":
            sizes = [json_value(k, ckpt.layout[k], "integer")
                     for k in ("num_users", "num_items", "dim")]
            mu = json_value("mu", ckpt.layout["mu"], "number")
            if not math.isfinite(mu):
                raise ValueError(f"mu must be finite, got {mu!r}")
            expected = MfParams.shapes(*sizes)
        else:
            raise ParseError(f"unknown model kind in checkpoint: {ckpt.kind!r}")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"checkpoint layout, config or optimizer state "
                         f"malformed: {path}: {e!r}") from e
    _check_shapes(path, "tensors", ckpt.tensors, expected)
    try:
        if ckpt.kind == "sain":
            params = SainParams(layout, config, ckpt.tensors,
                                ckpt.stats["bn_mean"].copy(),
                                ckpt.stats["bn_var"].copy(), adam=ckpt.adam)
        else:
            params = MfParams(ckpt.tensors, mu, adam=ckpt.adam)
    except ShapeError as e:
        raise ParseError(f"checkpoint optimizer state unusable: {path}: {e}") from e
    adam = None if ckpt.adam is None else params.optimizer_state()
    return ckpt.kind, params, adam, ckpt.meta
