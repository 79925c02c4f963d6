"""Command-line entry point. Every command but gradcheck reads a JSON run
config (paths resolved relative to the config file). `train` and `sweep-k`
take a flag for each config value, and flags win over file values.
`evaluate`, `predict` and `attention` rebuild the run from the checkpoint:
the model, its config, the split seed and the split method come from it, and
the run config gives only the dataset and the output directory. Outputs are
deterministic functions of (config, input files, seed); wall-clock timings go
to a separate sidecar file so the primary outputs stay byte-reproducible.

Exit codes: 0 success; 3 io; 4 parse; 5 shape; 6 divergence; 7 manifest-drift;
1 anything else. Errors print one machine-parsable line to stderr:
`error category=<cat>: <message>`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import DatasetManifest, PreparedData, build_dataset, read_json_object
from .errors import (DivergenceError, ManifestDriftError, ParseError, SainError,
                     ShapeError, is_json, json_value)
from .gradcheck import TOLERANCE, run_suite
from .model import L2_SCOPES, ModelConfig
from .training import (TrainConfig, attention_matrices, evaluate_mf, evaluate_sain,
                       fmt, keep_heap, load_model, predict_mf, predict_sain,
                       require_finite, save_model, sweep_top_k, train_biasedmf,
                       train_sain, write_attention_csv, write_sweep_csv,
                       write_training_log)

MODEL_KINDS = ("sain", "biasedmf")
CHECKPOINT_NAME = "model.ckpt"
# The characters at which str.splitlines ends a line, and the escapes an
# error line writes them as, so that it stays one line whatever it quotes.
LINE_ENDS = str.maketrans({c: repr(c)[1:-1]
                           for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"})


@dataclass
class RunManifest:
    """Materialized run configuration: dataset manifest path, model kind,
    output directory, and the full model/train configs with defaults filled."""

    dataset: str
    model: str
    output_dir: str
    split_by_time: bool
    model_config: ModelConfig
    train_config: TrainConfig

    @classmethod
    def load(cls, path: str, overrides: dict | None = None) -> "RunManifest":
        raw = read_json_object(path, "run config")
        if "dataset" not in raw:
            raise ParseError(f"run config {path}: missing key 'dataset'")
        try:
            top = {key: json_value(key, raw.get(key, default), kind)
                   for key, default, kind in (
                       ("dataset", "", "string"), ("model", "sain", "string"),
                       ("output_dir", "run", "string"), ("split_by_time", False, "bool"),
                       ("model_config", {}, "object"), ("train_config", {}, "object"))}
        except ValueError as e:
            raise ParseError(f"run config {path}: {e}") from None
        base = os.path.dirname(os.path.abspath(path))
        mc = {**asdict(ModelConfig()), **top.pop("model_config")}
        tc = {**asdict(TrainConfig()), **top.pop("train_config")}
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            scope, name = key.split(".", 1)
            {"model_config": mc, "train_config": tc, "top": top}[scope][name] = value
        if top["model"] not in MODEL_KINDS:
            raise ParseError(f"unknown model kind {top['model']!r}; "
                             f"expected one of {MODEL_KINDS}")
        try:
            model_config = ModelConfig.from_dict(mc)
            train_config = TrainConfig(**tc)
        except TypeError as e:
            raise ParseError(f"run config {path}: {e}") from e
        return cls(dataset=os.path.join(base, top["dataset"]), model=top["model"],
                   output_dir=os.path.join(base, top["output_dir"]),
                   split_by_time=top["split_by_time"],
                   model_config=model_config, train_config=train_config)


# Config key -> argparse options of the flag that overrides it. The flag is
# the key's last part with dashes (--learning-rate), and a boolean flag also
# takes its --no- form; argparse stores each under that last part.
_FLAG = {"action": argparse.BooleanOptionalAction, "default": None}
OVERRIDES = {
    "train_config.seed": {"type": int},
    "train_config.learning_rate": {"type": float},
    "train_config.weight_decay": {"type": float},
    "train_config.batch_size": {"type": int},
    "train_config.max_epochs": {"type": int},
    "train_config.patience": {"type": int},
    "model_config.embed_dim": {"type": int},
    "model_config.num_heads": {"type": int},
    "model_config.top_k": {"type": int},
    "model_config.dropout_rate": {"type": float},
    "model_config.l2_scope": {"choices": L2_SCOPES},
    "model_config.renormalize_topk": _FLAG,
    "model_config.gate_shared": _FLAG,
    "top.model": {"choices": MODEL_KINDS},
    "top.output_dir": {},
    "top.split_by_time": _FLAG,
}


def _overrides(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key.split(".")[1], None) for key in OVERRIDES}


def _add_override_flags(p: argparse.ArgumentParser, keys=tuple(OVERRIDES)) -> None:
    p.add_argument("--config", required=True, help="run config JSON")
    for key in keys:
        p.add_argument("--" + key.split(".")[1].replace("_", "-"), **OVERRIDES[key])


def _write_timing(out_dir: str, command: str, seconds: float, **extra) -> None:
    with open(os.path.join(out_dir, f"{command}.timing.json"), "w") as f:
        json.dump({"command": command, "wall_seconds": seconds, **extra}, f,
                  sort_keys=True)
        f.write("\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def _prepare(rm: RunManifest, seed: int, by_time: bool) -> PreparedData:
    return build_dataset(DatasetManifest.from_file(rm.dataset), seed, by_time=by_time)


def _load_run(args: argparse.Namespace) -> tuple:
    """(run manifest, kind, params, data) for a checkpoint command. The
    checkpoint's meta must hold the integer seed, and may hold the JSON bool
    `split_by_time` (absent is false), that the split is rebuilt with; the
    rebuilt data must hash to the meta's dataset digest."""
    rm = RunManifest.load(args.config, _overrides(args))
    path = args.checkpoint or os.path.join(rm.output_dir, CHECKPOINT_NAME)
    kind, params, _, meta = load_model(path)
    if not is_json(meta.get("seed"), "integer"):
        raise ParseError(f"checkpoint meta has no integer seed: {path}")
    try:
        by_time = json_value("split_by_time", meta.get("split_by_time", False), "bool")
    except ValueError as e:
        raise ParseError(f"checkpoint meta {path}: {e}") from None
    data = _prepare(rm, meta["seed"], by_time)
    stored = meta.get("dataset_digest")
    if stored is not None and stored != data.digest():
        raise ManifestDriftError(
            "dataset content or split differs from the one this checkpoint "
            "was trained on")
    return rm, kind, params, data


def cmd_train(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    rm = RunManifest.load(args.config, _overrides(args))
    t0 = time.perf_counter()
    data = _prepare(rm, rm.train_config.seed, rm.split_by_time)
    prepare_seconds = time.perf_counter() - t0
    try:
        if rm.model == "sain":
            result = train_sain(data, rm.model_config, rm.train_config)
        else:
            result = train_biasedmf(data, rm.model_config.embed_dim, rm.train_config,
                                    l2_scope=rm.model_config.l2_scope)
    except DivergenceError:
        os.makedirs(rm.output_dir, exist_ok=True)
        _write_timing(rm.output_dir, "train", time.perf_counter() - started,
                      prepare_seconds=prepare_seconds, stop_reason="divergence")
        raise
    os.makedirs(rm.output_dir, exist_ok=True)
    t0 = time.perf_counter()
    meta = {"kind": rm.model, "seed": rm.train_config.seed,
            "dataset_digest": data.digest(), "best_epoch": result.best_epoch,
            "best_val_rmse": result.best_val_rmse,
            "epochs_run": len(result.history),
            "stopped_early": result.stopped_early,
            "split_by_time": rm.split_by_time}
    ckpt_path = os.path.join(rm.output_dir, CHECKPOINT_NAME)
    save_model(ckpt_path, rm.model, result.params, result.adam, meta)
    save_seconds = time.perf_counter() - t0
    write_training_log(os.path.join(rm.output_dir, "training_log.csv"),
                       result.history)
    _write_json(os.path.join(rm.output_dir, "resolved.json"), asdict(rm))
    _write_timing(rm.output_dir, "train", time.perf_counter() - started,
                  prepare_seconds=prepare_seconds, save_seconds=save_seconds,
                  stop_reason=result.stop_reason,
                  epochs=[{"epoch": k, "train_seconds": train_s, "eval_seconds": eval_s}
                          for k, (train_s, eval_s) in enumerate(result.epoch_seconds, 1)])
    print(f"model={rm.model} epochs={len(result.history)} "
          f"best_epoch={result.best_epoch} "
          f"val_rmse={fmt(result.best_val_rmse)} checkpoint={ckpt_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    rm, kind, params, data = _load_run(args)
    prepare_seconds = time.perf_counter() - started
    evaluate = evaluate_sain if kind == "sain" else evaluate_mf
    with np.errstate(all="ignore"):
        report = evaluate(params, data, args.split)
    require_finite(*report.detail.values())
    os.makedirs(rm.output_dir, exist_ok=True)
    payload = {"split": args.split, "rmse": report.rmse, "mae": report.mae,
               "n": report.count,
               "detail": {k: list(v) for k, v in report.detail.items()}}
    _write_json(os.path.join(rm.output_dir, f"eval_{args.split}.json"), payload)
    _write_timing(rm.output_dir, "evaluate", time.perf_counter() - started,
                  prepare_seconds=prepare_seconds)
    print(f"RMSE={fmt(report.rmse)} MAE={fmt(report.mae)} N={report.count}")
    return 0


def _dense_ids(data: PreparedData, user: str, item: str) -> tuple[int, int]:
    if user not in data.user_ids:
        raise ShapeError(f"unknown user id {user!r}")
    if item not in data.item_ids:
        raise ShapeError(f"unknown item id {item!r}")
    return data.user_ids[user], data.item_ids[item]


def cmd_predict(args: argparse.Namespace) -> int:
    _, kind, params, data = _load_run(args)
    ids = [np.asarray([i]) for i in _dense_ids(data, args.user, args.item)]
    with np.errstate(all="ignore"):
        rows = (predict_sain(params, data, *ids) if kind == "sain"
                else predict_mf(params, *ids))
    print(" ".join(f"{key}={fmt(value)}" for key, value in rows[0].items()))
    return 0


def cmd_attention(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    rm, kind, params, data = _load_run(args)
    prepare_seconds = time.perf_counter() - started
    if kind != "sain":
        raise ShapeError("attention export requires an attention-model checkpoint")
    uid, iid = _dense_ids(data, args.user, args.item)
    with np.errstate(all="ignore"):
        matrices = attention_matrices(params, data, uid, iid)
    os.makedirs(rm.output_dir, exist_ok=True)
    labels = params.layout.fields
    for h, matrix in enumerate(matrices):
        write_attention_csv(os.path.join(rm.output_dir, f"attention_head{h}.csv"),
                            matrix, labels)
    _write_timing(rm.output_dir, "attention", time.perf_counter() - started,
                  prepare_seconds=prepare_seconds)
    print(f"heads={len(matrices)} output_dir={rm.output_dir}")
    return 0


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ParseError(f"{flag} must be >= 1, got {value}")


def cmd_sweep_k(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    _require_positive("--repeats", args.repeats)
    rm = RunManifest.load(args.config, _overrides(args))
    if rm.model != "sain":
        raise ShapeError("sweep-k requires the attention model")
    try:
        k_values = [int(k) for k in args.k_values.split(",") if k.strip() != ""]
    except ValueError:
        raise ParseError(f"bad --k-values {args.k_values!r}; expected "
                         "comma-separated integers") from None
    if not k_values:
        raise ParseError("--k-values is empty")
    for k in k_values:
        _require_positive("--k-values", k)
    data = _prepare(rm, rm.train_config.seed, rm.split_by_time)
    rows = sweep_top_k(data, rm.model_config, rm.train_config, k_values,
                       repeats=args.repeats)
    os.makedirs(rm.output_dir, exist_ok=True)
    write_sweep_csv(os.path.join(rm.output_dir, "sweep_k.csv"), rows)
    _write_timing(rm.output_dir, "sweep-k", time.perf_counter() - started)
    for r in rows:
        print(f"k={r['k']} repeat={r['repeat']} test_rmse={fmt(r['test_rmse'])} "
              f"test_mae={fmt(r['test_mae'])}")
    if args.repeats > 1:
        for k in k_values:
            vals = np.asarray([r["test_rmse"] for r in rows if r["k"] == k])
            print(f"k={k} mean_rmse={fmt(vals.mean())} std_rmse={fmt(vals.std())}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    _require_positive("--seeds", args.seeds)
    report = run_suite(num_seeds=args.seeds)
    for c in report.cases:
        k = "-" if c.top_k is None else c.top_k
        print(f"model={c.model} seed={c.seed} k={k} "
              f"max_rel_err={fmt(c.max_rel_err)} worst={c.worst_tensor}")
    status = "pass" if report.passed else "fail"
    print(f"max_rel_err={fmt(report.max_rel_err)} tolerance={fmt(TOLERANCE)} "
          f"status={status}")
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """A usage error is a ParseError, so it ends in one `error category=parse`
    line and exit 4 as every other bad input does; subparsers inherit the
    class."""

    def error(self, message: str):
        raise ParseError(message)


def _add_checkpoint_command(sub, name: str, summary: str, func) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    _add_override_flags(p, ("top.output_dir",))
    p.add_argument("--checkpoint", help="checkpoint path "
                   "(default: <output_dir>/model.ckpt)")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sain",
        description="Hybrid attention recommender: train, evaluate, and inspect.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a run config")
    _add_override_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = _add_checkpoint_command(sub, "evaluate", "evaluate a checkpoint on a split",
                                     cmd_evaluate)
    p_eval.add_argument("--split", default="test",
                        choices=("train", "validation", "test"))
    for name, summary, func in (
            ("predict", "score one user-item pair", cmd_predict),
            ("attention", "export per-head attention matrices for a pair", cmd_attention)):
        p = _add_checkpoint_command(sub, name, summary, func)
        p.add_argument("--user", required=True, help="raw user id")
        p.add_argument("--item", required=True, help="raw item id")

    p_sweep = sub.add_parser("sweep-k", help="retrain across top-K values")
    _add_override_flags(p_sweep)
    p_sweep.add_argument("--k-values", required=True,
                         help="comma-separated K values, e.g. 2,4,8")
    p_sweep.add_argument("--repeats", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep_k)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference gradient certification")
    p_grad.add_argument("--seeds", type=int, default=20)
    p_grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. The heap setting (keep_heap) is made before any
    command runs, so that every command builds the dataset on the heap that
    the engines train on, with fewer page faults than on glibc's default."""
    try:
        args = build_parser().parse_args(argv)
        keep_heap()
        return args.func(args)
    except SainError as e:
        print(f"error category={e.category}: {str(e).translate(LINE_ENDS)}",
              file=sys.stderr)
        return e.exit_code
    except ValueError as e:
        print(f"error category=error: {str(e).translate(LINE_ENDS)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
