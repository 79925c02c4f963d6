"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload wide-topk --seed 0 --seconds 30 --trace 0

With --trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 it wraps the library's public functions and reports the per-layer
metrics, plus the tracing overhead. Either way it checks the outputs. The
last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The full record (environment, sample counts, checks) goes to
.perfbench/out/<workload>-seed<seed>-trace<0|1>.json under the checkout, and
a traced run writes its spans beside it. Exit status: 0 when every operation
and check passed, 1 when one failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One process with one BLAS thread. The kernels are small: on the 2-core
# reference box a second OpenBLAS thread doubles CPU time and gains nothing,
# and it makes runs noisier.
BLAS_THREADS = 1

E2E_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "eval_pairs_per_s": "1/s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "ckpt_roundtrip_s": "s",
    "peak_rss_mb": "MB",
    "val_rmse": "rmse",
}

# What each workload is for, as (per-layer metric, test, threshold, claim).
# The traced run reports whether each holds; none of them fails a run.
PURPOSES = {
    "ml100k-default": [
        ("tensor.top_k_mask_rows.active_row_share", "==", 0.0,
         "K >= S, so the top-K filter runs but drops nothing"),
    ],
    "wide-topk": [
        ("training.step.forward_backward_share", ">=", 0.8,
         "forward_batch(train) + backward take >= 80% of a step"),
        ("tensor.top_k_mask_rows.active_row_share", ">", 0.0,
         "K < S, so the top-K filter drops entries"),
    ],
    "mf-large-catalog": [
        ("training.step.adam_share", ">=", 0.8,
         "adam_step takes >= 80% of a step"),
    ],
}

# The re-anchor split on ml100k-default (ms per step, 2 cores), kept beside
# the traced split for comparison only.
REFERENCE_SPLIT_MS = {"forward": 8.6, "backward": 21.6, "adam": 5.9}


class SourceMissing(RuntimeError):
    pass


def load_sain(root: str):
    """Import `sain` from the checkout's src/, never from anywhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sain", "__init__.py")):
        raise SourceMissing(f"no sain package under {src}")
    sys.path.insert(0, src)
    import sain
    import sain.baseline
    import sain.data
    import sain.errors
    import sain.model
    import sain.seeding
    import sain.training
    if os.path.dirname(os.path.dirname(os.path.abspath(sain.__file__))) != src:
        raise SourceMissing(f"sain was imported from {sain.__file__}, not {src}")
    return sain


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(workload: str, seed: int, scale: float) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_set": BLAS_THREADS, "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "workload": workload, "seed": seed, "scale": scale}


def generate(workload: str, seed: int, scale: float, out_dir: str) -> str:
    """Write the workload in a child process, so that neither its time nor
    its memory counts in the run."""
    subprocess.run([sys.executable, "-m", "perfbench.synth", "--workload", workload,
                    "--seed", str(seed), "--scale", repr(scale), "--out", out_dir],
                   cwd=ROOT, check=True, timeout=170)
    return os.path.join(out_dir, "dataset.json")


def _purpose(name: str, metrics: dict) -> list[dict]:
    tests = {"==": lambda a, b: a == b, ">": lambda a, b: a > b,
             ">=": lambda a, b: a >= b}
    return [{"metric": m, "value": metrics[m], "test": f"{op} {x}", "claim": claim,
             "confirmed": tests[op](metrics[m], x)}
            for m, op, x, claim in PURPOSES.get(name, [])]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, root: str = ROOT) -> dict:
    """Generate the workload, run it and return the full record."""
    sain = load_sain(root)
    from perfbench import pipeline, tracing
    from perfbench.synth import WORKLOADS

    workload = WORKLOADS[name].scaled(scale)
    out_dir = os.path.join(root, ".perfbench", "out")
    work_dir = os.path.join(root, ".perfbench", "work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    ledger = pipeline.Ledger()
    record = {"environment": environment(name, seed, scale)}
    try:
        manifest = generate(name, seed, scale, work_dir)
        if not trace:
            outcome = pipeline.run(sain, workload, manifest, work_dir, seed, seconds,
                                   pipeline.UNTRACED, tracing.NullTracer(), ledger)
            metrics = {k: outcome.metrics[k] for k in E2E_UNITS if k in outcome.metrics}
            units = E2E_UNITS
        else:
            metrics, outcome = _traced(sain, workload, manifest, work_dir, seed,
                                       seconds, ledger, os.path.join(out_dir, tag))
            units = tracing.LAYER_UNITS
            record["purpose"] = _purpose(name, metrics) if metrics else []
            if metrics and name == "ml100k-default":
                record["split_ms"] = {
                    "reference": REFERENCE_SPLIT_MS,
                    "measured": {"forward": metrics["model.forward_batch.train.ms_p50"],
                                 "backward": metrics["model.backward.ms_p50"],
                                 "adam": metrics["tensor.adam_step.ms_per_step"]}}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["info"] = outcome.info
    record["failures"] = ledger.failures
    record["result"] = {
        "correct": ledger.failed == 0 and len(metrics) == len(units),
        "attempted": max(1, ledger.attempted), "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return record


def _traced(sain, workload, manifest, work_dir, seed, seconds, ledger, spans_prefix):
    """Untraced training pass (the overhead baseline), then the whole pipeline
    with every layer wrapped."""
    from perfbench import pipeline, tracing

    engine, _ = pipeline.setup(sain, workload, manifest, seed, tracing.NullTracer())
    tcfg = pipeline.train_config(sain, workload, seed)
    ledger.ops()
    try:
        t0 = pipeline.clock()
        result = sain.training.run_training(engine, tcfg)
        untraced_rate = engine.n_train * workload.epochs / (pipeline.clock() - t0)
        untraced_sha = pipeline.params_sha256(result.final_params)
    except (sain.errors.SainError, *pipeline.OPERATION_ERRORS) as e:
        ledger.fail(f"untraced training: {e}")
        return {}, pipeline.Outcome()
    n_fields = len(engine.data.manifest.features)
    del engine, result
    gc.collect()

    tracer = tracing.Tracer(workload.name)
    tracing.install(tracer, sain)
    try:
        outcome = pipeline.run(sain, workload, manifest, work_dir, seed, seconds,
                               pipeline.TRACED, tracer, ledger)
    finally:
        tracer.restore()
    ledger.check(outcome.final_params_sha256 == untraced_sha,
                 "traced training ended with other parameters than untraced")
    metrics = tracing.layer_metrics(tracer, n_fields)
    traced_rate = outcome.metrics.get("train_samples_per_s", 0.0)
    metrics["trace.untraced.train_samples_per_s"] = untraced_rate
    metrics["trace.traced.train_samples_per_s"] = traced_rate
    metrics["trace.overhead.train_samples_per_s"] = traced_rate - untraced_rate
    metrics["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
    with open(spans_prefix + ".spans.json", "w", encoding="utf-8") as f:
        json.dump({"spans": tracer.to_json()}, f)
    return metrics, outcome


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Offline benchmark for the sain library.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="the eval loop runs for a quarter of this; set-up, "
                        "training, checkpointing and predictions are fixed work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply the workload's size (the benchmark's tests use it)")
    args = p.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.synth import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.scale)
    except (SourceMissing, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    result = record["result"]
    print(" ".join(f"{k}={v}" for k, v in record["environment"].items()))
    for k, v in sorted(record["info"].items()):
        if not isinstance(v, list):
            print(f"info {k}={v}")
    for item in record.get("purpose", []):
        state = "confirmed" if item["confirmed"] else "NOT confirmed"
        print(f"purpose {state}: {item['claim']} ({item['metric']}={item['value']!r})")
    for what in record["failures"]:
        print(f"FAILED {what}")
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
