"""The benchmark's own tests, at a tiny workload size.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import sain  # noqa: E402
import sain.training  # noqa: E402
from perfbench import pipeline, tracing  # noqa: E402
from perfbench.run import load_sain  # noqa: E402
from perfbench.synth import WORKLOADS, generate  # noqa: E402

SCALE = 0.03


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_prints_exactly_the_declared_metrics(workload, trace):
    spec = _bench_json()
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    proc = _run(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name
    assert result["attempted"] >= 1


def _tiny(tmp_path, name, seed=3):
    sain_mod = load_sain(ROOT)
    workload = WORKLOADS[name].scaled(SCALE)
    manifest = generate(workload, seed, str(tmp_path / "data"))
    return sain_mod, workload, manifest


def test_spans_nest_and_self_times_are_not_negative(tmp_path):
    sain_mod, workload, manifest = _tiny(tmp_path, "wide-topk")
    original = sain.training.forward_batch
    tracer = tracing.Tracer(workload.name)
    tracing.install(tracer, sain_mod)
    try:
        pipeline.run(sain_mod, workload, manifest, str(tmp_path), 3, 0.0,
                     pipeline.TRACED, tracer, pipeline.Ledger())
    finally:
        tracer.restore()
    assert sain.training.forward_batch is original

    spans = tracer.spans
    names = {s.name for s in spans}
    assert {"bench.setup", "training.step", "model.forward_batch.train",
            "tensor.top_k_mask_rows", "tensor.adam_step",
            "checkpoint.save_checkpoint", "model.forward_batch.eval1"} <= names
    children = {}
    for s in spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (parent.name, s.name)
            children.setdefault(s.parent, []).append(s)
    for kids in children.values():
        for a, b in zip(kids, kids[1:]):
            assert a.end <= b.start
    assert min(tracer.self_seconds()) >= 0.0
    metrics = tracing.layer_metrics(tracer, len(workload.fields))
    assert set(metrics) == {k for k in tracing.LAYER_UNITS if not k.startswith("trace.")}
    assert metrics["data.parse_feature_file.calls_per_field"] == 2.0
    assert metrics["tensor.top_k_mask_rows.active_row_share"] > 0.0


def test_corrupted_checkpoint_fails_the_round_trip_check(tmp_path):
    sain_mod, workload, manifest = _tiny(tmp_path, "mf-large-catalog")
    engine, _ = pipeline.setup(sain_mod, workload, manifest, 3, tracing.NullTracer())
    tcfg = pipeline.train_config(sain_mod, workload, 3)
    result = sain_mod.training.run_training(engine, tcfg)
    rmse = pipeline.evaluate(sain_mod, workload.model, result.params, engine.data).rmse
    path = str(tmp_path / "model.ckpt")
    pipeline.save_and_load(sain_mod, workload.model, result, engine.data, path, 3)

    intact = pipeline.Ledger()
    assert pipeline.check_checkpoint(sain_mod, path, engine.data, rmse, intact)
    assert intact.failed == 0 and intact.attempted == 2

    corrupted = str(tmp_path / "corrupted.ckpt")
    shutil.copyfile(path, corrupted)
    with open(corrupted, "r+b") as f:
        f.seek(os.path.getsize(corrupted) // 2)
        byte = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte[0] ^ 0xFF]))
    ledger = pipeline.Ledger()
    assert pipeline.check_checkpoint(sain_mod, corrupted, engine.data, rmse, ledger) is None
    assert ledger.failed == 1 and "checksum" in ledger.failures[0]


def test_generator_is_seeded(tmp_path):
    workload = WORKLOADS["ml100k-default"].scaled(SCALE)
    files = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        generate(workload, seed, str(tmp_path / name))
        with open(tmp_path / name / "ratings.tsv", "rb") as f:
            files.append(f.read())
    assert files[0] == files[1] != files[2]


def test_fails_without_the_library_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "ml100k-default", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
