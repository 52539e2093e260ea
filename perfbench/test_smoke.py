"""Fast smoke test of the benchmark at tiny dims.

    python3 -m pytest -q perfbench/test_smoke.py

Runs a tiny train and a tiny serve workload, untraced and traced, and asserts
that every metric BENCHMARK.json names is emitted with its unit, that every
check passes, and that the per-layer self times sum to no more than the
traced time per operation. Also checks that a lost gradient fails train-d64,
with and without a recorded reference loss.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

TINY_TRAIN = workloads.Workload("tiny-train", "train", 16, 32, steps=20)
TINY_SERVE = workloads.Workload("tiny-serve", "serve", 16, 32, seqs_per_set=2)

# Per-op self times; together they partition the traced root spans.
SELF_TIMES = (
    "model.attention_self_ms", "model.forward_self_ms", "model.loss_self_ms",
    "moe.block_self_ms", "moe.route_ms", "lora.delta_ms", "numerics.backward_ms",
    "optim.step_ms", "tasks.batch_ms", "train.loop_self_ms",
    "multitask.forward_self_ms",
)


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    """reference.json for the tiny workloads at seed 0, computed untimed.

    At these dims the loss barely leaves its step-0 value, so the learn check
    cannot hold; the runs must reproduce the untimed losses instead.
    """
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    path.write_text(json.dumps({wl.name: {"0": workloads.reference_loss(wl, 0)}
                                for wl in (TINY_TRAIN, TINY_SERVE)}))
    return str(path)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("wl", [TINY_TRAIN, TINY_SERVE], ids=lambda w: w.name)
def test_every_metric_emitted_with_unit(wl, trace, tmp_path, tiny_reference, monkeypatch):
    monkeypatch.setattr(workloads, "REFERENCE_PATH", tiny_reference)
    result = workloads.run(wl, seed=0, seconds=0.2, trace=trace, workdir=str(tmp_path))
    assert result["checks"].failures == []
    assert result["ops"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: unit for name, (_, unit) in result["metrics"].items()} == declared
    assert all(math.isfinite(value) for value, _ in result["metrics"].values())
    if trace:
        per_op_self = sum(result["metrics"][name][0] for name in SELF_TIMES)
        assert 0 < per_op_self <= result["metrics"]["trace.op_ms"][0]
    else:
        assert all(result["metrics"][m["name"]][0] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("seed, message", [(0, "vs reference"), (10**6, "did not fall")],
                         ids=["reference", "no-reference"])
def test_lost_gradient_fails_the_run(seed, message, monkeypatch, tmp_path):
    assert (workloads.load_reference("train-d64", seed) is None) == (message == "did not fall")
    monkeypatch.setattr(workloads.train_mod, "backward", lambda tape, loss: None)
    result = workloads.run(workloads.WORKLOADS["train-d64"], seed=seed, seconds=0.2,
                           trace=False, workdir=str(tmp_path))
    assert any(message in msg for msg in result["checks"].failures)


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-d64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
