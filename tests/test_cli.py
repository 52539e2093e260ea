"""Every subcommand through ``cli.main(argv)``: exit 0 on good input, 2 on bad."""

import json
import struct

import pytest

from mixlora.cli import main

# A one-expert, top-1 mixture: the plain LoRA baseline.
TINY = {
    "vocab_size": 16, "d_model": 8, "n_heads": 2, "d_ff": 8, "n_layers": 1,
    "n_experts": 1, "top_k": 1, "lora_rank": 2, "lora_alpha": 4.0, "max_seq_len": 16,
    "steps": 2, "batch_size": 2, "seed": 1, "tasks": ["copy"],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture
def ckpt(tmp_path, config_path, capsys):
    path = str(tmp_path / "ckpt")
    assert main(["train", "--config", config_path, "--out", path]) == 0
    capsys.readouterr()
    return path


def run(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


def test_train_writes_checkpoint_and_metrics(tmp_path, config_path, capsys):
    path = str(tmp_path / "ckpt")
    code, out = run(["train", "--config", config_path, "--out", path], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["checkpoint"] == path and summary["steps"] == 2
    lines = (tmp_path / "ckpt.metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["expert_load"] for line in lines] == [[[1.0]], [[1.0]]]


def test_eval_and_inspect_routing_on_a_one_expert_checkpoint(ckpt, capsys):
    code, out = run(["eval", "--ckpt", ckpt, "--task", "copy"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["task"] == "copy" and 0.0 <= result["accuracy"] <= 1.0
    assert result["expert_load_std"] == [0.0]
    code, out = run(["inspect-routing", "--ckpt", ckpt, "--task", "copy"], capsys)
    assert code == 0
    (record,) = json.loads(out)
    assert record["expert_id"] == 0 and record["F"] == 1.0 and record["P"] == 1.0


def test_bench(config_path, capsys):
    code, out = run(["bench", "--config", config_path, "--tokens", "8",
                     "--warmup-iters", "1", "--timed-iters", "1"], capsys)
    assert code == 0
    assert "memory" in json.loads(out)


def test_sweep_sequential(tmp_path, config_path, capsys):
    rows_path = tmp_path / "rows.jsonl"
    code, out = run(["sweep", "--config", config_path, "--axis", "aux_coef",
                     "--jobs", "1", "--out", str(rows_path)], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["value"] for r in rows] == [0.0, 1e-3, 1e-2, 1e-1]
    assert rows_path.read_text().splitlines() == out.splitlines()


@pytest.mark.parametrize("command", ["eval", "inspect-routing"])
def test_bad_checkpoints_and_tasks_exit_2(tmp_path, ckpt, command, capsys):
    with open(ckpt, "rb") as f:
        data = f.read()
    bad = []
    for cfg_len in (2**62, 2**64 - 1):
        path = tmp_path / f"cfg_len_{cfg_len}"
        path.write_bytes(data[:8] + struct.pack("<Q", cfg_len) + data[16:])
        bad.append((str(path), "copy"))
    bad += [(str(tmp_path / "missing"), "copy"), (str(tmp_path), "copy"), (ckpt, "nosuch")]
    for path, task in bad:
        assert main([command, "--ckpt", path, "--task", task]) == 2, (path, task)
        assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["train", "--config", "x"]) == 2
    capsys.readouterr()
