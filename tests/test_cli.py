"""Every subcommand through ``cli.main(argv)``: exit 0 on good input, 2 on bad."""

import contextlib
import io
import json
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlora import bench, cli
from mixlora.checkpoint import load_checkpoint, save_checkpoint
from mixlora.cli import main
from mixlora.config import MAX_CONFIG_BYTES, RunConfig
from mixlora.errors import ConfigError
from mixlora.model import build_model
from mixlora.tasks import default_tasks
from mixlora.train import evaluate
from conftest import BYTE_FLIPS, flip_bytes

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


def test_train_to_unwritable_paths_exits_2(tmp_path, config_path, capsys):
    # A missing directory and a directory in place of the checkpoint file both
    # fail before any step runs. Neither leaves a checkpoint.
    missing = tmp_path / "missing" / "x.ckpt"
    assert main(["train", "--config", config_path, "--out", str(missing)]) == 2
    assert not missing.parent.exists()
    taken = tmp_path / "taken"
    taken.mkdir()
    assert main(["train", "--config", config_path, "--out", str(taken)]) == 2
    assert taken.is_dir() and not any(taken.iterdir())
    assert "error: cannot write" in capsys.readouterr().err


def test_train_to_a_directory_exits_2_before_any_step(tmp_path, config_path, monkeypatch,
                                                      capsys):
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("a step ran"))
    taken = tmp_path / "taken"
    taken.mkdir()
    assert main(["train", "--config", config_path, "--out", str(taken)]) == 2
    assert capsys.readouterr().err == f"error: --out {taken} is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]
    assert not any(taken.iterdir())


FOUR_TASKS = {"vocab_size": 32, "tasks": ["copy", "reverse", "shift", "parity"]}


@pytest.mark.parametrize("batch_size", [2, 18],
                         ids=["batch-below-task-count", "batch-not-a-multiple"])
def test_train_that_cannot_form_a_batch_exits_2_and_leaves_no_file(
        tmp_path, batch_size, monkeypatch, capsys):
    config = {**TINY, **FOUR_TASKS, "batch_size": batch_size}
    message = f"batch_size {batch_size} is not a multiple of the task count 4"
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict(config)
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("a step ran"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "ckpt")]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_train_mixes_every_configured_task(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, **FOUR_TASKS, "batch_size": 4}))
    code, out = run(["train", "--config", str(path), "--out", str(tmp_path / "ckpt")], capsys)
    assert code == 0
    assert sorted(json.loads(out)["eval"]) == sorted(FOUR_TASKS["tasks"])


def test_eval_on_a_one_expert_checkpoint(ckpt, capsys):
    code, out = run(["eval", "--ckpt", ckpt, "--task", "copy"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["task"] == "copy" and 0.0 <= result["accuracy"] <= 1.0
    assert result["expert_load_std"] == [0.0]
    (record,) = result["records"]
    assert record["expert_id"] == 0 and record["F"] == 1.0 and record["P"] == 1.0


def test_routing_is_reported_per_layer(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TINY, n_layers=2, n_experts=4, top_k=2)))
    ckpt = str(tmp_path / "ckpt")
    assert main(["train", "--config", str(config), "--out", ckpt]) == 0
    capsys.readouterr()
    code, out = run(["eval", "--ckpt", ckpt, "--task", "copy"], capsys)
    assert code == 0
    records = json.loads(out)["records"]
    assert [(r["layer"], r["expert_id"]) for r in records] == [
        (layer, e) for layer in range(2) for e in range(4)]
    loaded, model = load_checkpoint(ckpt)
    task = default_tasks()["copy"]
    _, stats = evaluate(model, task, task.generate(loaded.seed).test, loaded.mode)
    for layer, st in enumerate(stats):
        fractions = [r["F"] for r in records if r["layer"] == layer]
        assert fractions == st.dispatch_fractions().tolist()
        assert sum(fractions) == pytest.approx(1.0, abs=1e-12)


def test_bench(config_path, capsys):
    code, out = run(["bench", "--config", config_path, "--timed-iters", "1"], capsys)
    assert code == 0
    result = json.loads(out)
    assert set(result["ops"]) == {"train_step", "serve"}
    assert "memory" in result
    assert result["argv"] == ["mixlora", "bench", "--config", config_path,
                              "--timed-iters", "1"]


def test_sweep_sequential(config_path, capsys):
    code, out = run(["sweep", "--config", config_path, "--axis", "aux_coef",
                     "--jobs", "1"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["value"] for r in rows] == [0.0, 1e-3, 1e-2, 1e-1]


def test_sweep_with_an_invalid_point_exits_2_before_training(config_path, monkeypatch,
                                                             capsys):
    # d_model 8 admits ranks 2, 4 and 8 but not 16, so no point may train.
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("a sweep point trained"))
    assert main(["sweep", "--config", config_path, "--axis", "rank"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "lora_rank 16 exceeds" in err


class FakePool:
    """Records the worker count it is asked for and maps in this process."""

    workers: list = []

    def __init__(self, max_workers):
        FakePool.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_sweep_jobs_are_bounded_by_the_points_and_below_by_one(config_path,
                                                               monkeypatch, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "workers", [])
    code, out = run(["sweep", "--config", config_path, "--axis", "aux_coef",
                     "--jobs", "100000"], capsys)
    assert code == 0 and len(out.splitlines()) == len(cli.SWEEP_AXES["aux_coef"])
    assert FakePool.workers == [len(cli.SWEEP_AXES["aux_coef"])]
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("a sweep point trained"))
    for jobs in ("0", "-4"):
        assert main(["sweep", "--config", config_path, "--axis", "aux_coef",
                     "--jobs", jobs]) == 2
    assert FakePool.workers == [len(cli.SWEEP_AXES["aux_coef"])]
    assert capsys.readouterr().err.count("error: --jobs must be >= 1") == 2


def refuse_bench_work(monkeypatch):
    def refuse(*a, **k):
        pytest.fail("bench generated tasks or built a model before checking its input")

    monkeypatch.setattr(bench, "task_suite", refuse)
    monkeypatch.setattr(bench, "build_model", refuse)


# The first four are the options of the old block harness, now removed.
@pytest.mark.parametrize("args", [
    ["--tokens", "8"],
    ["--modes", "vanilla"],
    ["--models", "2"],
    ["--warmup-iters", "1"],
    ["--timed-iters", "1.5"],
    ["--timed-iters"],
    ["--config"],
])
def test_bench_bad_arguments_exit_2_before_allocating(config_path, monkeypatch,
                                                      capsys, args):
    refuse_bench_work(monkeypatch)
    assert main(["bench", "--config", config_path] + args) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--timed-iters", "0"],
    ["--timed-iters", str(bench.MAX_ITERS + 1)],
    ["--timed-iters", str(10**12)],
])
def test_bench_iteration_counts_exit_2_before_any_work(config_path, monkeypatch,
                                                        capsys, args):
    refuse_bench_work(monkeypatch)
    assert main(["bench", "--config", config_path] + args) == 2
    assert "timed_iters must be in" in capsys.readouterr().err


def test_bench_that_cannot_form_a_batch_exits_2_before_any_work(tmp_path, monkeypatch,
                                                                 capsys):
    refuse_bench_work(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, **FOUR_TASKS}))
    assert main(["bench", "--config", str(path)]) == 2
    assert "batch_size 2 is not a multiple of the task count 4" in capsys.readouterr().err


def test_unknown_task_exits_2_before_the_checkpoint_is_read(tmp_path, monkeypatch, capsys):
    def refuse(path):
        pytest.fail("the checkpoint was read before the task was checked")

    monkeypatch.setattr(cli, "load_checkpoint", refuse)
    assert main(["eval", "--ckpt", str(tmp_path / "ckpt"), "--task", "nosuch"]) == 2
    assert "unknown task 'nosuch'" in capsys.readouterr().err


def test_eval_of_a_task_the_checkpoint_cannot_encode_exits_2(tmp_path, capsys):
    # vocab 11 holds copy's symbols (3-10) but not parity's labels (29, 30).
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TINY, vocab_size=11)))
    ckpt = str(tmp_path / "ckpt")
    assert main(["train", "--config", str(config), "--out", ckpt]) == 0
    capsys.readouterr()
    assert main(["eval", "--ckpt", ckpt, "--task", "parity"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: vocab_size 11 below task requirement 31\n"


@pytest.fixture(scope="module")
def eval_target(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval-fuzz")
    config = RunConfig.from_dict(TINY)
    model = build_model(config.model(), config.seed, config.dtype, config.lr)
    save_checkpoint(str(root / "good"), config, model)
    return root, (root / "good").read_bytes()


# Task names the checkpoint holds (copy), cannot encode (parity at vocab 16)
# or that no registry knows; the checkpoint intact or with flipped bytes.
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(task=st.sampled_from(sorted(default_tasks())) | st.text(max_size=16),
       flips=st.just([]) | BYTE_FLIPS)
def test_fuzzed_eval_prints_a_report_or_one_error_line(eval_target, task, flips):
    root, good = eval_target
    path = root / "fuzzed"
    path.write_bytes(flip_bytes(good, flips))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # --task=TEXT, since argparse reads a separate "-x" argument as an option
        code = main(["eval", "--ckpt", str(path), f"--task={task}"])
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())["task"] == task
    else:
        assert code == 2 and out.getvalue() == ""
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), err.getvalue()


# Config changes over TINY: valid values, then at most one field past a bound
# or of the wrong type. d_model stays at most 8, so the rank axis (up to 16)
# never trains.
ARGV_CONFIGS = st.fixed_dictionaries({}, optional={
    "vocab_size": st.sampled_from([16, 32]),
    "d_model": st.sampled_from([4, 8]),
    "n_experts": st.sampled_from([1, 2]),
    "lora_rank": st.sampled_from([1, 4]),
    "steps": st.sampled_from([0, 1, 2]),
    "batch_size": st.sampled_from([2, 4]),
    "precision": st.sampled_from(["f32", "f64"]),
    "tasks": st.sampled_from([["copy"], ["copy", "reverse"]]),
})
ARGV_HOSTILE = st.none() | st.sampled_from([
    ("d_model", 0), ("d_model", 6), ("d_model", "8"), ("n_experts", 0), ("top_k", 3),
    ("lora_rank", 9), ("steps", -1), ("steps", 2**63), ("batch_size", 3),
    ("precision", "f16"), ("tasks", ["nope"]), ("tasks", []), ("lr", 2.0),
    ("lr", float("inf")),
])
# Option values as text: no digit of any script, so argparse's int() refuses it.
NON_INT = st.text(st.characters(exclude_categories=("N", "Cs")), min_size=1, max_size=4)


def run_argv_in(root, changes: dict, hostile, argv: list[str]) -> tuple[int, str, str]:
    """main(argv) with TINY, changes and the hostile field written to
    root/config.json; asserts that it leaves no other file there."""
    path = root / "config.json"
    path.write_text(json.dumps({**TINY, **changes, **dict([hostile] if hostile else [])}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # --opt=TEXT, since argparse reads a separate "-x" argument as an option
        code = main([argv[0], f"--config={path}", *argv[1:]])
    assert sorted(p.name for p in root.iterdir()) == ["config.json"]
    return code, out.getvalue(), err.getvalue()


def assert_output_or_one_error_line(code: int, out: str, err: str) -> None:
    """Exit 0 with JSON lines and a silent stderr, or exit 2 with nothing on
    stdout and exactly one ``error:`` line (argparse puts its usage first)."""
    if code == 0:
        assert err == "" and all(json.loads(line) for line in out.splitlines())
    else:
        assert code == 2 and out == "" and "Traceback" not in err, err
        errors = [line for line in err.splitlines() if "error: " in line]
        assert len(errors) == 1 and errors == err.splitlines()[-1:], err


@pytest.fixture(scope="module")
def argv_root(tmp_path_factory):
    return tmp_path_factory.mktemp("argv-fuzz")


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(changes=ARGV_CONFIGS, hostile=ARGV_HOSTILE,
       iters=st.sampled_from(["1", "2"])
       | st.sampled_from(["0", "-1", str(bench.MAX_ITERS + 1), "1.5"]) | NON_INT)
def test_fuzzed_bench_argv_prints_a_report_or_one_error_line(argv_root, changes, hostile,
                                                            iters):
    code, out, err = run_argv_in(argv_root, changes, hostile,
                                 ["bench", f"--timed-iters={iters}"])
    assert_output_or_one_error_line(code, out, err)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(changes=ARGV_CONFIGS, hostile=ARGV_HOSTILE,
       axis=st.sampled_from(sorted(cli.SWEEP_AXES)) | NON_INT,
       jobs=st.sampled_from(["1", "3", "100000"]) | st.sampled_from(["0", "-4"]) | NON_INT)
def test_fuzzed_sweep_argv_prints_rows_or_one_error_line(argv_root, changes, hostile, axis,
                                                        jobs):
    # A pool that maps in this process: workers would cost a fork per example.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "ProcessPoolExecutor", FakePool)
        mp.setattr(FakePool, "workers", [])
        code, out, err = run_argv_in(argv_root, changes, hostile,
                                     ["sweep", f"--axis={axis}", f"--jobs={jobs}"])
    assert_output_or_one_error_line(code, out, err)
    if code == 0:
        assert len(out.splitlines()) == len(cli.SWEEP_AXES[axis])


def test_bad_checkpoints_and_tasks_exit_2(tmp_path, ckpt, capsys):
    with open(ckpt, "rb") as f:
        data = f.read()
    bad = []
    for cfg_len in (2**62, 2**64 - 1):
        path = tmp_path / f"cfg_len_{cfg_len}"
        path.write_bytes(data[:8] + struct.pack("<Q", cfg_len) + data[16:])
        bad.append((str(path), "copy"))
    bad += [(str(tmp_path / "missing"), "copy"), (str(tmp_path), "copy"), (ckpt, "nosuch")]
    for path, task in bad:
        assert main(["eval", "--ckpt", path, "--task", task]) == 2, (path, task)
        assert capsys.readouterr().err.startswith("error: ")
    # A config length the file has room for, but no config file may reach.
    over = MAX_CONFIG_BYTES + 1
    path = tmp_path / "cfg_len_over"
    path.write_bytes(data[:8] + struct.pack("<Q", over) + bytes(over))
    assert main(["eval", "--ckpt", str(path), "--task", "copy"]) == 2
    assert capsys.readouterr().err == (f"error: checkpoint config of {over} bytes is larger "
                                       f"than {MAX_CONFIG_BYTES} bytes\n")


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["train", "--config", "x"]) == 2
    capsys.readouterr()
    # train takes its mode and its tasks from the config only.
    assert main(["train", "--config", "x", "--out", "y", "--mode", "vanilla"]) == 2
    assert "unrecognized arguments: --mode vanilla" in capsys.readouterr().err
    assert main(["train", "--config", "x", "--out", "y", "--multitask"]) == 2
    assert "unrecognized arguments: --multitask" in capsys.readouterr().err
    # sweep rows go to stdout only, and eval's records are the routing report.
    assert main(["sweep", "--config", "x", "--axis", "rank", "--out", "y"]) == 2
    assert "unrecognized arguments: --out y" in capsys.readouterr().err
    assert main(["inspect-routing", "--ckpt", "x", "--task", "copy"]) == 2
    assert "invalid choice: 'inspect-routing'" in capsys.readouterr().err
