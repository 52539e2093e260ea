import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlora.bench import config_hash
from mixlora.cli import main
from mixlora import config as config_mod
from mixlora.config import (
    MAX_CONFIG_BYTES,
    ModelConfig,
    RunConfig,
    frozen_parameter_count,
    load_config,
    step_activation_elements,
    trainable_parameter_count,
)
from mixlora.errors import ConfigError

# The flat JSON of the default RunConfig; keys sorted.
DEFAULT_JSON = (
    '{"aux_coef": 0.01, "batch_size": 16, "d_ff": 128, "d_model": 64, '
    '"dropout_p": 0.05, "lora_alpha": 32.0, "lora_rank": 16, "lr": 0.0002, '
    '"max_seq_len": 64, "mode": "optimized", "n_experts": 8, "n_heads": 4, '
    '"n_layers": 2, "precision": "f64", "seed": 7, "steps": 500, '
    '"tasks": ["copy"], "top_k": 2, "vocab_size": 8192}'
)

ILL_TYPED = [
    '{"lr": "fast"}',
    '{"lora_alpha": "x"}',
    '{"aux_coef": "1"}',
    '{"dropout_p": null}',
    '{"precision": []}',
    '{"seed": true}',
    '{"lr": NaN}',
    '{"lr": Infinity}',
    '{"lr": 1' + '0' * 400 + '}',  # an int too large for a float
    '{"n_layers": true}',
    '{"d_model": 64.0}',
    '{"mode": ["optimized"]}',
    '{"tasks": "copy"}',
    '{"tasks": ["copy", 1]}',
    '{"seed": -1}',
    # Nested past the JSON parser's recursion limit, yet under MAX_CONFIG_BYTES.
    '[' * 30000 + ']' * 30000,
    '{"a":' * 6000 + '1' + '}' * 6000,
]


def test_run_config_extends_model_config():
    config = RunConfig(d_model=32, d_ff=48, lr=1e-3)
    assert isinstance(config, ModelConfig)
    model = config.model()
    assert type(model) is ModelConfig
    assert model == ModelConfig(d_model=32, d_ff=48)


def test_default_json_is_unchanged_apart_from_grad_accum():
    assert RunConfig().to_json() == DEFAULT_JSON


def test_json_round_trip_is_lossless():
    config = RunConfig(
        vocab_size=96, d_model=32, n_heads=2, d_ff=48, n_layers=1, n_experts=4,
        top_k=1, lora_rank=4, lora_alpha=8.0, dropout_p=0.0, aux_coef=0.0,
        max_seq_len=32, lr=5e-3, steps=3, batch_size=4, seed=0, mode="vanilla",
        precision="f32", tasks=("copy", "parity"),
    )
    text = config.to_json()
    back = RunConfig.from_json(text)
    assert back == config
    assert back.to_json() == text
    assert sorted(json.loads(text)) == sorted(json.loads(DEFAULT_JSON))


def test_model_config_hash_is_unchanged():
    assert config_hash(RunConfig().model()) == "e6436c5f9906"


def test_grad_accum_is_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown config keys: \\['grad_accum'\\]"):
        RunConfig.from_dict({"grad_accum": 1})


IDS = [t if len(t) < 40 else t[:12] + "..." for t in ILL_TYPED]


@pytest.mark.parametrize("text", ILL_TYPED, ids=IDS)
def test_ill_typed_config_is_a_config_error(text):
    with pytest.raises(ConfigError):
        RunConfig.from_json(text)


@pytest.mark.parametrize("text", ILL_TYPED, ids=IDS)
def test_ill_typed_config_exits_2_from_cli(text, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(text)
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "ckpt")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "ckpt").exists()


def test_huge_dimensions_are_a_config_error(tmp_path, capsys):
    text = '{"d_model": ' + str(10**30) + ', "steps": 0}'
    with pytest.raises(ConfigError, match="above the limit"):
        RunConfig.from_json(text)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "ckpt")]) == 2
    assert "above the limit" in capsys.readouterr().err


def test_config_file_is_read_up_to_its_byte_bound(tmp_path, capsys):
    path = tmp_path / "config.json"
    text = '{"steps": 0}'
    path.write_text(text + " " * (MAX_CONFIG_BYTES - len(text)))
    assert load_config(str(path)).steps == 0
    path.write_text(text + " " * (MAX_CONFIG_BYTES + 1 - len(text)))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "ckpt")]) == 2
    assert f"larger than {MAX_CONFIG_BYTES} bytes" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("command", ["bench", "sweep --axis rank"])
def test_endless_config_device_exits_2(command, capsys):
    assert main([*command.split(), "--config", "/dev/zero"]) == 2
    assert "larger than" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"steps": "\xff"}')
    assert main(["bench", "--config", str(path)]) == 2
    assert "is not UTF-8" in capsys.readouterr().err


def test_size_limit_counts_the_base_and_one_adapter_set(monkeypatch):
    config = ModelConfig(vocab_size=64, d_model=16, n_heads=2, d_ff=24, n_layers=1,
                         n_experts=2, top_k=1, lora_rank=2, max_seq_len=8)
    size = frozen_parameter_count(config) + trainable_parameter_count(config)
    monkeypatch.setattr(config_mod, "MAX_ELEMENTS", size)
    config.validate()
    monkeypatch.setattr(config_mod, "MAX_ELEMENTS", size - 1)
    with pytest.raises(ConfigError):
        config.validate()


def test_huge_batch_size_is_a_config_error(tmp_path, capsys):
    text = '{"batch_size": ' + str(10**12) + ', "steps": 1}'
    with pytest.raises(ConfigError, match="batch_size .* above the limit"):
        RunConfig.from_json(text)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "ckpt")]) == 2
    assert "above the limit" in capsys.readouterr().err
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("dims", [
    {},  # [B*T, vocab_size] rows are the largest: 2**19 elements per sequence
    {"vocab_size": 16, "d_model": 8, "n_heads": 8, "d_ff": 8, "lora_rank": 2,
     "max_seq_len": 4096},  # the [B, n_heads, T, T] scores are the largest
])
def test_batch_size_limit_is_the_largest_step_array(dims):
    per_seq = step_activation_elements(RunConfig(batch_size=1, **dims))
    largest = config_mod.MAX_ELEMENTS // per_seq
    assert largest * per_seq == config_mod.MAX_ELEMENTS
    RunConfig(batch_size=largest, **dims).validate()
    with pytest.raises(ConfigError, match="batch_size"):
        RunConfig(batch_size=largest + 1, **dims).validate()


def test_numbers_in_float_fields_may_be_integers():
    config = RunConfig.from_json('{"lr": 0, "lora_alpha": 32}')
    assert config.lr == 0 and config.lora_alpha == 32


def test_max_seq_len_below_the_tasks_is_a_config_error(tmp_path, capsys):
    text = '{"max_seq_len": 4, "steps": 1}'
    with pytest.raises(ConfigError, match="max_seq_len 4 below task seq_len 14"):
        RunConfig.from_json(text)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "ckpt")]) == 2
    assert "max_seq_len" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("text, message", [
    ('{"lora_alpha": 1e308, "steps": 3}', "lora_alpha 1e+308 outside"),
    ('{"aux_coef": 1e308, "steps": 1}', "aux_coef 1e+308 outside"),
    ('{"lr": 1e5, "steps": 3}', "lr 100000.0 outside"),
    ('{"steps": 18446744073709551616}', "steps 18446744073709551616 outside [0, 100000]"),
], ids=["lora_alpha", "aux_coef", "lr", "steps"])
def test_overflowing_scale_is_a_config_error(text, message, tmp_path, capsys):
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig.from_json(text)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "ckpt")]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_scale_bounds_are_inclusive():
    RunConfig(lora_alpha=config_mod.MAX_LORA_ALPHA, aux_coef=config_mod.MAX_AUX_COEF,
              lr=config_mod.MAX_LR, steps=config_mod.MAX_STEPS).validate()
    with pytest.raises(ConfigError, match="lora_alpha"):
        RunConfig(lora_alpha=config_mod.MAX_LORA_ALPHA * 2).validate()
    with pytest.raises(ConfigError, match="aux_coef"):
        RunConfig(aux_coef=config_mod.MAX_AUX_COEF * 2).validate()
    with pytest.raises(ConfigError, match="lr"):
        RunConfig(lr=config_mod.MAX_LR * 2).validate()
    with pytest.raises(ConfigError, match="steps"):
        RunConfig(steps=config_mod.MAX_STEPS + 1).validate()


# The config fuzz: tiny valid dims that drawn fields replace. Each field draws
# from valid and boundary values (some just outside a bound); then at most one
# field takes a hostile value: a wrong type, a huge finite float or infinity.
FUZZ_BASE = {
    "vocab_size": 16, "d_model": 8, "n_heads": 2, "d_ff": 8, "n_layers": 1,
    "n_experts": 2, "top_k": 1, "lora_rank": 2, "max_seq_len": 16,
    "steps": 1, "batch_size": 2, "seed": 0, "tasks": ["copy"],
}
HUGE_INT = 2**31  # above MAX_ELEMENTS in every size field, so never allocated
FUZZ_FIELDS = {
    "vocab_size": (16, 32, 10, HUGE_INT),
    "d_model": (8, 16, 6, 0, HUGE_INT),
    "n_heads": (1, 2, 8, 3, 0, HUGE_INT),
    "d_ff": (1, 8, 16, 0, HUGE_INT),
    "n_layers": (1, 2, 0, HUGE_INT),
    "n_experts": (1, 2, 4, 0, HUGE_INT),
    "top_k": (1, 2, 4, 0, HUGE_INT),
    "lora_rank": (1, 2, 8, 9, 0, HUGE_INT),
    "max_seq_len": (14, 16, 13, HUGE_INT),
    "lora_alpha": (1e-300, 4.0, config_mod.MAX_LORA_ALPHA, config_mod.MAX_LORA_ALPHA * 2, 0.0),
    "dropout_p": (0.0, 0.5, 0.9999999999999999, 1.0),
    "aux_coef": (0.0, 0.01, config_mod.MAX_AUX_COEF, config_mod.MAX_AUX_COEF * 2),
    "lr": (0.0, 5e-324, 1e-2, config_mod.MAX_LR, config_mod.MAX_LR * 2),
    "steps": (0, 1, 2, config_mod.MAX_STEPS + 1, HUGE_INT),
    "batch_size": (1, 2, 4, 0, HUGE_INT),
    "seed": (0, 7, 2**64),
    "mode": ("vanilla", "optimized", "fast"),
    "precision": ("f32", "f64", "f16"),
    "tasks": (["copy"], ["copy", "reverse"], ["copy", "reverse", "shift", "parity"],
              ["nope"], []),
}
HOSTILE = (None, True, "8", [], {}, ["copy", 1], -1, 1.5, 1e308, -1e308, float("inf"))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(changes=st.fixed_dictionaries(
           {}, optional={name: st.sampled_from(v) for name, v in FUZZ_FIELDS.items()}),
       hostile=st.none() | st.tuples(st.sampled_from(sorted(FUZZ_FIELDS)),
                                     st.sampled_from(HOSTILE)))
def test_fuzzed_config_trains_or_exits_2_leaving_nothing(changes, hostile):
    """Any config JSON either trains (exit 0, writing the checkpoint and its
    metrics) or is refused with exit 2 before any file is written. A warning
    is an error under this suite's settings, so an overflow fails the test."""
    config = {**FUZZ_BASE, **changes, **dict([hostile] if hostile else [])}
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "config.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(config, f)
        out = os.path.join(root, "ckpt")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["train", "--config", path, "--out", out])
        left = sorted(os.listdir(root))
    assert code in (0, 2)
    assert left == (["ckpt", "ckpt.metrics.jsonl", "config.json"] if code == 0
                    else ["config.json"])
