import json

import pytest

from mixlora.bench import config_hash
from mixlora.cli import main
from mixlora import config as config_mod
from mixlora.config import ModelConfig, RunConfig, frozen_parameter_count, trainable_parameter_count
from mixlora.errors import ConfigError

# The flat JSON of the default RunConfig; keys sorted.
DEFAULT_JSON = (
    '{"aux_coef": 0.01, "batch_size": 16, "d_ff": 128, "d_model": 64, '
    '"dropout_p": 0.05, "dropout_scope": "both", "lora_alpha": 32.0, '
    '"lora_rank": 16, "lr": 0.0002, "max_seq_len": 64, "mode": "optimized", '
    '"n_experts": 8, "n_heads": 4, "n_layers": 2, "precision": "f64", '
    '"router_count_topk": false, "seed": 7, "steps": 500, "tasks": ["copy"], '
    '"top_k": 2, "vocab_size": 8192}'
)

ILL_TYPED = [
    '{"lr": "fast"}',
    '{"lora_alpha": "x"}',
    '{"aux_coef": "1"}',
    '{"dropout_p": null}',
    '{"precision": []}',
    '{"router_count_topk": "no"}',
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
        max_seq_len=32, dropout_scope="experts", router_count_topk=True,
        lr=5e-3, steps=3, batch_size=4, seed=0, mode="vanilla", precision="f32",
        tasks=("copy", "parity"),
    )
    text = config.to_json()
    back = RunConfig.from_json(text)
    assert back == config
    assert back.to_json() == text
    assert sorted(json.loads(text)) == sorted(json.loads(DEFAULT_JSON))


def test_model_config_hash_is_unchanged():
    assert config_hash(RunConfig().model()) == "63df296228c1"


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


def test_size_limit_counts_the_base_and_one_adapter_set(monkeypatch):
    config = ModelConfig(vocab_size=64, d_model=16, n_heads=2, d_ff=24, n_layers=1,
                         n_experts=2, top_k=1, lora_rank=2, max_seq_len=8)
    size = frozen_parameter_count(config) + trainable_parameter_count(config)
    monkeypatch.setattr(config_mod, "MAX_ELEMENTS", size)
    config.validate()
    monkeypatch.setattr(config_mod, "MAX_ELEMENTS", size - 1)
    with pytest.raises(ConfigError):
        config.validate()


def test_numbers_in_float_fields_may_be_integers():
    config = RunConfig.from_json('{"lr": 0, "lora_alpha": 32}')
    assert config.lr == 0 and config.lora_alpha == 32
