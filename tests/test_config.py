import json
from dataclasses import fields
from pathlib import Path

import pytest

from ekgen.config import ConfigError, PipelineConfig, load_config

PAPER = Path(__file__).resolve().parent.parent / "configs" / "paper.json"


def test_defaults_follow_published_hyperparameters():
    cfg = PipelineConfig()
    assert (cfg.lambda0, cfg.lambda1, cfg.lambda2) == (0.5, 1.0, 0.3)
    assert cfg.eps_ls == 0.1
    assert cfg.alpha == 0.0
    assert cfg.lambda_r == 1.0
    assert cfg.K == 5
    assert cfg.bilstm_layers == 2
    assert cfg.gat_layers == 2
    assert cfg.beam == 4
    assert cfg.max_len == 50
    # desk sizes: every test, script and benchmark runs these
    assert (cfg.d_f, cfg.d_model, cfg.encoder_layers, cfg.decoder_layers) \
        == (64, 64, 2, 2)
    assert (cfg.min_chapter_tokens, cfg.phase1_steps, cfg.phase2_steps) \
        == (50, 150, 40)
    assert (cfg.warmup, cfg.g2s_steps, cfg.batch_size, cfg.lr_scale) \
        == (50, 400, 8, 0.5)


def test_paper_config_file_loads_and_peaks_within_its_run():
    raw = json.loads(PAPER.read_text(encoding="utf-8"))
    assert set(raw) <= {f.name for f in fields(PipelineConfig)}
    cfg = load_config(PAPER)
    assert (cfg.d_f, cfg.d_model, cfg.encoder_layers, cfg.decoder_layers) \
        == (768, 768, 6, 6)
    assert cfg.warmup <= cfg.g2s_steps
    # keys the file leaves out keep their defaults
    assert cfg.beam == PipelineConfig().beam


def test_desk_preset_names_the_defaults():
    # perfbench calls load_config(preset="desk", ...)
    assert load_config(preset="desk") == load_config() == PipelineConfig()
    with pytest.raises(ConfigError, match="preset"):
        load_config(preset="paper")


def test_validation_rejects_bad_values():
    for key, value in [("lambda1", 0.0), ("lambda0", -0.1), ("eps_ls", 1.5),
                       ("mode", "NOPE"), ("K", 0), ("token_mode", "bytes"),
                       ("beam", 0), ("embed_lr", -0.05), ("rn_lr", -0.01),
                       ("phase2_steps", -1), ("synth_chapters", 0),
                       ("synth_entities", 30), ("synth_passages", 2),
                       ("synth_comments", 2), ("seed", -1)]:
        cfg = PipelineConfig(**{key: value})
        with pytest.raises(ConfigError, match=key):
            cfg.validate()


def test_validation_rejects_head_indivisible_dim():
    with pytest.raises(ConfigError):
        PipelineConfig(d_model=100, n_heads=3).validate()


def test_unknown_key_lists_valid_keys():
    with pytest.raises(ConfigError, match="valid keys"):
        load_config(overrides=["not_a_key=1"])


def test_override_parsing_and_casting():
    cfg = load_config(overrides=["d_model=32", "lr_scale=0.25", "mode=GAT_V"])
    assert cfg.d_model == 32
    assert cfg.lr_scale == 0.25
    assert cfg.mode == "GAT_V"


def test_override_without_equals_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        load_config(overrides=["d_model"])


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d_model": 16, "n_heads": 2, "seed": 9}))
    cfg = load_config(path)
    assert cfg.d_model == 16
    assert cfg.seed == 9


def test_config_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_seed_argument_wins():
    cfg = load_config(seed=42)
    assert cfg.seed == 42


def test_config_accepts_integer_for_number(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"lambda0": 1, "K": 4}')
    cfg = load_config(path, overrides=["lr_scale=1", "mode=GAT_V"])
    assert (cfg.lambda0, cfg.lr_scale, cfg.K, cfg.mode) == (1.0, 1.0, 4, "GAT_V")
    assert type(cfg.lambda0) is type(cfg.lr_scale) is float
