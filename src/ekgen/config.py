"""Pipeline configuration: one flat dataclass, JSON file + key=value overrides.

Every component (embedding training, the generator and its training) reads
its settings from this one `PipelineConfig`, under these field names. Its
defaults are the desk-scale run; `configs/paper.json` holds full-scale ones."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .synth import SyntheticSpec

MODES = ("EKG", "GAT_V", "GAT_VE")


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    seed: int = 0
    token_mode: str = "char"          # char | word
    min_chapter_tokens: int = 50
    min_freq: int = 1
    overlap_threshold: float = 0.5
    K: int = 5
    # embedding training
    d_f: int = 64
    lambda0: float = 0.5
    lambda1: float = 1.0
    lambda2: float = 0.3
    eps_ls: float = 0.1
    alpha: float = 0.0                # triplet margin
    lambda_r: float = 1.0
    phase1_steps: int = 150
    phase2_steps: int = 40
    embed_lr: float = 0.05
    rn_lr: float = 0.01
    # generator
    d_model: int = 64
    n_heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    bilstm_layers: int = 2
    gat_layers: int = 2
    mode: str = "GAT_VE"
    beam: int = 4
    max_len: int = 50
    max_passage: int = 256
    warmup: int = 50
    g2s_steps: int = 400
    batch_size: int = 8
    # at the full peak learning rate (about 0.018 at this size) the
    # generator often never learns to copy a passage's second entity
    lr_scale: float = 0.5
    # synth
    synth_chapters: int = 3
    synth_entities: int = 6
    synth_passages: int = 60
    synth_comments: int = 5

    def validate(self):
        if self.lambda1 <= 0:
            raise ConfigError("lambda1 must be positive")
        for name in ("lambda0", "lambda2", "lambda_r", "alpha", "eps_ls",
                     "overlap_threshold", "lr_scale", "embed_lr", "rn_lr",
                     "phase2_steps", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name in ("K", "d_f", "d_model", "n_heads", "encoder_layers",
                     "decoder_layers", "bilstm_layers", "gat_layers", "beam",
                     "max_len", "max_passage", "warmup", "phase1_steps",
                     "g2s_steps", "batch_size", "min_chapter_tokens", "min_freq"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.eps_ls >= 1.0:
            raise ConfigError("eps_ls must be < 1")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.token_mode not in ("char", "word"):
            raise ConfigError("token_mode must be 'char' or 'word'")
        if self.d_model % (2 * self.n_heads):
            raise ConfigError("d_model must be divisible by 2*n_heads")
        try:
            self.synth_spec()
        except ValueError as e:
            field, rest = str(e).split(" ", 1)
            raise ConfigError(f"{_SYNTH_KEYS[field]} {rest}") from e
        return self

    @property
    def lambdas(self) -> tuple[float, float, float]:
        return (self.lambda0, self.lambda1, self.lambda2)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    def synth_spec(self) -> SyntheticSpec:
        """The `synth` stage's corpus spec; out-of-range settings raise
        `SyntheticSpec`'s `ValueError`."""
        return SyntheticSpec(seed=self.seed, **{
            field: getattr(self, key) for field, key in _SYNTH_KEYS.items()})


# SyntheticSpec field -> the config key that sets it
_SYNTH_KEYS = {"chapters": "synth_chapters", "entities": "synth_entities",
               "passages": "synth_passages",
               "comments_per_passage": "synth_comments"}


_JSON_TYPE_NAMES = {int: "integer", float: "number", str: "string"}


def _typed(key: str, value, want: type):
    """`value` as config field `key` of Python type `want`: it must have the
    matching JSON type, except that an integer is accepted for a number, and
    a number must be finite."""
    if want is float and type(value) is int:
        return float(value)
    if type(value) is not want or (want is float and not math.isfinite(value)):
        raise ConfigError(f"{key} must be a finite JSON "
                          f"{_JSON_TYPE_NAMES[want]}, not {value!r}")
    return value


def _read_config_file(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from e
    except ValueError as e:                 # torn JSON or bad encoding
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must hold a JSON object of config keys")
    return raw


def load_config(path=None, preset: str | None = None,
                overrides: list[str] | None = None,
                seed: int | None = None) -> PipelineConfig:
    types = {f.name: type(f.default) for f in fields(PipelineConfig)}
    data: dict = {}
    if path:
        for key, value in _read_config_file(path).items():
            if key not in types:
                raise ConfigError(
                    f"unknown config key {key!r}; valid keys: {sorted(types)}")
            data[key] = _typed(key, value, types[key])
    # perfbench still passes preset="desk", the name of the defaults
    if preset not in (None, "desk"):
        raise ConfigError(f"unknown preset {preset!r}; 'desk' names the defaults")
    cfg = PipelineConfig(**data)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, val = item.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in types:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: {sorted(types)}")
        if types[key] is not str:
            try:
                val = json.loads(val)
            except json.JSONDecodeError as e:
                raise ConfigError(f"bad value for {key}: {val!r}") from e
        setattr(cfg, key, _typed(key, val, types[key]))
    if seed is not None:
        cfg.seed = seed
    return cfg.validate()
