"""Run configuration: nested JSON with strict keys, documented defaults, and
a content hash recorded in every (JSON) output an experiment produces.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

from .backbone import ModelConfig
from .errors import ConfigError, DataError
from .metrics import MetricConfig
from .toyroad import HEADER_LIMITS
from .training import TrainConfig

DEFAULTS: dict = {
    "model": {
        # patch 4 keeps CPU spatial attention tractable at the alpha-scaled
        # resolutions; ModelConfig itself defaults to patch 2
        "depth": 4, "hidden": 128, "heads": 4, "patch": 4, "channels": 3,
        "t_max": 1000, "text_vocab": 64, "max_original_index": 4096,
        "mlp_ratio": 4, "rope_base": 10000.0,
    },
    "data": {
        "clips": 8, "frames": 64, "height": 32, "width": 48, "fps": 10, "seed": 0,
    },
    "train": {
        "phase_frames": [8, 16, 32], "phase_steps": [150, 150, 200],
        "token_budget": 32, "alpha_set": [1, 2], "memory_span_d": 4,
        "lam": 2.0, "lr": 2e-3, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8,
        "grad_clip": 1.0, "cond_dropout": 0.1, "seed": 0,
        "t_max": 1000, "beta_start": 1e-4, "beta_end": 0.02,
    },
    "rollout": {
        "l_window": 32, "steps": 50, "guidance_scale": 1.0, "fps": 10,
    },
    "eval": {
        "window": 40, "c": 9.5, "search_radius": 4, "block": 8,
        "feature_seed": 90210,
    },
}


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults deep-merged with the JSON file (if any); unknown keys rejected
    and every validation problem reported at once."""
    merged = copy.deepcopy(DEFAULTS)
    problems: list[str] = []
    user = {}
    if path is not None:
        try:
            raw = Path(path).read_bytes()
        except OSError as e:
            raise DataError(f"cannot read config {path}: {e.strerror or e}") from e
        try:
            user = json.loads(raw)
        except ValueError as e:  # bad JSON or bad UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {e}")
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    if overrides:
        for section, vals in overrides.items():
            user.setdefault(section, {}).update(vals)
    for section, values in user.items():
        if section not in merged:
            problems.append(f"unknown config section {section!r}")
            continue
        if not isinstance(values, dict):
            problems.append(f"section {section!r} must be an object")
            continue
        for key, value in values.items():
            if key not in merged[section]:
                problems.append(f"unknown key {section}.{key}")
            else:
                merged[section][key] = value
    problems.extend(_validate(merged))
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    return merged


_TRAIN_INTS = ("memory_span_d", "token_budget", "t_max")
_TRAIN_INT_LISTS = ("phase_frames", "phase_steps", "alpha_set")
_TRAIN_NUMBERS = ("lam", "lr", "beta1", "beta2", "adam_eps", "grad_clip",
                  "cond_dropout", "beta_start", "beta_end")


def _validate(cfg: dict) -> list[str]:
    problems = []
    try:
        model_config(cfg)
    except (ConfigError, TypeError, ValueError) as e:
        problems.append(f"model: {e}")
    rope_base = cfg["model"]["rope_base"]
    if not _is_number(rope_base) or rope_base <= 0:
        problems.append(f"model.rope_base must be a finite positive number, got {rope_base!r}")
    t = cfg["train"]
    train_problems = (
        [f"train.{k} must be an integer, got {t[k]!r}" for k in _TRAIN_INTS
         if not _is_int(t[k])]
        + [f"train.{k} must be a non-empty list of positive integers, got {t[k]!r}"
           for k in _TRAIN_INT_LISTS
           if not (isinstance(t[k], list) and t[k] and all(_is_int(v) and v >= 1 for v in t[k]))]
        + [f"train.{k} must be a finite number, got {t[k]!r}" for k in _TRAIN_NUMBERS
           if not _is_number(t[k])])
    problems.extend(train_problems)
    for section in ("data", "train"):  # seeds key numpy SeedSequences
        seed = cfg[section]["seed"]
        if not _is_int(seed) or seed < 0:
            problems.append(f"{section}.seed must be a non-negative integer, got {seed!r}")
    if not train_problems:
        try:
            train_config(cfg)
        except ConfigError as e:
            problems.append(f"train: {e}")
    try:
        metric_config(cfg)
    except ConfigError as e:
        problems.append(f"eval: {e}")
    for section, keys in (("data", ("clips", "frames", "height", "width", "fps")),
                          ("rollout", ("l_window", "steps", "fps"))):
        for key in keys:
            value = cfg[section][key]
            if not _is_int(value) or value < 1:
                problems.append(f"{section}.{key} must be a positive integer, got {value!r}")
            elif key in HEADER_LIMITS and value > HEADER_LIMITS[key]:
                problems.append(f"{section}.{key} must be <= {HEADER_LIMITS[key]} to fit "
                                f"the clip header, got {value}")
    patch = cfg["model"]["patch"]
    for key in ("height", "width"):
        size = cfg["data"][key]
        if _is_int(size) and _is_int(patch) and patch >= 1 and size % patch:
            problems.append(f"data.{key} ({size}) must be divisible by model.patch ({patch})")
    r = cfg["rollout"]
    if not _is_number(r["guidance_scale"]):
        problems.append(f"rollout.guidance_scale must be a finite number, "
                        f"got {r['guidance_scale']!r}")
    memory = cfg["train"]["memory_span_d"]
    if _is_int(r["l_window"]) and _is_int(memory) and r["l_window"] <= memory:
        problems.append("rollout.l_window must exceed train.memory_span_d")
    return problems


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int, or a finite float: JSON's NaN and Infinity are no config value."""
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_int(value)


def model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**cfg["model"])


def train_config(cfg: dict) -> TrainConfig:
    t = dict(cfg["train"])
    t["phase_frames"] = tuple(t["phase_frames"])
    t["phase_steps"] = tuple(t["phase_steps"])
    t["alpha_set"] = tuple(t["alpha_set"])
    return TrainConfig(**t)


def metric_config(cfg: dict, window: int | None = None) -> MetricConfig:
    """The eval section; `window`, when given, replaces eval.window."""
    window = cfg["eval"]["window"] if window is None else window
    return MetricConfig(**{**cfg["eval"], "window": window})


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
