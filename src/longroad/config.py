"""Run configuration: nested JSON with strict keys, documented defaults, and
a content hash recorded in every (JSON) output an experiment produces.

The `model`, `train` and `eval` defaults are the fields of ModelConfig,
TrainConfig and MetricConfig; `data` and `rollout` have no dataclass and are
written out below. Each key's expected type is the type of its default.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
from pathlib import Path

from .backbone import ModelConfig
from .curriculum import curriculum_schedule, window_memory
from .errors import ConfigError
from .fileio import input_errors
from .metrics import MetricConfig
from .toyroad import HEADER_LIMITS, VOCAB
from .training import TrainConfig


def _field_defaults(cls) -> dict:
    """A config dataclass's field defaults as JSON values (tuples as lists)."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(cls)}


DEFAULTS: dict = {
    "model": _field_defaults(ModelConfig),
    "data": {
        "clips": 8, "frames": 64, "height": 32, "width": 48, "fps": 10, "seed": 0,
    },
    "train": _field_defaults(TrainConfig),
    "rollout": {
        "l_window": 32, "steps": 50, "guidance_scale": 1.0, "fps": 10,
    },
    "eval": _field_defaults(MetricConfig),
}


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults deep-merged with the JSON file (if any), then with
    `overrides`. Unknown keys and wrong types are reported together, then
    every value problem, in one ConfigError."""
    merged = copy.deepcopy(DEFAULTS)
    problems: list[str] = []
    user = {}
    if path is not None:
        with input_errors(path, "config"):
            raw = Path(path).read_bytes()
        try:
            user = json.loads(raw)
        except ValueError as e:  # bad JSON or bad UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {e}")
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    for source in (user, overrides or {}):
        for section, values in source.items():
            if section not in merged:
                problems.append(f"unknown config section {section!r}")
            elif not isinstance(values, dict):
                problems.append(f"section {section!r} must be an object")
            else:
                for key, value in values.items():
                    if key not in merged[section]:
                        problems.append(f"unknown key {section}.{key}")
                    else:
                        merged[section][key] = value
    problems.extend(_validate(merged))
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    return merged


def _validate(cfg: dict) -> list[str]:
    """Every key's type first; the value rules run once all types hold, so
    each dataclass is built from well-typed fields."""
    problems = [problem for section, values in cfg.items()
                for key, value in values.items()
                if (problem := _type_problem(section, key, value))]
    if problems:
        return problems
    for section, build in (("model", model_config), ("train", train_config),
                           ("eval", metric_config)):
        try:
            build(cfg)
        except ConfigError as e:
            problems.append(f"{section}: {e}")
    model, data, train, rollout = (cfg[s] for s in ("model", "data", "train", "rollout"))
    for section in ("model", "data", "rollout"):
        for key, limit in HEADER_LIMITS.items():
            if cfg[section].get(key, 0) > limit:
                problems.append(f"{section}.{key} must be <= {limit} to fit the clip "
                                f"header, got {cfg[section][key]}")
    if model["text_vocab"] < len(VOCAB):  # every caption holds a digit, ids 15-24
        problems.append(f"model.text_vocab must be >= {len(VOCAB)}, the caption vocabulary, "
                        f"got {model['text_vocab']}")
    for key in ("height", "width"):
        if data[key] % model["patch"]:
            problems.append(f"data.{key} ({data[key]}) must be divisible by "
                            f"model.patch ({model['patch']})")
    if rollout["l_window"] <= train["memory_span_d"]:
        problems.append("rollout.l_window must exceed train.memory_span_d")
    if train["t_max"] > model["t_max"]:
        problems.append(f"train.t_max ({train['t_max']}) must be <= model.t_max "
                        f"({model['t_max']})")
    if rollout["steps"] > train["t_max"]:
        problems.append(f"rollout.steps ({rollout['steps']}) must be <= train.t_max "
                        f"({train['t_max']})")
    try:  # the curriculum's own rules (TrainConfig checks the step budgets)
        for phase in curriculum_schedule(train["phase_frames"], [1] * len(train["phase_frames"]),
                                         train["token_budget"]):
            for alpha in train["alpha_set"]:
                window_memory(phase.frames, alpha, train["memory_span_d"])
    except ConfigError as e:
        problems.append(f"train: {e}")
    # a window of L frames puts original indices 0 .. L-1 on the time axis
    for name, frames in (("rollout.l_window", rollout["l_window"]),
                         ("train.phase_frames", max(train["phase_frames"]))):
        if frames - 1 > model["max_original_index"]:
            problems.append(f"{name} ({frames} frames) must be <= "
                            f"model.max_original_index + 1 ({model['max_original_index'] + 1})")
    return problems


def _type_problem(section: str, key: str, value) -> str | None:
    """The one type rule, read off the key's default: a float default takes a
    finite number, a list default a non-empty list of positive integers, an
    int default a positive integer (seeds and the flow search radius may be
    0)."""
    default = DEFAULTS[section][key]
    if isinstance(default, float):
        ok, rule = _is_number(value), "a finite number"
    elif isinstance(default, list):
        ok = (isinstance(value, list) and len(value) > 0
              and all(_is_int(v) and v >= 1 for v in value))
        rule = "a non-empty list of positive integers"
    elif key.endswith("seed") or key == "search_radius":
        ok, rule = _is_int(value) and value >= 0, "a non-negative integer"
    else:
        ok, rule = _is_int(value) and value >= 1, "a positive integer"
    # worded like the dataclass problems ("eval: c (...)"), naming the key
    return None if ok else f"{section}: {key} ({section}.{key} = {value!r}) must be {rule}"


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
    return TrainConfig(**{k: tuple(v) if isinstance(v, list) else v
                          for k, v in cfg["train"].items()})


def metric_config(cfg: dict) -> MetricConfig:
    return MetricConfig(**cfg["eval"])


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
