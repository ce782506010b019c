import json
import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from longroad.backbone import ModelConfig
from longroad.config import (DEFAULTS, config_hash, load_config, metric_config,
                             model_config, train_config)
from longroad.diffusion import build_schedule
from longroad.errors import ConfigError
from longroad.metrics import MetricConfig
from longroad.training import TrainConfig


def test_default_config_hash_is_pinned():
    # reports, rollout sidecars and run metadata embed this hash
    assert config_hash(load_config()) == "c6664b28cd962111"


def test_defaults_are_the_dataclass_defaults():
    cfg = load_config()
    assert model_config(cfg) == ModelConfig()
    assert train_config(cfg) == TrainConfig()
    assert metric_config(cfg) == MetricConfig()


def test_settable_value_count():
    assert sum(len(values) for values in DEFAULTS.values()) == 41


@pytest.mark.parametrize("betas", [(0.0, 0.02), (0.03, 0.02), (1e-3, 1.0)])
def test_train_betas_follow_the_schedule_rule(betas):
    with pytest.raises(ConfigError, match="beta_start <= beta_end"):
        TrainConfig(beta_start=betas[0], beta_end=betas[1])


def test_rollout_window_must_exceed_memory_span(tmp_path):
    path = tmp_path / "config.json"
    span = DEFAULTS["train"]["memory_span_d"]
    path.write_text(json.dumps({"rollout": {"l_window": span}}))
    with pytest.raises(ConfigError, match="rollout.l_window must exceed train.memory_span_d"):
        load_config(path)


# small integers: an accepted t_max builds a schedule of that length
config_values = st.one_of(
    st.integers(-2, 64),
    st.floats(-2.0, 2.0),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "4", ""]),
    st.lists(st.integers(-1, 40), max_size=3),
)


def mostly(usual, rare):
    """`usual` three draws in four, so that some configs pass validation."""
    return st.sampled_from([usual, usual, usual, rare]).flatmap(lambda strategy: strategy)


def key_values(section, key):
    """Values of the default's type in a small range, or any of the above."""
    default = DEFAULTS.get(section, {}).get(key)
    if isinstance(default, float):
        typed = st.floats(0.0, 1.0)
    elif isinstance(default, list):
        typed = st.lists(st.integers(1, 40), min_size=1, max_size=3)
    else:
        typed = st.integers(0, 64)
    return mostly(typed, config_values)


def section_overrides(section):
    """Known and unknown keys of a section, or a value that is no object."""
    keys = sorted(DEFAULTS.get(section, {})) + ["Depth"]
    entries = st.sampled_from(keys).flatmap(
        lambda key: st.tuples(st.just(key), key_values(section, key)))
    return mostly(st.lists(entries, max_size=3).map(dict), config_values)


overrides = st.lists(
    st.sampled_from(sorted(DEFAULTS) * 3 + ["", "Model"]).flatmap(
        lambda section: st.tuples(st.just(section), section_overrides(section))),
    max_size=3).map(dict)


@settings(max_examples=300, deadline=None)
@given(overrides)
def test_any_override_gives_a_config_or_config_error(overrides):
    try:
        cfg = load_config(overrides=overrides)
    except ConfigError:
        return
    model_config(cfg)
    tc = train_config(cfg)
    metric_config(cfg)
    build_schedule(tc.t_max, tc.beta_start, tc.beta_end)
    assert len(config_hash(cfg)) == 16
