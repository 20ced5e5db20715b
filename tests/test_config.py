"""Config parsing: desk defaults, per-section overrides, strict errors."""

import configparser
import dataclasses
import re
import typing
from pathlib import Path

import pytest

from genil.config import (
    DataSection,
    EnvSection,
    EvalSection,
    ExperimentConfig,
    PolicySection,
    SweepSection,
    _SCHEMA,
    config_to_dict,
    load_config,
    parse_config_text,
)
from genil.errors import ConfigError
from genil.genetics import GAConfig
from genil.policy_opt import CEMConfig
from genil.reward_net import TrainConfig


def test_empty_text_is_desk_default():
    assert parse_config_text("") == ExperimentConfig()


def test_readme_config_block_is_the_desk_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert parse_config_text(block, "README.md") == ExperimentConfig()
    # and it names every key a config may set, and no other
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read_string(block)
    assert {s: set(parser[s]) for s in parser.sections()} == {
        s: set(keys) for s, keys in _SCHEMA.items()
    }


def test_desk_default_values():
    cfg = ExperimentConfig()
    assert cfg.env.name == "GridNav"
    assert (cfg.env.demo_quality_good, cfg.env.demo_quality_bad) == (0.1, 0.5)
    assert cfg.ga.n_offspring == 12
    assert (cfg.data.n_snippets, cfg.data.min_len, cfg.data.max_len) == (2000, 15, 30)
    assert (cfg.data.n_pairs, cfg.data.min_margin) == (4000, 0.5)
    assert (cfg.train.learning_rate, cfg.train.steps, cfg.train.batch_size) == (
        3e-4,
        6000,
        16,
    )
    assert (cfg.policy.discount, cfg.policy.tol) == (0.99, 1e-10)
    assert cfg.eval.qualities == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    assert (cfg.eval.n_per_quality, cfg.eval.n_bins) == (10, 8)
    assert (cfg.eval.n_trials, cfg.eval.n_models_per_trial, cfg.eval.n_eval_episodes) == (
        5,
        3,
        5,
    )
    assert cfg.sweep.step_sizes == (1, 2, 5, 10, 20)
    assert cfg.base_seed == 1
    assert cfg.output_dir == "out"


def test_overrides_reach_every_section():
    cfg = parse_config_text(
        """
        [env]
        name = PointChase
        demo_quality_good = 0.05
        demo_quality_bad = 0.6

        [ga]
        n_offspring = 6
        rank_high = none

        [data]
        n_snippets = 100  # inline comment
        min_margin = 0.25

        [train]
        learning_rate = 1e-3

        [policy]
        cem_n_iters = 5

        [eval]
        qualities = 0.0, 0.5
        n_trials = 2

        [sweep]
        step_sizes = 1, 3

        [seeds]
        base = 9

        [output]
        dir = /tmp/somewhere
        """
    )
    assert cfg.env.name == "PointChase"
    assert (cfg.env.demo_quality_good, cfg.env.demo_quality_bad) == (0.05, 0.6)
    assert cfg.ga.n_offspring == 6
    assert cfg.ga.rank_high == 4  # "none" defers to rank_low + n_ranks - 1
    assert cfg.ga.crossover_rate == 0.9  # untouched keys keep defaults
    assert (cfg.data.n_snippets, cfg.data.min_margin) == (100, 0.25)
    assert cfg.train.learning_rate == 1e-3
    assert cfg.train.steps == 6000
    assert cfg.policy.cem_n_iters == 5
    assert cfg.eval.qualities == (0.0, 0.5)
    assert cfg.eval.n_trials == 2
    assert cfg.sweep.step_sizes == (1, 3)
    assert cfg.base_seed == 9
    assert cfg.output_dir == "/tmp/somewhere"


def test_policy_section_builds_cem_config():
    cfg = parse_config_text("[policy]\ncem_population_size = 16\ncem_n_iters = 2\n")
    cem = cfg.policy.cem()
    assert isinstance(cem, CEMConfig)
    assert (cem.population_size, cem.n_iters) == (16, 2)
    assert cem.n_elites == 2  # the best eighth of 16


def test_spec_reflects_env_choice():
    assert parse_config_text("").spec().name == "GridNav"
    assert parse_config_text("[env]\nname = PointChase\n").spec().name == "PointChase"


@pytest.mark.parametrize(
    "text,needle",
    [
        ("[nope]\nx = 1\n", "unknown section"),
        ("[env]\ncolour = blue\n", "unknown key"),
        ("[data]\nn_snippets = many\n", "integer"),
        # deleted keys: parents always include accepted offspring, training
        # has no weight penalty, and CEM keeps its elite fraction and init std
        ("[ga]\nparents_include_offspring = false\n", "unknown key 'parents_include_offspring'"),
        ("[train]\nl2 = 0.01\n", "unknown key 'l2'"),
        ("[policy]\ncem_elite_frac = 0.2\n", "unknown key 'cem_elite_frac'"),
        ("[policy]\ncem_init_std = 1.0\n", "unknown key 'cem_init_std'"),
        ("[data]\nn_snippets = 5\nn_snippets = 6\n", ""),  # duplicate key
        ("[DEFAULT]\nname = GridNav\n", "unknown section"),
        ("[sweep]\nstep_sizes =\n", "comma-separated"),
        ("[train]\nseed = 3\n", "unknown key 'seed'"),  # derived per model
        ("[eval]\nqualities = 0.3, 0.3\n", "eval qualities must not repeat"),
        ("[sweep]\nstep_sizes = 3, 3\n", "step sizes must not repeat"),
        # value iteration would sweep to its 1,000,000 cap before refusing it
        ("[policy]\ndiscount = 0.99999\n", "[policy] discount 0.99999 with [policy] tol 1e-10"),
        # a batch draws from the pair pool; a larger one would fail only in training
        (
            "[data]\nn_pairs = 120\n[train]\nbatch_size = 121\n",
            "[train] batch_size 121 exceeds [data] n_pairs 120",
        ),
    ],
)
def test_parse_errors(text, needle):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert needle in str(exc.value)


def test_discount_bound_follows_tol():
    # value iteration needs about log(tol) / log(discount) sweeps
    assert parse_config_text("[policy]\ndiscount = 0.9999\n").policy.discount == 0.9999
    cfg = parse_config_text("[policy]\ndiscount = 0.99999\ntol = 1e-3\n")
    assert cfg.policy.discount == 0.99999


def test_discount_bound_applies_only_where_value_iteration_runs():
    # PointChase derives its policies by CEM, which reads neither discount nor tol
    cfg = parse_config_text("[env]\nname = PointChase\n[policy]\ndiscount = 0.99999\n")
    assert (cfg.policy.discount, cfg.policy.tol) == (0.99999, 1e-10)
    with pytest.raises(ConfigError, match="value-iteration sweeps"):
        parse_config_text("[env]\nname = GridNav\n[policy]\ndiscount = 0.99999\n")


@pytest.mark.parametrize(
    "text",
    [
        "[env]\ndemo_quality_good = 0.7\n",  # >= bad default 0.5
        "[env]\ndemo_quality_bad = 1.5\n",
        "[env]\nname = Maze\n",
        "[data]\nmin_len = 40\n",  # above max_len default 30
        "[train]\nlearning_rate = 0\n",
        "[policy]\ndiscount = 1.0\n",
        "[eval]\nn_bins = 1\n",
        "[eval]\nqualities = 0.0, 2.0\n",
        "[sweep]\nstep_sizes = 0\n",
        "[ga]\nn_offspring = 0\n",
    ],
)
def test_validation_errors(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_error_names_origin():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[nope]\n", origin="exp.cfg")
    assert "exp.cfg" in str(exc.value)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[seeds]\nbase = 42\n\n[train]\nsteps = 10\n")
    cfg = load_config(path)
    assert cfg.base_seed == 42
    assert cfg.train.steps == 10
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_config_to_dict_covers_everything():
    cfg = ExperimentConfig()
    d = config_to_dict(cfg)
    assert set(d) == {
        "env",
        "ga",
        "data",
        "train",
        "policy",
        "eval",
        "sweep",
        "seeds",
        "output",
    }
    assert d["train"]["learning_rate"] == 3e-4
    assert d["seeds"] == {"base": 1}
    assert d["output"] == {"dir": "out"}
    assert d["ga"] == dataclasses.asdict(cfg.ga)
    # the dict must be json-serializable for manifests
    import json

    json.dumps(d)


# ---------------------------------------------------------------------------
# Each key is declared once, as a field of its section's dataclass

SECTION_TYPES = {
    "env": EnvSection,
    "ga": GAConfig,
    "data": DataSection,
    "train": TrainConfig,
    "policy": PolicySection,
    "eval": EvalSection,
    "sweep": SweepSection,
}


def section_fields(section):
    """(key, annotation) of every field a config may set in a section."""
    cls = SECTION_TYPES[section]
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]


def known_keys(section):
    """The keys the parser lists when it refuses an unknown one."""
    with pytest.raises(ConfigError) as exc:
        parse_config_text(f"[{section}]\nnot_a_key = 1\n")
    return set(str(exc.value).split("known keys: ")[1].split(", "))


KEYS = {s: {name for name, _ in section_fields(s)} for s in SECTION_TYPES}
KEYS |= {"seeds": {"base"}, "output": {"dir"}}


@pytest.mark.parametrize("section", sorted(KEYS))
def test_section_keys_are_its_dataclass_fields(section):
    assert known_keys(section) == KEYS[section]


@pytest.mark.parametrize("section", sorted(SECTION_TYPES))
def test_empty_section_is_its_dataclass_default(section):
    assert getattr(parse_config_text(""), section) == SECTION_TYPES[section]()


@pytest.mark.parametrize("text", ["[ga]\nn_ranks = 7\n", "[ga]\nrank_low = 2\n"])
def test_rank_high_defaults_from_the_files_rank_range(text):
    # rank_high = rank_low + n_ranks - 1, with the values the file gives
    assert parse_config_text(text).ga.rank_high == 6


MALFORMED = [
    (section, key)
    for section in sorted(SECTION_TYPES)
    for key, kind in section_fields(section)
    if kind is not str  # every string is a well-formed str value
] + [("seeds", "base")]


@pytest.mark.parametrize("section, key", MALFORMED, ids=[f"{s}.{k}" for s, k in MALFORMED])
def test_malformed_value_names_its_key(section, key):
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}: expected")):
        parse_config_text(f"[{section}]\n{key} = x!\n", origin="exp.cfg")


FLOAT_KEYS = [
    (section, key)
    for section in sorted(SECTION_TYPES)
    for key, kind in section_fields(section)
    if kind in (float, tuple[float, ...])
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_non_finite_float_is_refused_naming_its_key(section, key, value):
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}: expected a finite")):
        parse_config_text(f"[{section}]\n{key} = {value}\n", origin="exp.cfg")


def test_max_len_above_the_horizon_is_refused():
    with pytest.raises(ConfigError, match="max_len 60 exceeds the GridNav horizon 50"):
        parse_config_text("[data]\nmax_len = 60\n")
    assert parse_config_text("[data]\nmax_len = 50\n").data.max_len == 50
    point = parse_config_text("[env]\nname = PointChase\n[data]\nmax_len = 60\n")
    assert point.data.max_len == 60
