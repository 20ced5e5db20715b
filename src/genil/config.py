"""Typed experiment configuration with a strict plain-text loader.

Config files are INI-style: ``[section]`` headers, ``key = value`` lines,
``#`` comments (full-line or inline).  Unknown sections or keys are
errors, so a typo can never silently fall back to a default, and so is
a float value that is not finite.  Each
section is a dataclass whose field defaults are the desk-scale settings
every command runs with when no file is given; ``ExperimentConfig()`` is
"the desk config" used throughout the test suite.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .envs import Environment, environment
from .errors import ConfigError
from .genetics import GAConfig
from .policy_opt import CEMConfig
from .reward_net import TrainConfig


@dataclass
class EnvSection:
    """Environment choice plus the two seed-demo quality knobs.

    Quality is a noise level in [0, 1]; lower is better, so the good
    demo must have the smaller value.
    """

    name: str = "GridNav"
    demo_quality_good: float = 0.1
    demo_quality_bad: float = 0.5

    def __post_init__(self) -> None:
        environment(self.name)
        for label, q in (("good", self.demo_quality_good), ("bad", self.demo_quality_bad)):
            if not 0.0 <= q <= 1.0:
                raise ConfigError(f"demo_quality_{label} must lie in [0, 1], got {q}")
        if not self.demo_quality_good < self.demo_quality_bad:
            raise ConfigError(
                "demo_quality_good must be below demo_quality_bad, got "
                f"{self.demo_quality_good} vs {self.demo_quality_bad}"
            )


@dataclass
class DataSection:
    """Snippet subsampling and pair construction sizes."""

    n_snippets: int = 2000
    min_len: int = 15
    max_len: int = 30
    n_pairs: int = 4000
    min_margin: float = 0.5

    def __post_init__(self) -> None:
        if self.n_snippets < 2:
            raise ConfigError(f"n_snippets must be >= 2, got {self.n_snippets}")
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigError(
                f"need 1 <= min_len <= max_len, got [{self.min_len}, {self.max_len}]"
            )
        if self.n_pairs < 1:
            raise ConfigError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.min_margin < 0:
            raise ConfigError(f"min_margin must be >= 0, got {self.min_margin}")


@dataclass
class PolicySection:
    """Policy-stage settings for the environment's derive_policy: GridNav's
    value-iteration discount and tolerance (bounded by its check_policy),
    PointChase's CEM population size and iteration count (its elite
    fraction and initial std are policy_opt's CEM_ELITE_FRAC and
    CEM_INIT_STD).  Ground-truth returns are discounted with the
    environment's own factor.
    """

    discount: float = 0.99
    tol: float = 1e-10
    cem_population_size: int = CEMConfig.population_size
    cem_n_iters: int = CEMConfig.n_iters

    def __post_init__(self) -> None:
        if not 0.0 <= self.discount < 1.0:
            raise ConfigError(f"discount must lie in [0, 1), got {self.discount}")
        if self.tol <= 0:
            raise ConfigError(f"tol must be > 0, got {self.tol}")
        self.cem()

    def cem(self) -> CEMConfig:
        return CEMConfig(population_size=self.cem_population_size, n_iters=self.cem_n_iters)


@dataclass
class EvalSection:
    """Evaluation-set shape and trial/model counts."""

    qualities: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    n_per_quality: int = 10
    n_bins: int = 8
    n_trials: int = 5
    n_models_per_trial: int = 3
    n_eval_episodes: int = 5

    def __post_init__(self) -> None:
        self.qualities = tuple(float(q) for q in self.qualities)
        if not self.qualities:
            raise ConfigError("qualities must be non-empty")
        for q in self.qualities:
            if not 0.0 <= q <= 1.0:
                raise ConfigError(f"eval qualities must lie in [0, 1], got {q}")
        if len(set(self.qualities)) != len(self.qualities):
            raise ConfigError(f"eval qualities must not repeat, got {list(self.qualities)}")
        for name in ("n_per_quality", "n_trials", "n_models_per_trial", "n_eval_episodes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_bins < 2:
            raise ConfigError(f"n_bins must be >= 2, got {self.n_bins}")


@dataclass
class SweepSection:
    """Crossover step sizes visited by the sweep command."""

    step_sizes: tuple[int, ...] = (1, 2, 5, 10, 20)

    def __post_init__(self) -> None:
        self.step_sizes = tuple(int(s) for s in self.step_sizes)
        if not self.step_sizes:
            raise ConfigError("step_sizes must be non-empty")
        for s in self.step_sizes:
            if s < 1:
                raise ConfigError(f"step sizes must be >= 1, got {s}")
        if len(set(self.step_sizes)) != len(self.step_sizes):
            raise ConfigError(f"step sizes must not repeat, got {list(self.step_sizes)}")


@dataclass
class ExperimentConfig:
    """Everything a run needs, grouped by pipeline stage.

    Each field is one config section: a section dataclass, whose fields
    are the section's keys, or a single value placed by _SCALARS.
    """

    env: EnvSection = field(default_factory=EnvSection)
    ga: GAConfig = field(default_factory=GAConfig)
    data: DataSection = field(default_factory=DataSection)
    train: TrainConfig = field(default_factory=TrainConfig)
    policy: PolicySection = field(default_factory=PolicySection)
    eval: EvalSection = field(default_factory=EvalSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    base_seed: int = 1
    output_dir: str = "out"

    def __post_init__(self) -> None:
        spec = self.spec()
        spec.check_policy(self.policy)
        if self.data.max_len > spec.horizon:
            raise ConfigError(
                f"[data] max_len {self.data.max_len} exceeds the {spec.name} "
                f"horizon {spec.horizon}"
            )
        if self.train.batch_size > self.data.n_pairs:
            raise ConfigError(
                f"[train] batch_size {self.train.batch_size} exceeds "
                f"[data] n_pairs {self.data.n_pairs}"
            )

    def spec(self) -> Environment:
        return environment(self.env.name)


# ---------------------------------------------------------------------------
# Parsing


def _to_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _to_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if not abs(value) < float("inf"):  # false for nan as well as for +-inf
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _to_opt_int(raw: str) -> int | None:
    if raw.strip().lower() == "none":
        return None
    return _to_int(raw)


def _list_of(cast):
    def to_list(raw: str) -> tuple:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"expected a comma-separated list, got {raw!r}")
        return tuple(cast(p) for p in parts)

    return to_list


# a field's annotation -> the caster of its config value
_CASTERS = {
    str: str.strip,
    int: _to_int,
    float: _to_float,
    int | None: _to_opt_int,
    tuple[int, ...]: _list_of(_to_int),
    tuple[float, ...]: _list_of(_to_float),
}

# ExperimentConfig field -> (section, key) of a single value
_SCALARS = {"base_seed": ("seeds", "base"), "output_dir": ("output", "dir")}


def _field_types(cls) -> dict[str, type]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


_TYPES = _field_types(ExperimentConfig)
# section -> its dataclass, for every ExperimentConfig field not in _SCALARS
_SECTIONS = {name: cls for name, cls in _TYPES.items() if name not in _SCALARS}
# section -> key -> caster; unknown sections/keys are rejected
_SCHEMA = {
    section: {key: _CASTERS[kind] for key, kind in _field_types(cls).items()}
    for section, cls in _SECTIONS.items()
} | {section: {key: _CASTERS[_TYPES[name]]} for name, (section, key) in _SCALARS.items()}


def parse_config_text(text: str, origin: str = "<string>") -> ExperimentConfig:
    """Build an ExperimentConfig from config-file text.

    Each section is its dataclass built from the keys the file gives, so
    a key the file leaves out takes its field's default, and a default
    that depends on other keys (GAConfig.rank_high) sees the file's
    values.  Unknown sections, unknown keys, duplicate keys, and type
    errors all raise ConfigError naming the offending location.
    """
    parser = configparser.ConfigParser(
        interpolation=None,
        inline_comment_prefixes=("#",),
        comment_prefixes=("#",),
        strict=True,
        default_section="\x00disabled\x00",
    )
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    overrides: dict[str, dict[str, object]] = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"{origin}: unknown section [{section}]; "
                f"known sections: {', '.join(sorted(_SCHEMA))}"
            )
        casters = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in casters:
                raise ConfigError(
                    f"{origin}: unknown key {key!r} in [{section}]; "
                    f"known keys: {', '.join(sorted(casters))}"
                )
            try:
                overrides[section][key] = casters[key](raw)
            except ConfigError as exc:
                raise ConfigError(f"{origin}: [{section}] {key}: {exc}") from None

    built = {section: cls(**overrides[section]) for section, cls in _SECTIONS.items()}
    for name, (section, key) in _SCALARS.items():
        if key in overrides[section]:
            built[name] = overrides[section][key]
    return ExperimentConfig(**built)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, origin=str(path))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain nested dict of every setting, for manifests and echoing."""
    out = {section: dataclasses.asdict(getattr(cfg, section)) for section in _SECTIONS}
    for name, (section, key) in _SCALARS.items():
        out[section] = {key: getattr(cfg, name)}
    return out
