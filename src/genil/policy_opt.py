"""Policy derivation from a reward model, plus ground-truth evaluation.

GridNav admits exact value iteration over its 64 cells; PointChase uses
the cross-entropy method over three linear feedback gains.  CEM rolls out
its whole population in lockstep (envs.pointchase_linear_rollout), with
one dot product per candidate per step so that every rollout equals the
per-step rollout of that candidate bit for bit.  Both read the reward
model only through batch state predictions, so the true reward never
leaks into policy optimization; ground truth is consulted solely by
policy_returns and evaluate_policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .envs import (
    ENV_GRIDNAV,
    ENV_POINTCHASE,
    GRID_N_STATES,
    PC_ACTION_MAX,
    EnvSpec,
    _clamp,
    gridnav_all_features,
    gridnav_cell_of,
    gridnav_transitions,
    make_env,
    pointchase_linear_rollout,
    rollout,
)
from .errors import ConfigError, DivergenceError
from .fileio import atomic_write
from .reward_net import RewardEnsemble, RewardModel, predict_states
from .seeding import derive_seed
from .trajectory import gt_return

KIND_GREEDY_TABULAR = "greedy_tabular"
KIND_LINEAR_GAUSSIAN = "linear_gaussian"
ARTIFACT_VERSION = 1


def _reward_vector(reward, features: np.ndarray) -> np.ndarray:
    """Batch rewards from a RewardModel, a RewardEnsemble, or a callable."""
    if isinstance(reward, (RewardModel, RewardEnsemble)):
        return predict_states(reward, features)
    return np.asarray(reward(features), dtype=np.float64).reshape(-1)


@dataclass
class CEMConfig:
    population_size: int = 64
    elite_frac: float = 0.125
    n_iters: int = 30
    init_std: float = 2.0

    def __post_init__(self) -> None:
        if self.population_size < 8:
            raise ConfigError(f"population_size must be >= 8, got {self.population_size}")
        if not 0.0 < self.elite_frac < 1.0:
            raise ConfigError(f"elite_frac must lie in (0, 1), got {self.elite_frac}")
        if self.n_iters < 0:
            raise ConfigError(f"n_iters must be >= 0, got {self.n_iters}")
        if self.init_std <= 0:
            raise ConfigError(f"init_std must be > 0, got {self.init_std}")

    @property
    def n_elites(self) -> int:
        return max(1, int(self.population_size * self.elite_frac))


@dataclass
class PolicyArtifact:
    """Serializable policy: an action table or linear feedback gains."""

    kind: str
    env: str
    parameters: np.ndarray
    source_model: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_GREEDY_TABULAR, KIND_LINEAR_GAUSSIAN):
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        self.parameters = np.asarray(self.parameters)

    def as_policy(self, spec: EnvSpec):
        if spec.name != self.env:
            raise ConfigError(f"policy is for {self.env}, spec is {spec.name}")
        if self.kind == KIND_GREEDY_TABULAR:
            return TabularPolicy(spec=spec, table=self.parameters.astype(np.int64))
        return LinearPolicy(spec=spec, gains=self.parameters.astype(np.float64))


@dataclass
class TabularPolicy:
    spec: EnvSpec
    table: np.ndarray  # (64,) action per cell

    kind = KIND_GREEDY_TABULAR

    def act(self, features: np.ndarray, rng: np.random.Generator) -> int:
        return int(self.table[gridnav_cell_of(features)])


@dataclass
class LinearPolicy:
    spec: EnvSpec
    gains: np.ndarray  # (3,) feedback gains over (pos, vel, target-pos)

    kind = KIND_LINEAR_GAUSSIAN

    def act(self, features: np.ndarray, rng: np.random.Generator) -> float:
        return float(_clamp(self.gains @ features, -PC_ACTION_MAX, PC_ACTION_MAX))


def value_iteration(
    spec: EnvSpec,
    reward,
    discount: float | None = None,
    tol: float = 1e-10,
    max_iters: int = 100000,
    source_model: str | None = None,
) -> PolicyArtifact:
    """Exact Bellman iteration on the 64-cell grid.

    The reward model is evaluated once per cell feature vector; iteration
    runs to sup-norm residual < tol; the greedy policy breaks ties toward
    the lowest action index.  Fully deterministic.
    """
    if spec.name != ENV_GRIDNAV:
        raise ConfigError(f"value_iteration requires GridNav, got {spec.name}")
    if tol <= 0:
        raise ConfigError(f"tol must be > 0, got {tol}")
    gamma = spec.discount if discount is None else float(discount)
    rewards = _reward_vector(reward, gridnav_all_features())
    if rewards.shape != (GRID_N_STATES,):
        raise ConfigError(f"expected {GRID_N_STATES} cell rewards, got {rewards.shape}")
    transitions = gridnav_transitions()
    values = np.zeros(GRID_N_STATES)
    for _ in range(max_iters):
        q = rewards[:, None] + gamma * values[transitions]
        new_values = q.max(axis=1)
        residual = float(np.abs(new_values - values).max())
        values = new_values
        if residual < tol:
            break
    else:
        raise ConfigError(
            f"value iteration did not reach residual {tol} within {max_iters} iterations"
        )
    greedy = np.argmax(rewards[:, None] + gamma * values[transitions], axis=1)
    return PolicyArtifact(
        kind=KIND_GREEDY_TABULAR,
        env=ENV_GRIDNAV,
        parameters=greedy.astype(np.int64),
        source_model=source_model,
        meta={"discount": gamma, "tol": tol},
    )


def cem_search(
    spec: EnvSpec,
    reward,
    cfg: CEMConfig,
    seed: int,
    source_model: str | None = None,
) -> PolicyArtifact:
    """Cross-entropy method over the three feedback gains.

    Each iteration samples a Gaussian population around the current mean,
    rolls all candidates out in lockstep, scores each by the undiscounted
    learned-reward sum over its own rollout (one prediction call per
    candidate), and refits mean/std to the top elite fraction.  The
    population rollout takes each action as a per-candidate dot product
    (one BLAS ddot, as `gains @ feats` does), so fitness, elites and the
    result are bit-identical to rolling each candidate out alone.
    Returns the final mean.
    """
    if spec.name != ENV_POINTCHASE:
        raise ConfigError(f"cem_search requires PointChase, got {spec.name}")
    rng = np.random.default_rng(derive_seed(seed, "cem"))
    dim = spec.feature_dim
    mean = np.zeros(dim)
    std = np.full(dim, cfg.init_std)
    history = [mean.copy()]
    for iteration in range(cfg.n_iters):
        population = mean + std * rng.normal(size=(cfg.population_size, dim))
        states = pointchase_linear_rollout(spec, population)
        fitness = np.array([float(_reward_vector(reward, s).sum()) for s in states])
        if not np.all(np.isfinite(fitness)):
            raise DivergenceError(
                f"non-finite candidate fitness at CEM iteration {iteration}",
                step=iteration,
            )
        elite_rows = np.argsort(-fitness, kind="stable")[: cfg.n_elites]
        elites = population[elite_rows]
        mean = elites.mean(axis=0)
        # keep a small exploration floor so the search cannot collapse early
        std = np.maximum(elites.std(axis=0), 1e-6)
        history.append(mean.copy())
    return PolicyArtifact(
        kind=KIND_LINEAR_GAUSSIAN,
        env=ENV_POINTCHASE,
        parameters=mean,
        source_model=source_model,
        meta={
            "n_iters": cfg.n_iters,
            "population_size": cfg.population_size,
            "mean_history": [[float(v) for v in m] for m in history],
        },
    )


@dataclass
class EvalStats:
    mean: float
    std: float
    returns: np.ndarray

    @property
    def n_episodes(self) -> int:
        return len(self.returns)


def policy_returns(policy, spec: EnvSpec, n_episodes: int, seed: int) -> np.ndarray:
    """Discounted ground-truth returns of n_episodes fresh seeded rollouts.

    Any policy envs.rollout accepts will do; episode i is seeded by
    derive_seed(seed, "eval-ep", i).
    """
    if n_episodes < 1:
        raise ConfigError(f"n_episodes must be >= 1, got {n_episodes}")
    env = make_env(spec, seed)
    return np.array(
        [
            gt_return(
                rollout(env, policy, derive_seed(seed, "eval-ep", i), source="eval"),
                spec.discount,
            )
            for i in range(n_episodes)
        ]
    )


def evaluate_policy(
    artifact: PolicyArtifact, spec: EnvSpec, n_episodes: int, seed: int
) -> EvalStats:
    """Mean and population std of policy_returns for a policy artifact."""
    returns = policy_returns(artifact.as_policy(spec), spec, n_episodes, seed)
    return EvalStats(mean=float(returns.mean()), std=float(returns.std()), returns=returns)


def save_policy(artifact: PolicyArtifact, path) -> None:
    payload = {
        "format_version": ARTIFACT_VERSION,
        "kind": artifact.kind,
        "env": artifact.env,
        "parameters": [
            int(v) if artifact.kind == KIND_GREEDY_TABULAR else float(v)
            for v in artifact.parameters
        ],
        "source_model": artifact.source_model,
        "meta": artifact.meta,
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_policy(path) -> PolicyArtifact:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format_version") != ARTIFACT_VERSION:
        raise ConfigError(
            f"unsupported policy artifact version {payload.get('format_version')!r} in {path}"
        )
    dtype = np.int64 if payload["kind"] == KIND_GREEDY_TABULAR else np.float64
    return PolicyArtifact(
        kind=payload["kind"],
        env=payload["env"],
        parameters=np.asarray(payload["parameters"], dtype=dtype),
        source_model=payload["source_model"],
        meta=payload["meta"],
    )
