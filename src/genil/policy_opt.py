"""Policy derivation from a reward function, plus ground-truth evaluation.

Each environment's derive_policy calls one derivation here: GridNav's
exact value iteration over its 64 cells, by the loop that builds the
optimal demonstrator (envs.gridnav_greedy_actions), and PointChase's
cross-entropy method over three linear feedback gains.  CEM rolls out
its whole population in lockstep (envs.pointchase_linear_rollout), with
one dot product per candidate per step so that every rollout equals the
per-step rollout of that candidate bit for bit.  Both take the reward as a
function from an (n, d) state batch to n rewards (a learned model's is
functools.partial(reward_net.predict_states, model)), so the true reward
never leaks into policy optimization; ground truth is consulted solely by
evaluate_policy, which scores every policy the pipeline derives or clones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .envs import (
    ENVIRONMENTS,
    GRID_N_STATES,
    Environment,
    GridNavEnv,
    PointChaseEnv,
    environment,
    gridnav_all_features,
    gridnav_greedy_actions,
    pointchase_linear_rollout,
    rollout,
)
from .errors import ConfigError, DivergenceError
from .fileio import parsing, write_lines
from .seeding import derive_seed
from .trajectory import gt_return

ARTIFACT_VERSION = 1
CEM_ELITE_FRAC = 0.125
CEM_INIT_STD = 2.0


@dataclass
class CEMConfig:
    population_size: int = 64
    n_iters: int = 30

    def __post_init__(self) -> None:
        if self.population_size < 8:
            raise ConfigError(f"population_size must be >= 8, got {self.population_size}")
        if self.n_iters < 0:
            raise ConfigError(f"n_iters must be >= 0, got {self.n_iters}")

    @property
    def n_elites(self) -> int:
        return int(self.population_size * CEM_ELITE_FRAC)


@dataclass
class PolicyArtifact:
    """Serializable policy that acts by itself in spec, the environment it
    was derived in, horizon and all; a policy.json names spec by its name.
    spec sets its parameters' form: a GridNav action per cell (int64) or
    PointChase linear feedback gains (float64) over (pos, vel, target-pos)."""

    spec: Environment
    parameters: np.ndarray
    source_model: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.parameters = np.asarray(self.parameters, dtype=self.spec.parameter_dtype)

    def act(self, features: np.ndarray, rng: np.random.Generator) -> int | float:
        return self.spec.policy_act(self.parameters, features)


def value_iteration(
    spec: GridNavEnv, reward, discount: float | None = None, tol: float = 1e-10
) -> PolicyArtifact:
    """Greedy per-cell policy from exact value iteration on the 64-cell grid.

    reward, a function from a state batch to its rewards, is called once on
    the 64 cell feature vectors, and its rewards are handed to
    envs.gridnav_greedy_actions, the demonstrator's loop.  A non-finite
    cell reward, whose residual never falls below tol, is refused with
    DivergenceError before the first sweep.
    """
    if tol <= 0:
        raise ConfigError(f"tol must be > 0, got {tol}")
    gamma = spec.discount if discount is None else float(discount)
    rewards = reward(gridnav_all_features())
    if rewards.shape != (GRID_N_STATES,):
        raise ConfigError(f"expected {GRID_N_STATES} cell rewards, got {rewards.shape}")
    if not np.all(np.isfinite(rewards)):
        raise DivergenceError("non-finite cell reward: value iteration cannot converge", step=0)
    return PolicyArtifact(
        spec=spec,
        parameters=gridnav_greedy_actions(rewards, gamma, tol),
        meta={"discount": gamma, "tol": tol},
    )


def cem_search(spec: PointChaseEnv, reward, cfg: CEMConfig, seed: int) -> PolicyArtifact:
    """Cross-entropy method over the three feedback gains.

    Each iteration samples a Gaussian population around the current mean,
    rolls all candidates out in lockstep, scores each by the undiscounted
    sum of reward over its own rollout (one reward call per candidate), and
    refits mean/std to the top elite fraction.  The population rollout
    takes each action as a per-candidate dot product (one BLAS ddot, as
    `gains @ feats` does), so fitness, elites and the result are
    bit-identical to rolling each candidate out alone.  Returns the final
    mean.
    """
    rng = np.random.default_rng(derive_seed(seed, "cem"))
    dim = spec.feature_dim
    mean = np.zeros(dim)
    std = np.full(dim, CEM_INIT_STD)
    history = [mean.copy()]
    for iteration in range(cfg.n_iters):
        population = mean + std * rng.normal(size=(cfg.population_size, dim))
        states = pointchase_linear_rollout(spec, population)
        fitness = np.array([float(reward(s).sum()) for s in states])
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
        spec=spec,
        parameters=mean,
        meta={
            "n_iters": cfg.n_iters,
            "population_size": cfg.population_size,
            "mean_history": [[float(v) for v in m] for m in history],
        },
    )


@dataclass
class EvalStats:
    mean: float
    returns: np.ndarray


def evaluate_policy(policy, n_episodes: int) -> EvalStats:
    """The discounted ground-truth return of one rollout of policy in its
    own environment (policy.spec), repeated n_episodes times, with the mean
    of those copies.

    Any policy envs.rollout accepts will do, provided its act never reads
    its rng.  Every episode begins at its environment's start() and each
    step(state, action) is a pure function, so such a policy plays the
    same episode at every seed, and its rollout at seed 0 stands for all
    n_episodes.
    """
    if n_episodes < 1:
        raise ConfigError(f"n_episodes must be >= 1, got {n_episodes}")
    traj = rollout(policy, seed=0, source="eval")
    returns = np.full(n_episodes, gt_return(traj, policy.spec.discount))
    return EvalStats(mean=float(returns.mean()), returns=returns)


def save_policy(artifact: PolicyArtifact, path) -> None:
    payload = {
        "format_version": ARTIFACT_VERSION,
        "env": artifact.spec.name,
        "parameters": artifact.parameters.tolist(),
        "source_model": artifact.source_model,
        "meta": artifact.meta,
    }
    write_lines(path, [json.dumps(payload)])


def load_policy(path) -> PolicyArtifact:
    """The policy at path, in the environment its env names (genil's one
    lookup of a policy's), refused with a CorruptArtifactError naming path
    unless that is known and its parameters fit; an old "kind" is ignored."""
    with open(path) as fh, parsing(path):
        payload = json.load(fh)
        if payload.get("format_version") != ARTIFACT_VERSION:
            raise ConfigError(
                f"unsupported policy artifact version {payload.get('format_version')!r}"
            )
        env, values = payload["env"], payload["parameters"]
        if env not in ENVIRONMENTS:
            raise ValueError(f"unknown policy environment {env!r}")
        spec = environment(env)
        spec.check_parameters(values)
        return PolicyArtifact(
            spec=spec,
            parameters=values,
            source_model=payload["source_model"],
            meta=payload["meta"],
        )
