"""Comparator methods: quality-ranked and noise-ranked datasets, plus
behavioral cloning at one fixed setting (BC_HIDDEN and BC_TRAIN).

A unit's BC clones train together, in lockstep as one stacked network
(train_bc takes one seed per clone).  GridNav's clones forward the demos'
distinct states, so their parameters differ in the last place from those
of clones that forward every batch row; PointChase's keep the bits of a
lone per-row clone.

Each builder returns a plain list of trajectories whose constant step
ranks are their rank labels, the same labels snippet subsampling reads
from GenIL's trajectories, so reward training and metrics run unchanged
on top of them.  The two-demo variant consumes exactly the trajectories
given to the genetic pipeline, which keeps the comparison inputs
identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .envs import DemoPolicy, Environment, rollout
from .errors import ConfigError
from .mlp import MLP
from .reward_net import TrainConfig, _batch_blocks
from .seeding import derive_seed
from .trajectory import Trajectory


def _constant_ranks(traj: Trajectory, rank: int) -> Trajectory:
    return dataclasses.replace(traj, step_ranks=np.full(len(traj), float(rank)))


def build_trex_dataset(
    spec: Environment, qualities: list[float], n_per_quality: int, seed: int
) -> list[Trajectory]:
    """Rollouts at several qualities, ranked by quality ordinal.

    Lower quality value means a better policy, so it receives the higher
    rank; per-step ranks are constant.
    """
    if len(qualities) < 2:
        raise ConfigError(f"need >= 2 qualities, got {len(qualities)}")
    if len(set(qualities)) != len(qualities):
        raise ConfigError(f"qualities must be distinct, got {qualities}")
    if n_per_quality < 1:
        raise ConfigError(f"n_per_quality must be >= 1, got {n_per_quality}")
    by_rank = sorted(qualities, reverse=True)  # worst first -> rank 0
    rank_of = {q: r for r, q in enumerate(by_rank)}
    trajectories: list[Trajectory] = []
    for q in qualities:
        policy = DemoPolicy(spec, q)
        for i in range(n_per_quality):
            traj = rollout(
                policy,
                derive_seed(seed, "trex", q, i),
                traj_id=f"trex-q{q:g}-{i}",
            )
            trajectories.append(_constant_ranks(traj, rank_of[q]))
    return trajectories


def build_trex2_dataset(good: Trajectory, bad: Trajectory) -> list[Trajectory]:
    """The two seed demos only, ranked {good: 1, bad: 0}."""
    return [_constant_ranks(good, 1), _constant_ranks(bad, 0)]


# ---------------------------------------------------------------------------
# Behavioral cloning


# The one behavioral-cloning setting: hidden widths, and minibatch SGD's
# learning rate, step count and batch size.
BC_HIDDEN = (64, 64)
BC_TRAIN = TrainConfig(learning_rate=1e-2, steps=2000, batch_size=64)


@dataclass
class BCPolicy:
    """Deterministic cloned policy: its environment's bc_action of the net's output."""

    spec: Environment
    net: MLP

    def act(self, features: np.ndarray, rng: np.random.Generator):
        return self.spec.bc_action(self.net.predict(features[None, :])[0])


def train_bc(demos: list[Trajectory], spec: Environment, seeds: list[int]) -> list[BCPolicy]:
    """One clone per seed by minibatch SGD on the environment's BC loss
    (cross-entropy over grid actions, squared error of scalar ones) over
    all demo transitions; a seed drives its clone's initialisation and
    batches, drawn as reward training draws its pairs (reward_net's
    _batch_blocks) at batch size min(BC_TRAIN.batch_size, demo rows).

    The clones step in lockstep as one stacked MLP.  When the demo rows
    hold fewer distinct rows than a batch (GridNav's few cells), each step
    forwards those rows once, gathers each batch row's output from them,
    and adds each batch row's gradient back into its distinct row (the
    gather's backward): the same gradient, its sums added in another
    order, so its bits differ from a per-row batch in the last place.
    Otherwise each step forwards every clone's batch rows, and each
    clone's bits are those of a lone clone.
    """
    if not demos:
        raise ConfigError("train_bc needs at least one demonstration")
    for traj in demos:
        if traj.actions is None:
            raise ConfigError(f"demo {traj.id!r} carries no actions; cannot clone")
        if traj.env != spec.name:
            raise ConfigError(f"demo {traj.id!r} is from {traj.env}, spec is {spec.name}")
    X = np.concatenate([t.states for t in demos], axis=0)
    y = np.concatenate([t.actions for t in demos], axis=0)
    widths = [spec.feature_dim, *BC_HIDDEN, spec.bc_out_dim]
    net = MLP.stack([MLP.create(widths, derive_seed(seed, "bc-init")) for seed in seeds])
    n = X.shape[0]
    cfg = dataclasses.replace(BC_TRAIN, batch_size=min(BC_TRAIN.batch_size, n))
    distinct, row_of = np.unique(X, axis=0, return_inverse=True)
    row_of = row_of.ravel()
    few = len(distinct) < cfg.batch_size
    clones = np.arange(len(seeds))[:, None]
    for _, block in _batch_blocks(n, cfg, seeds, "bc-batches"):
        for batches in block:
            if few:
                out, cache = net.forward(distinct)
                rows = row_of[batches]
                d_out = np.zeros_like(out)
                np.add.at(d_out, (clones, rows), spec.bc_grad(out[clones, rows], y[batches]))
            else:
                out, cache = net.forward(X[batches])
                d_out = spec.bc_grad(out, y[batches])
            net.apply_grads(net.backward(cache, d_out), cfg.learning_rate)
    return [BCPolicy(spec=spec, net=member) for member in net.unstack()]


@dataclass
class MixturePolicy:
    """epsilon-mixture of a base policy and uniform random actions."""

    base: BCPolicy
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must lie in [0, 1], got {self.epsilon}")

    @property
    def spec(self) -> Environment:
        return self.base.spec

    def act(self, features: np.ndarray, rng: np.random.Generator):
        if rng.random() < self.epsilon:
            return self.spec.random_action(rng)
        return self.base.act(features, rng)


def build_drex_dataset(
    bc_policy: BCPolicy, noise_levels: list[float], n_per_level: int, seed: int
) -> list[Trajectory]:
    """Noise-injection ranking: roll out epsilon-mixtures of the cloned
    policy in its own environment; less noise earns a higher rank."""
    if len(noise_levels) < 2:
        raise ConfigError(f"need >= 2 noise levels, got {len(noise_levels)}")
    if any(b <= a for a, b in zip(noise_levels, noise_levels[1:])):
        raise ConfigError(f"noise levels must be strictly increasing, got {noise_levels}")
    if not all(0.0 <= e <= 1.0 for e in noise_levels):
        raise ConfigError(f"noise levels must lie in [0, 1], got {noise_levels}")
    if n_per_level < 1:
        raise ConfigError(f"n_per_level must be >= 1, got {n_per_level}")
    n_levels = len(noise_levels)
    trajectories: list[Trajectory] = []
    for level_idx, eps in enumerate(noise_levels):
        rank = n_levels - 1 - level_idx
        policy = MixturePolicy(base=bc_policy, epsilon=eps)
        for i in range(n_per_level):
            traj = rollout(
                policy,
                derive_seed(seed, "drex", eps, i),
                traj_id=f"drex-e{eps:g}-{i}",
                extra_meta={"noise": eps},
            )
            trajectories.append(_constant_ranks(traj, rank))
    return trajectories
