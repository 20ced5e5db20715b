"""Comparator methods: quality-ranked and noise-ranked datasets, plus
behavioral cloning.

All builders emit the same RankedDataset structure as the genetic
reproduction path, so reward training and metrics run unchanged on top of
them.  The two-demo variant consumes exactly the trajectories given to the
genetic pipeline, which keeps the comparison inputs identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .envs import (
    ENV_GRIDNAV,
    GRID_N_ACTIONS,
    PC_ACTION_MAX,
    DemoPolicy,
    EnvSpec,
    _clamp,
    make_env,
    rollout,
)
from .errors import ConfigError
from .genetics import RankedDataset
from .mlp import MLP
from .seeding import derive_seed
from .trajectory import Trajectory, gt_return


def _constant_ranks(traj: Trajectory, rank: int) -> Trajectory:
    return dataclasses.replace(traj, step_ranks=np.full(len(traj), float(rank)))


def build_trex_dataset(
    spec: EnvSpec, qualities: list[float], n_per_quality: int, seed: int
) -> RankedDataset:
    """Rollouts at several qualities, ranked by quality ordinal.

    Lower quality value means a better policy, so it receives the higher
    rank; per-step ranks are constant.  If the mean ground-truth returns
    are not monotone in rank, a warning is recorded in the dataset.
    """
    if len(qualities) < 2:
        raise ConfigError(f"need >= 2 qualities, got {len(qualities)}")
    if len(set(qualities)) != len(qualities):
        raise ConfigError(f"qualities must be distinct, got {qualities}")
    if n_per_quality < 1:
        raise ConfigError(f"n_per_quality must be >= 1, got {n_per_quality}")
    by_rank = sorted(qualities, reverse=True)  # worst first -> rank 0
    rank_of = {q: r for r, q in enumerate(by_rank)}
    env = make_env(spec, seed)
    trajectories: list[Trajectory] = []
    ranks: dict[str, int] = {}
    for q in qualities:
        policy = DemoPolicy(spec, q)
        for i in range(n_per_quality):
            traj = rollout(
                env,
                policy,
                derive_seed(seed, "trex", format(q, ".17g"), i),
                traj_id=f"trex-q{q:g}-{i}",
            )
            traj = _constant_ranks(traj, rank_of[q])
            trajectories.append(traj)
            ranks[traj.id] = rank_of[q]
    warnings = []
    mean_by_rank = [
        np.mean(
            [
                gt_return(t, spec.discount)
                for t in trajectories
                if ranks[t.id] == r
            ]
        )
        for r in range(len(qualities))
    ]
    if any(b <= a for a, b in zip(mean_by_rank, mean_by_rank[1:])):
        warnings.append(
            "degenerate ordering: mean gt_return is not strictly increasing in rank "
            f"({[float(f'{m:.6g}') for m in mean_by_rank]})"
        )
    return RankedDataset(
        trajectories=trajectories,
        ranks=ranks,
        n_ranks=len(qualities),
        seed=seed,
        warnings=warnings,
    )


def build_trex2_dataset(good: Trajectory, bad: Trajectory) -> RankedDataset:
    """The two seed demos only, ranked {good: 1, bad: 0}."""
    good_r = _constant_ranks(good, 1)
    bad_r = _constant_ranks(bad, 0)
    return RankedDataset(
        trajectories=[good_r, bad_r],
        ranks={good_r.id: 1, bad_r.id: 0},
        n_ranks=2,
    )


# ---------------------------------------------------------------------------
# Behavioral cloning


@dataclass
class BCConfig:
    """Supervised state-to-action training settings.

    steps counts gradient updates (0 = return the initial predictor).
    """

    hidden_width: int = 64
    n_hidden: int = 2
    learning_rate: float = 1e-2
    steps: int = 2000
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_width < 1 or self.n_hidden < 1:
            raise ConfigError("hidden_width and n_hidden must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class BCPolicy:
    """Deterministic cloned policy: argmax class or clipped regression."""

    spec: EnvSpec
    net: MLP

    @property
    def kind(self) -> str:
        return "bc_classifier" if self.spec.name == ENV_GRIDNAV else "bc_regressor"

    def act(self, features: np.ndarray, rng: np.random.Generator):
        out = self.net.predict(features[None, :])[0]
        if self.spec.name == ENV_GRIDNAV:
            return int(np.argmax(out))
        return float(_clamp(out[0], -PC_ACTION_MAX, PC_ACTION_MAX))


def train_bc(demos: list[Trajectory], spec: EnvSpec, cfg: BCConfig) -> BCPolicy:
    """Minibatch SGD on cross-entropy (grid actions) or squared error
    (scalar actions) over all demo transitions."""
    if not demos:
        raise ConfigError("train_bc needs at least one demonstration")
    for traj in demos:
        if traj.actions is None:
            raise ConfigError(f"demo {traj.id!r} carries no actions; cannot clone")
        if traj.env != spec.name:
            raise ConfigError(f"demo {traj.id!r} is from {traj.env}, spec is {spec.name}")
    X = np.concatenate([t.states for t in demos], axis=0)
    y = np.concatenate([t.actions for t in demos], axis=0)
    classify = spec.name == ENV_GRIDNAV
    out_dim = GRID_N_ACTIONS if classify else 1
    widths = [spec.feature_dim] + [cfg.hidden_width] * cfg.n_hidden + [out_dim]
    net = MLP.create(widths, seed=derive_seed(cfg.seed, "bc-init"))
    rng = np.random.default_rng(derive_seed(cfg.seed, "bc-batches"))
    n = X.shape[0]
    for _ in range(cfg.steps):
        batch = rng.integers(n, size=min(cfg.batch_size, n))
        out, cache = net.forward(X[batch])
        if classify:
            shifted = out - out.max(axis=1, keepdims=True)
            probs = np.exp(shifted)
            probs /= probs.sum(axis=1, keepdims=True)
            d_out = probs
            d_out[np.arange(len(batch)), y[batch].astype(int)] -= 1.0
            d_out /= len(batch)
        else:
            d_out = 2.0 * (out - y[batch, None]) / len(batch)
        net.apply_grads(net.backward(cache, d_out), cfg.learning_rate)
    return BCPolicy(spec=spec, net=net)


@dataclass
class MixturePolicy:
    """epsilon-mixture of a base policy and uniform random actions."""

    base: BCPolicy
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must lie in [0, 1], got {self.epsilon}")

    @property
    def spec(self) -> EnvSpec:
        return self.base.spec

    @property
    def kind(self) -> str:
        return f"mixture({self.base.kind}, eps={self.epsilon:g})"

    def act(self, features: np.ndarray, rng: np.random.Generator):
        if rng.random() < self.epsilon:
            if self.spec.name == ENV_GRIDNAV:
                return int(rng.integers(GRID_N_ACTIONS))
            return float(rng.uniform(-PC_ACTION_MAX, PC_ACTION_MAX))
        return self.base.act(features, rng)


def build_drex_dataset(
    bc_policy: BCPolicy,
    spec: EnvSpec,
    noise_levels: list[float],
    n_per_level: int,
    seed: int,
) -> RankedDataset:
    """Noise-injection ranking: roll out epsilon-mixtures of the cloned
    policy; less noise earns a higher rank."""
    if len(noise_levels) < 2:
        raise ConfigError(f"need >= 2 noise levels, got {len(noise_levels)}")
    if any(b <= a for a, b in zip(noise_levels, noise_levels[1:])):
        raise ConfigError(f"noise levels must be strictly increasing, got {noise_levels}")
    if not all(0.0 <= e <= 1.0 for e in noise_levels):
        raise ConfigError(f"noise levels must lie in [0, 1], got {noise_levels}")
    if n_per_level < 1:
        raise ConfigError(f"n_per_level must be >= 1, got {n_per_level}")
    if bc_policy.spec.name != spec.name:
        raise ConfigError("bc_policy/spec environment mismatch")
    env = make_env(spec, seed)
    n_levels = len(noise_levels)
    trajectories: list[Trajectory] = []
    ranks: dict[str, int] = {}
    for level_idx, eps in enumerate(noise_levels):
        rank = n_levels - 1 - level_idx
        policy = MixturePolicy(base=bc_policy, epsilon=eps)
        for i in range(n_per_level):
            traj = rollout(
                env,
                policy,
                derive_seed(seed, "drex", format(eps, ".17g"), i),
                traj_id=f"drex-e{eps:g}-{i}",
                extra_meta={"noise": eps},
            )
            traj = _constant_ranks(traj, rank)
            trajectories.append(traj)
            ranks[traj.id] = rank
    return RankedDataset(
        trajectories=trajectories,
        ranks=ranks,
        n_ranks=n_levels,
        seed=seed,
    )
