"""Offspring trajectory reproduction: crossover, mutation, selection.

Two rank-labeled demonstrations are recombined into synthetic trajectories
whose per-step rank labels interpolate between the originals.  Crossover
copies time-aligned segments from alternating donor parents; mutation
replaces single steps with states drawn from the pool of all visited
states, assigning them a fresh random rank; selection keeps an offspring
only if its mean rank falls in an intermediate bucket of the rank range
with quota remaining.

Bookkeeping invariant, by construction: the rank sum of an offspring
equals the sum of rank contributions from parent x, parent y, and mutated
steps, partitioned by the per-step provenance tags.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DatasetTooSmallError,
    InvalidTrajectoryError,
    MutationPoolError,
    ReproductionStalledError,
)
from .fileio import atomic_write
from .seeding import derive_seed
from .trajectory import Trajectory, load_trajectories, save_trajectories

FROM_PARENT_X = 0
FROM_PARENT_Y = 1
MUTATED = 2
_PROVENANCE_CHARS = "xym"


@dataclass
class GAConfig:
    """Reproduction hyperparameters.

    max_crossover_step is an exclusive upper bound: copied segment lengths
    are drawn uniformly from {1, ..., max_crossover_step - 1}.  rank_high
    defaults to n_ranks - 1.  bucket_tolerance shrinks each intermediate
    acceptance interval by that amount on both sides (0 = plain uniform
    partition).  parents_include_offspring controls whether accepted
    offspring re-enter the parent pool.
    """

    n_offspring: int = 12
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    max_crossover_step: int = 10
    n_ranks: int = 5
    rank_low: int = 0
    rank_high: int | None = None
    bucket_tolerance: float = 0.0
    max_attempts: int = 10000
    parents_include_offspring: bool = True

    def __post_init__(self) -> None:
        if self.rank_high is None:
            self.rank_high = self.rank_low + self.n_ranks - 1
        if self.n_offspring < 1:
            raise ConfigError("n_offspring must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError("mutation_rate must lie in [0, 1]")
        if self.max_crossover_step < 2:
            raise ConfigError("max_crossover_step must be >= 2 (segments need length >= 1)")
        if self.n_ranks < 3:
            raise ConfigError("n_ranks must be >= 3 (need an intermediate bucket)")
        if self.rank_low >= self.rank_high:
            raise ConfigError("rank_low must be < rank_high")
        if self.bucket_tolerance < 0 or self.bucket_tolerance >= self.bucket_width / 2:
            raise ConfigError("bucket_tolerance must lie in [0, bucket_width / 2)")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")

    @property
    def bucket_width(self) -> float:
        return (self.rank_high - self.rank_low) / self.n_ranks

    @property
    def bucket_quota(self) -> int:
        return math.ceil(self.n_offspring / (self.n_ranks - 2))

    @property
    def intermediate_buckets(self) -> range:
        return range(1, self.n_ranks - 1)


@dataclass
class Offspring:
    """A synthetic trajectory plus its per-step provenance tags."""

    trajectory: Trajectory
    parent_ids: tuple[str, str]
    provenance: np.ndarray  # int8, values FROM_PARENT_X / FROM_PARENT_Y / MUTATED

    def __post_init__(self) -> None:
        self.provenance = np.asarray(self.provenance, dtype=np.int8)
        if self.trajectory.step_ranks is None:
            raise InvalidTrajectoryError("offspring must carry step ranks")
        if len(self.provenance) != len(self.trajectory):
            raise InvalidTrajectoryError("provenance length must match trajectory length")

    @property
    def mean_rank(self) -> float:
        return float(self.trajectory.step_ranks.mean())

    @property
    def rank_sum(self) -> float:
        return float(self.trajectory.step_ranks.sum())


def decomposition_sums(off: Offspring) -> tuple[float, float, float]:
    """Rank-sum contributions of (parent x, parent y, mutated) steps."""
    ranks = off.trajectory.step_ranks
    return (
        float(ranks[off.provenance == FROM_PARENT_X].sum()),
        float(ranks[off.provenance == FROM_PARENT_Y].sum()),
        float(ranks[off.provenance == MUTATED].sum()),
    )


def provenance_to_string(provenance: np.ndarray) -> str:
    return "".join(_PROVENANCE_CHARS[int(p)] for p in provenance)


def provenance_from_string(text: str) -> np.ndarray:
    return np.asarray([_PROVENANCE_CHARS.index(c) for c in text], dtype=np.int8)


class MutationPool:
    """All states visited by the current dataset, with their true rewards."""

    def __init__(self) -> None:
        self._states: list[np.ndarray] = []
        self._rewards: list[float] = []

    @classmethod
    def from_trajectories(cls, trajectories: Sequence[Trajectory]) -> "MutationPool":
        pool = cls()
        for traj in trajectories:
            pool.extend(traj)
        return pool

    def extend(self, traj: Trajectory) -> None:
        for row, rew in zip(traj.states, traj.gt_step_rewards):
            self._states.append(row)
            self._rewards.append(float(rew))

    def __len__(self) -> int:
        return len(self._states)

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        if not self._states:
            raise MutationPoolError("mutation pool is empty")
        i = int(rng.integers(len(self._states)))
        return self._states[i], self._rewards[i]


def relabel_demos(
    good: Trajectory, bad: Trajectory, cfg: GAConfig
) -> tuple[Trajectory, Trajectory]:
    """Constant initial ranks: rank_high on every good step, rank_low on bad."""
    return (
        dataclasses.replace(
            good, step_ranks=np.full(len(good), float(cfg.rank_high))
        ),
        dataclasses.replace(bad, step_ranks=np.full(len(bad), float(cfg.rank_low))),
    )


def sample_parents(
    trajectories: Sequence[Trajectory], rng: np.random.Generator
) -> tuple[Trajectory, Trajectory]:
    """Two distinct trajectories, uniform without replacement."""
    if len(trajectories) < 2:
        raise DatasetTooSmallError(
            f"need at least 2 trajectories to sample parents, have {len(trajectories)}"
        )
    i, j = rng.choice(len(trajectories), size=2, replace=False)
    return trajectories[int(i)], trajectories[int(j)]


def crossover(
    x: Trajectory, y: Trajectory, cfg: GAConfig, rng: np.random.Generator
) -> Offspring:
    """Segment-wise recombination aligned at t=0.

    The offspring has length min(len(x), len(y)).  Starting from a
    uniformly chosen donor, segments of length Uniform{1, ...,
    max_crossover_step - 1} are copied (state, rank, true reward)
    from the current donor at the current time index; after each segment
    the donor switches with probability crossover_rate.
    """
    if x.step_ranks is None or y.step_ranks is None:
        raise InvalidTrajectoryError("crossover parents must carry step ranks")
    if x.env != y.env:
        raise InvalidTrajectoryError(f"parent envs differ: {x.env} vs {y.env}")
    n = min(len(x), len(y))
    states = np.empty((n, x.states.shape[1]))
    ranks = np.empty(n)
    rewards = np.empty(n)
    provenance = np.empty(n, dtype=np.int8)
    donor = int(rng.integers(2))
    t = 0
    while t < n:
        length = min(int(rng.integers(1, cfg.max_crossover_step)), n - t)
        src = x if donor == FROM_PARENT_X else y
        states[t : t + length] = src.states[t : t + length]
        ranks[t : t + length] = src.step_ranks[t : t + length]
        rewards[t : t + length] = src.gt_step_rewards[t : t + length]
        provenance[t : t + length] = donor
        t += length
        if t < n and rng.random() < cfg.crossover_rate:
            donor = 1 - donor
    traj = Trajectory(
        id="offspring-unassigned",
        env=x.env,
        states=states,
        actions=None,
        gt_step_rewards=rewards,
        step_ranks=ranks,
        source="offspring",
        meta={"parents": [x.id, y.id]},
    )
    return Offspring(trajectory=traj, parent_ids=(x.id, y.id), provenance=provenance)


def mutate(
    off: Offspring, pool: MutationPool, cfg: GAConfig, rng: np.random.Generator
) -> Offspring:
    """Per step, with probability mutation_rate: swap in a pool state and a
    uniform random integer rank; tag the step as mutated."""
    if len(pool) == 0:
        raise MutationPoolError("mutation pool is empty")
    traj = off.trajectory
    states = traj.states.copy()
    ranks = traj.step_ranks.copy()
    rewards = traj.gt_step_rewards.copy()
    provenance = off.provenance.copy()
    for t in range(len(traj)):
        if rng.random() < cfg.mutation_rate:
            state, reward = pool.sample(rng)
            states[t] = state
            rewards[t] = reward
            ranks[t] = float(rng.integers(cfg.rank_low, cfg.rank_high + 1))
            provenance[t] = MUTATED
    mutated_traj = dataclasses.replace(
        traj, states=states, step_ranks=ranks, gt_step_rewards=rewards
    )
    return Offspring(
        trajectory=mutated_traj, parent_ids=off.parent_ids, provenance=provenance
    )


def bucket_of(mean_rank: float, cfg: GAConfig) -> int:
    """Index of the half-open partition interval containing mean_rank.

    The rank range [rank_low, rank_high] splits into n_ranks equal
    intervals; the top value maps into the last one.
    """
    offset = (mean_rank - cfg.rank_low) / cfg.bucket_width
    return min(max(int(offset), 0), cfg.n_ranks - 1)


def bucket_interval(bucket: int, cfg: GAConfig) -> tuple[float, float]:
    lo = cfg.rank_low + bucket * cfg.bucket_width
    return lo, lo + cfg.bucket_width


def select(
    off: Offspring, cfg: GAConfig, quotas: dict[int, int]
) -> tuple[bool, int]:
    """Accept an offspring into an intermediate bucket with quota left.

    Returns (accepted, bucket).  End buckets are reserved for the original
    demos and always reject.  Rejection is a normal outcome, not an error.
    """
    m = off.mean_rank
    bucket = bucket_of(m, cfg)
    if bucket == 0 or bucket == cfg.n_ranks - 1:
        return False, bucket
    if cfg.bucket_tolerance > 0.0:
        lo, hi = bucket_interval(bucket, cfg)
        if not (lo + cfg.bucket_tolerance <= m < hi - cfg.bucket_tolerance):
            return False, bucket
    if quotas.get(bucket, 0) >= cfg.bucket_quota:
        return False, bucket
    return True, bucket


@dataclass
class RankedDataset:
    """Trajectories partitioned into integer rank buckets."""

    trajectories: list[Trajectory]
    ranks: dict[str, int]
    n_ranks: int
    seed: int | None = None
    attempts_used: int | None = None
    config: dict | None = None
    warnings: list[str] = field(default_factory=list)
    _by_id: dict[str, Trajectory] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        missing = [t.id for t in self.trajectories if t.id not in self.ranks]
        if missing:
            raise InvalidTrajectoryError(f"trajectories without a rank label: {missing}")
        self._by_id = {}
        for traj in self.trajectories:
            if self._by_id.setdefault(traj.id, traj) is not traj:
                raise InvalidTrajectoryError(
                    f"duplicate trajectory id {traj.id!r}; rank labels are keyed by id"
                )

    def by_rank(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for traj in self.trajectories:
            out.setdefault(self.ranks[traj.id], []).append(traj.id)
        return out

    def get(self, traj_id: str) -> Trajectory:
        return self._by_id[traj_id]

    def save(self, traj_path, manifest_path) -> None:
        save_trajectories(traj_path, self.trajectories)
        manifest = {
            "ranks": {str(r): ids for r, ids in sorted(self.by_rank().items())},
            "n_ranks": self.n_ranks,
            "seed": self.seed,
            "attempts_used": self.attempts_used,
            "config": self.config,
            "warnings": self.warnings,
        }
        with atomic_write(manifest_path) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, traj_path, manifest_path) -> "RankedDataset":
        trajectories = load_trajectories(traj_path)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        ranks = {
            tid: int(rank)
            for rank, ids in manifest["ranks"].items()
            for tid in ids
        }
        return cls(
            trajectories=trajectories,
            ranks=ranks,
            n_ranks=manifest["n_ranks"],
            seed=manifest["seed"],
            attempts_used=manifest["attempts_used"],
            config=manifest["config"],
            warnings=manifest.get("warnings", []),
        )


def reproduce(
    demos: Sequence[Trajectory], cfg: GAConfig, seed: int
) -> RankedDataset:
    """Grow a ranked dataset from two relabeled demos.

    Loops sample -> crossover -> mutate -> select until n_offspring are
    accepted or the attempt budget runs out.  Accepted offspring join the
    dataset (and, unless disabled, the parent pool), so later offspring may
    recombine earlier ones.
    """
    if len(demos) != 2:
        raise DatasetTooSmallError(f"reproduce expects exactly 2 demos, got {len(demos)}")
    for demo in demos:
        if demo.step_ranks is None:
            raise InvalidTrajectoryError(f"demo {demo.id!r} has not been relabeled")
    rng = np.random.default_rng(derive_seed(seed, "reproduce"))
    originals = list(demos)
    dataset = list(demos)
    pool = MutationPool.from_trajectories(dataset)
    quotas: dict[int, int] = {b: 0 for b in cfg.intermediate_buckets}
    ranks = {t.id: int(round(float(t.step_ranks.mean()))) for t in originals}
    accepted: list[Trajectory] = []
    attempts = 0
    while len(accepted) < cfg.n_offspring and attempts < cfg.max_attempts:
        attempts += 1
        parent_pool = dataset if cfg.parents_include_offspring else originals
        x, y = sample_parents(parent_pool, rng)
        off = crossover(x, y, cfg, rng)
        off = mutate(off, pool, cfg, rng)
        ok, bucket = select(off, cfg, quotas)
        if not ok:
            continue
        quotas[bucket] += 1
        traj = dataclasses.replace(
            off.trajectory,
            id=f"off-{len(accepted):03d}",
            meta={
                "parents": list(off.parent_ids),
                "bucket": bucket,
                "provenance": provenance_to_string(off.provenance),
            },
        )
        ranks[traj.id] = bucket
        accepted.append(traj)
        dataset.append(traj)
        pool.extend(traj)
    if len(accepted) < cfg.n_offspring:
        raise ReproductionStalledError(
            f"accepted only {len(accepted)}/{cfg.n_offspring} offspring in "
            f"{attempts} attempts; bucket fill {quotas} (quota {cfg.bucket_quota})",
            bucket_fill=quotas,
            quota=cfg.bucket_quota,
            attempts=attempts,
        )
    return RankedDataset(
        trajectories=originals + accepted,
        ranks=ranks,
        n_ranks=cfg.n_ranks,
        seed=seed,
        attempts_used=attempts,
        config=dataclasses.asdict(cfg),
    )
