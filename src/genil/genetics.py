"""Offspring trajectory reproduction: crossover, mutation, selection.

Two rank-labeled demonstrations are recombined into synthetic trajectories
whose per-step rank labels interpolate between the originals.  Crossover
copies time-aligned segments from alternating donor parents; mutation
replaces single steps with states drawn from all those the population has
visited, assigning them a fresh random rank; selection keeps an offspring
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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    CorruptArtifactError,
    DatasetTooSmallError,
    InvalidTrajectoryError,
    MutationPoolError,
    ReproductionStalledError,
)
from .fileio import parsing, write_lines
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
    defaults to rank_low + n_ranks - 1.  bucket_tolerance shrinks each
    intermediate acceptance interval by that amount on both sides (0 =
    plain uniform partition).
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
    )
    return Offspring(trajectory=traj, parent_ids=(x.id, y.id), provenance=provenance)


def mutate(
    off: Offspring,
    population: Sequence[Trajectory],
    cfg: GAConfig,
    rng: np.random.Generator,
) -> Offspring:
    """Per step, with probability mutation_rate: swap in a state the
    population visited, with its true reward, and a uniform random integer
    rank; tag the step as mutated.

    The state is the row at a uniform offset into the population's states
    concatenated in list order.
    """
    if not population:
        raise MutationPoolError("mutation pool is empty")
    n_rows = sum(len(t) for t in population)
    traj = off.trajectory
    states = traj.states.copy()
    ranks = traj.step_ranks.copy()
    rewards = traj.gt_step_rewards.copy()
    provenance = off.provenance.copy()
    for t in range(len(traj)):
        if rng.random() < cfg.mutation_rate:
            row = int(rng.integers(n_rows))
            for donor in population:
                if row < len(donor):
                    break
                row -= len(donor)
            states[t] = donor.states[row]
            rewards[t] = donor.gt_step_rewards[row]
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
    """GenIL's reproduction record: the two relabeled demos, then the
    accepted offspring, with the config, seed and attempts that grew them.

    A trajectory's rank is its step ranks.  by_rank buckets each
    trajectory by its mean step rank (bucket_of), which puts the demos in
    the two end buckets and each offspring in the bucket select accepted
    it into.
    """

    trajectories: list[Trajectory]
    config: GAConfig
    seed: int
    attempts_used: int

    def __post_init__(self) -> None:
        ids: set[str] = set()
        for traj in self.trajectories:
            if traj.step_ranks is None:
                raise InvalidTrajectoryError(f"trajectory {traj.id!r} has no step ranks")
            if traj.id in ids:
                raise InvalidTrajectoryError(f"duplicate trajectory id {traj.id!r}")
            ids.add(traj.id)

    def by_rank(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for traj in self.trajectories:
            bucket = bucket_of(float(traj.step_ranks.mean()), self.config)
            out.setdefault(bucket, []).append(traj.id)
        return out

    def _listed_ranks(self) -> dict[str, list[str]]:
        return {str(r): ids for r, ids in sorted(self.by_rank().items())}

    def save(self, traj_path, manifest_path) -> None:
        save_trajectories(traj_path, self.trajectories)
        manifest = {
            "ranks": self._listed_ranks(),
            "seed": self.seed,
            "attempts_used": self.attempts_used,
            "config": dataclasses.asdict(self.config),
        }
        write_lines(manifest_path, [json.dumps(manifest, indent=2, sort_keys=True)])

    @classmethod
    def load(cls, traj_path, manifest_path) -> "RankedDataset":
        """The record save wrote, refused unless its trajectories rank as
        the manifest lists them (which a cut or edited file does not)."""
        trajectories = load_trajectories(traj_path)
        with open(manifest_path) as fh, parsing(manifest_path):
            manifest = json.load(fh)
            given = manifest["config"]
            missing = [f.name for f in dataclasses.fields(GAConfig) if f.name not in given]
            if missing:
                raise ConfigError(f"GA config lacks {', '.join(missing)}")
            config = GAConfig(**given)
            seed, attempts, listed = manifest["seed"], manifest["attempts_used"], manifest["ranks"]
        with parsing(traj_path):
            dataset = cls(trajectories, config, seed, attempts)
        if dataset._listed_ranks() != listed:
            raise CorruptArtifactError(
                f"malformed artifact {traj_path}: its trajectories do not rank "
                f"as {manifest_path} lists them"
            )
        return dataset


def reproduce(good: Trajectory, bad: Trajectory, cfg: GAConfig, seed: int) -> RankedDataset:
    """Grow a ranked dataset from the good/bad demo pair.

    The pair is relabeled with constant ranks (relabel_demos), then the
    loop sample -> crossover -> mutate -> select runs until n_offspring are
    accepted or the attempt budget runs out.  Accepted offspring join the
    dataset, which is both the parent pool and the mutation pool, so later
    offspring may recombine earlier ones and take up their states.
    """
    rng = np.random.default_rng(derive_seed(seed, "reproduce"))
    originals = list(relabel_demos(good, bad, cfg))
    dataset = list(originals)
    quotas: dict[int, int] = {b: 0 for b in cfg.intermediate_buckets}
    accepted: list[Trajectory] = []
    attempts = 0
    while len(accepted) < cfg.n_offspring and attempts < cfg.max_attempts:
        attempts += 1
        x, y = sample_parents(dataset, rng)
        off = crossover(x, y, cfg, rng)
        off = mutate(off, dataset, cfg, rng)
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
        accepted.append(traj)
        dataset.append(traj)
    if len(accepted) < cfg.n_offspring:
        raise ReproductionStalledError(
            f"accepted only {len(accepted)}/{cfg.n_offspring} offspring in "
            f"{attempts} attempts; bucket fill {quotas} (quota {cfg.bucket_quota})",
            bucket_fill=quotas,
            quota=cfg.bucket_quota,
            attempts=attempts,
        )
    return RankedDataset(
        trajectories=originals + accepted, config=cfg, seed=seed, attempts_used=attempts
    )
