"""Crossover, mutation, selection, and reproduce-loop behavior.

The rank-sum decomposition (offspring rank sum equals the sum of
provenance-partitioned contributions) is checked exactly, with zero
tolerance, both on hand-built cases and under randomized property tests.
"""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from genil.envs import environment, make_demo_pair
from genil.errors import (
    ConfigError,
    CorruptArtifactError,
    DatasetTooSmallError,
    InvalidTrajectoryError,
    MutationPoolError,
    ReproductionStalledError,
)
from genil.genetics import (
    FROM_PARENT_X,
    FROM_PARENT_Y,
    MUTATED,
    GAConfig,
    Offspring,
    RankedDataset,
    bucket_interval,
    bucket_of,
    crossover,
    decomposition_sums,
    mutate,
    provenance_to_string,
    relabel_demos,
    reproduce,
    sample_parents,
    select,
)
from genil.trajectory import Trajectory, trajectories_equal


def ranked_traj(traj_id, T, ranks, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(
        id=traj_id,
        env="GridNav",
        states=rng.normal(size=(T, d)),
        actions=None,
        gt_step_rewards=rng.normal(size=T),
        step_ranks=np.broadcast_to(np.asarray(ranks, dtype=float), (T,)).copy()
        if np.ndim(ranks) == 0
        else np.asarray(ranks, dtype=float),
        source="offspring",
    )


def constant_offspring(mean_rank, T=10):
    traj = ranked_traj("off", T, mean_rank)
    return Offspring(
        trajectory=traj,
        parent_ids=("a", "b"),
        provenance=np.zeros(T, dtype=np.int8),
    )


# ---------------------------------------------------------------------------
# GAConfig


def test_config_defaults_and_derived():
    cfg = GAConfig()
    assert (cfg.n_offspring, cfg.crossover_rate, cfg.mutation_rate) == (12, 0.9, 0.05)
    assert cfg.max_crossover_step == 10
    assert (cfg.n_ranks, cfg.rank_low, cfg.rank_high) == (5, 0, 4)
    assert cfg.bucket_width == pytest.approx(0.8)
    assert cfg.bucket_quota == 4  # ceil(12 / 3)
    assert list(cfg.intermediate_buckets) == [1, 2, 3]


def test_config_rank_high_default_follows_rank_low():
    cfg = GAConfig(rank_low=2, n_ranks=4)
    assert cfg.rank_high == 5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_offspring": 0},
        {"crossover_rate": 1.5},
        {"mutation_rate": -0.1},
        {"max_crossover_step": 1},
        {"n_ranks": 2},
        {"rank_low": 4, "rank_high": 4},
        {"bucket_tolerance": 0.4},  # >= bucket_width / 2
        {"bucket_tolerance": -0.01},
        {"max_attempts": 0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        GAConfig(**kwargs)


# ---------------------------------------------------------------------------
# Relabeling and parent sampling


def test_relabel_demos_constant_ranks():
    cfg = GAConfig()
    good = ranked_traj("g", 6, 0.0)
    bad = ranked_traj("b", 8, 0.0)
    g2, b2 = relabel_demos(good, bad, cfg)
    assert np.array_equal(g2.step_ranks, np.full(6, 4.0))
    assert np.array_equal(b2.step_ranks, np.full(8, 0.0))
    # originals untouched
    assert good.step_ranks[0] == 0.0


def test_sample_parents_distinct(rng):
    trajs = [ranked_traj(f"t{i}", 5, i % 5) for i in range(4)]
    for _ in range(50):
        x, y = sample_parents(trajs, rng)
        assert x.id != y.id


def test_sample_parents_needs_two():
    with pytest.raises(DatasetTooSmallError):
        sample_parents([ranked_traj("only", 5, 1)], np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Crossover


def test_crossover_length_and_content(rng):
    x = ranked_traj("x", 20, 4.0, seed=1)
    y = ranked_traj("y", 14, 0.0, seed=2)
    cfg = GAConfig()
    off = crossover(x, y, cfg, rng)
    assert len(off.trajectory) == 14
    assert off.parent_ids == ("x", "y")
    for t, tag in enumerate(off.provenance):
        src = x if tag == FROM_PARENT_X else y
        assert np.array_equal(off.trajectory.states[t], src.states[t])
        assert off.trajectory.step_ranks[t] == src.step_ranks[t]
        assert off.trajectory.gt_step_rewards[t] == src.gt_step_rewards[t]
    assert off.trajectory.source == "offspring"


def test_crossover_segment_length_bound(rng):
    # with switch probability 1 every segment boundary flips the donor, so
    # same-donor runs are exactly the drawn segment lengths
    x = ranked_traj("x", 60, 4.0, seed=1)
    y = ranked_traj("y", 60, 0.0, seed=2)
    cfg = GAConfig(crossover_rate=1.0, max_crossover_step=4)
    for _ in range(20):
        off = crossover(x, y, cfg, rng)
        runs = np.diff(np.flatnonzero(np.diff(off.provenance) != 0))
        assert np.all(runs <= cfg.max_crossover_step - 1)


def test_crossover_decomposition_exact(rng):
    x = ranked_traj("x", 30, np.random.default_rng(5).integers(0, 5, 30), seed=1)
    y = ranked_traj("y", 25, np.random.default_rng(6).integers(0, 5, 25), seed=2)
    for _ in range(30):
        off = crossover(x, y, GAConfig(), rng)
        sx, sy, sm = decomposition_sums(off)
        assert off.rank_sum == sx + sy + sm
        assert sm == 0.0


def test_crossover_requires_ranks_and_same_env(rng):
    x = ranked_traj("x", 10, 1.0)
    y = dataclasses.replace(ranked_traj("y", 10, 1.0), step_ranks=None)
    with pytest.raises(InvalidTrajectoryError):
        crossover(x, y, GAConfig(), rng)
    z = dataclasses.replace(ranked_traj("z", 10, 1.0), env="PointChase")
    with pytest.raises(InvalidTrajectoryError):
        crossover(x, z, GAConfig(), rng)


def test_crossover_monotone_without_mutation(rng):
    # stepwise, every offspring rank comes from one of the parents, so the
    # mean is bounded by the stepwise min/max envelopes
    x = ranked_traj("x", 20, 3.0, seed=3)
    y = ranked_traj("y", 20, 2.0, seed=4)
    for _ in range(20):
        off = crossover(x, y, GAConfig(), rng)
        assert 2.0 <= off.mean_rank <= 3.0


# ---------------------------------------------------------------------------
# Mutation


def test_mutate_swaps_pool_states(rng):
    x = ranked_traj("x", 40, 4.0, seed=1)
    y = ranked_traj("y", 40, 0.0, seed=2)
    pool = [x, y]
    cfg = GAConfig(mutation_rate=0.5)
    off = mutate(crossover(x, y, cfg, rng), pool, cfg, rng)
    pool_states = np.vstack([x.states, y.states])
    mutated = np.flatnonzero(off.provenance == MUTATED)
    assert len(mutated) > 0
    for t in mutated:
        row = off.trajectory.states[t]
        assert any(np.array_equal(row, p) for p in pool_states)
        rank = off.trajectory.step_ranks[t]
        assert rank == int(rank)
        assert cfg.rank_low <= rank <= cfg.rank_high
    sx, sy, sm = decomposition_sums(off)
    assert off.rank_sum == sx + sy + sm


def test_mutate_zero_rate_is_identity(rng):
    x = ranked_traj("x", 15, 4.0, seed=1)
    y = ranked_traj("y", 15, 0.0, seed=2)
    pool = [x, y]
    cfg = GAConfig(mutation_rate=0.0)
    off = crossover(x, y, cfg, rng)
    after = mutate(off, pool, cfg, rng)
    assert np.array_equal(off.trajectory.states, after.trajectory.states)
    assert np.array_equal(off.provenance, after.provenance)


def test_mutate_empty_pool_rejected(rng):
    off = constant_offspring(1.0)
    before = rng.bit_generator.state
    with pytest.raises(MutationPoolError):
        mutate(off, [], GAConfig(), rng)
    assert rng.bit_generator.state == before  # refused before any draw


class OffsetRng:
    """Stands in for mutate's rng: every step mutates, the k-th pool draw
    returns offset k, and every rank draw returns its low end."""

    def __init__(self):
        self.offsets = 0

    def random(self):
        return 0.0

    def integers(self, low, high=None):
        if high is not None:
            return low
        self.offsets += 1
        return self.offsets - 1


@settings(max_examples=40, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6), seed=st.integers(0, 2**16))
def test_mutation_draws_the_row_at_its_offset(lengths, seed):
    population = [
        ranked_traj(f"p{i}", n, 1.0, seed=seed + i) for i, n in enumerate(lengths)
    ]
    n_rows = sum(lengths)
    off = mutate(constant_offspring(1.0, T=n_rows), population, GAConfig(), OffsetRng())
    # step t drew offset t into the parents' rows concatenated in order
    assert np.array_equal(off.trajectory.states, np.vstack([p.states for p in population]))
    assert np.array_equal(
        off.trajectory.gt_step_rewards,
        np.concatenate([p.gt_step_rewards for p in population]),
    )
    assert np.all(off.provenance == MUTATED)


# ---------------------------------------------------------------------------
# Buckets and selection


def test_bucket_of_partition():
    cfg = GAConfig()  # range [0, 4], width 0.8
    assert bucket_of(0.0, cfg) == 0
    assert bucket_of(0.79, cfg) == 0
    assert bucket_of(0.8, cfg) == 1
    assert bucket_of(2.0, cfg) == 2
    assert bucket_of(3.99, cfg) == 4
    assert bucket_of(4.0, cfg) == 4  # top value maps into the last bucket
    assert bucket_of(-1.0, cfg) == 0  # clamped


def test_bucket_interval_tiles_range():
    cfg = GAConfig()
    lo0, hi0 = bucket_interval(0, cfg)
    lo4, hi4 = bucket_interval(4, cfg)
    assert lo0 == 0.0
    assert hi4 == pytest.approx(4.0)
    for b in range(4):
        assert bucket_interval(b, cfg)[1] == pytest.approx(bucket_interval(b + 1, cfg)[0])


def test_select_rejects_end_buckets():
    cfg = GAConfig()
    quotas = {b: 0 for b in cfg.intermediate_buckets}
    ok, bucket = select(constant_offspring(0.1), cfg, quotas)
    assert (ok, bucket) == (False, 0)
    ok, bucket = select(constant_offspring(3.9), cfg, quotas)
    assert (ok, bucket) == (False, 4)


def test_select_accepts_intermediate_until_quota():
    cfg = GAConfig()
    quotas = {b: 0 for b in cfg.intermediate_buckets}
    off = constant_offspring(2.0)  # bucket 2
    for _ in range(cfg.bucket_quota):
        ok, bucket = select(off, cfg, quotas)
        assert ok and bucket == 2
        quotas[bucket] += 1
    ok, _ = select(off, cfg, quotas)
    assert not ok


def test_select_tolerance_shrinks_interval():
    cfg = GAConfig(bucket_tolerance=0.3)
    quotas = {b: 0 for b in cfg.intermediate_buckets}
    # bucket 1 spans [0.8, 1.6); with tolerance 0.3 only [1.1, 1.3) accepts
    assert select(constant_offspring(1.2), cfg, quotas)[0]
    assert not select(constant_offspring(0.9), cfg, quotas)[0]
    assert not select(constant_offspring(1.5), cfg, quotas)[0]


# ---------------------------------------------------------------------------
# Provenance strings


def test_provenance_string_round_trip():
    prov = np.array([FROM_PARENT_X, MUTATED, FROM_PARENT_Y, FROM_PARENT_X], dtype=np.int8)
    text = provenance_to_string(prov)
    assert text == "xmyx"


# ---------------------------------------------------------------------------
# The reproduce loop


def test_reproduce_structure(grid_dataset):
    cfg = GAConfig()
    ds = grid_dataset
    assert len(ds.trajectories) == 2 + cfg.n_offspring
    by_rank = ds.by_rank()
    assert by_rank[0] == ["demo-bad"]
    assert by_rank[4] == ["demo-good"]
    for bucket in cfg.intermediate_buckets:
        assert len(by_rank.get(bucket, [])) <= cfg.bucket_quota
    assert sum(len(by_rank.get(b, [])) for b in cfg.intermediate_buckets) == cfg.n_offspring
    assert ds.attempts_used >= cfg.n_offspring
    assert ds.config == cfg


def test_reproduce_offspring_consistent(grid_dataset):
    cfg = GAConfig()
    rank_of = {tid: r for r, ids in grid_dataset.by_rank().items() for tid in ids}
    for traj in grid_dataset.trajectories:
        if traj.source != "offspring":
            continue
        bucket = rank_of[traj.id]
        lo, hi = bucket_interval(bucket, cfg)
        mean = float(traj.step_ranks.mean())
        assert lo <= mean < hi
        assert bucket == traj.meta["bucket"]
        assert len(traj.meta["provenance"]) == len(traj)


def test_reproduce_deterministic(grid_demos):
    cfg = GAConfig()
    a = reproduce(*grid_demos, cfg, seed=3)
    b = reproduce(*grid_demos, cfg, seed=3)
    assert a.by_rank() == b.by_rank()
    assert all(trajectories_equal(x, y) for x, y in zip(a.trajectories, b.trajectories))
    c = reproduce(*grid_demos, cfg, seed=4)
    assert any(
        not trajectories_equal(x, y) for x, y in zip(a.trajectories, c.trajectories)
    )


def test_by_rank_puts_the_demos_in_the_end_buckets_for_any_rank_low(grid_demos):
    # rank_high is 6: the demos' mean step ranks 2 and 6 are buckets 0 and 4
    cfg = GAConfig(rank_low=2)
    ds = reproduce(*grid_demos, cfg, seed=1)
    by_rank = ds.by_rank()
    by_id = {t.id: t for t in ds.trajectories}
    assert by_rank[0] == ["demo-bad"]
    assert by_rank[4] == ["demo-good"]
    for bucket in cfg.intermediate_buckets:
        assert all(by_id[tid].meta["bucket"] == bucket for tid in by_rank.get(bucket, []))
    assert sum(len(by_rank.get(b, [])) for b in cfg.intermediate_buckets) == cfg.n_offspring


def test_reproduce_stall_reports_fill(grid_demos):
    cfg = GAConfig(max_attempts=3)
    with pytest.raises(ReproductionStalledError) as exc_info:
        reproduce(*grid_demos, cfg, seed=0)
    err = exc_info.value
    assert err.attempts == 3
    assert err.quota == cfg.bucket_quota
    assert set(err.bucket_fill) == set(cfg.intermediate_buckets)
    assert sum(err.bucket_fill.values()) < cfg.n_offspring


# ---------------------------------------------------------------------------
# RankedDataset


def record(*trajectories, cfg=None):
    return RankedDataset(list(trajectories), cfg or GAConfig(), seed=0, attempts_used=0)


def test_ranked_dataset_requires_labels():
    traj = dataclasses.replace(ranked_traj("t", 5, 1.0), step_ranks=None)
    with pytest.raises(InvalidTrajectoryError, match="trajectory 't' has no step ranks"):
        record(traj)


def test_ranked_dataset_rejects_duplicate_ids():
    a, b = ranked_traj("t", 5, 1.0), ranked_traj("t", 5, 2.0)
    with pytest.raises(InvalidTrajectoryError, match="duplicate trajectory id 't'"):
        record(a, b)


def test_ranked_dataset_save_load_round_trip(grid_dataset, tmp_path):
    tp = tmp_path / "ranked.jsonl"
    mp = tmp_path / "ranked_manifest.json"
    grid_dataset.save(tp, mp)
    back = RankedDataset.load(tp, mp)
    assert back.by_rank() == grid_dataset.by_rank()
    assert back.seed == grid_dataset.seed
    assert back.attempts_used == grid_dataset.attempts_used
    assert back.config == grid_dataset.config
    assert all(
        trajectories_equal(a, b)
        for a, b in zip(grid_dataset.trajectories, back.trajectories)
    )
    # saving the reloaded dataset reproduces identical bytes
    tp2 = tmp_path / "again.jsonl"
    mp2 = tmp_path / "again_manifest.json"
    back.save(tp2, mp2)
    assert tp.read_bytes() == tp2.read_bytes()
    assert mp.read_bytes() == mp2.read_bytes()


@pytest.mark.parametrize(
    "edit, needle",
    [({"n_ranks": 2}, "n_ranks must be >= 3"), ({"colour": 1}, "unexpected keyword")],
)
def test_ranked_dataset_load_refuses_a_malformed_config(grid_dataset, tmp_path, edit, needle):
    tp, mp = tmp_path / "ranked.jsonl", tmp_path / "ranked_manifest.json"
    grid_dataset.save(tp, mp)
    manifest = json.loads(mp.read_text())
    manifest["config"].update(edit)
    mp.write_text(json.dumps(manifest))
    with pytest.raises(CorruptArtifactError, match=re.escape(f"malformed artifact {mp}: ")) as exc:
        RankedDataset.load(tp, mp)
    assert needle in str(exc.value)


# ---------------------------------------------------------------------------
# Property tests


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    lx=st.integers(4, 30),
    ly=st.integers(4, 30),
    lmax=st.integers(2, 8),
    cx=st.floats(0, 1),
    mut=st.floats(0, 1),
)
def test_offspring_properties_random(seed, lx, ly, lmax, cx, mut):
    data_rng = np.random.default_rng(seed)
    x = ranked_traj("x", lx, data_rng.integers(0, 5, lx), seed=seed)
    y = ranked_traj("y", ly, data_rng.integers(0, 5, ly), seed=seed + 1)
    cfg = GAConfig(crossover_rate=cx, mutation_rate=mut, max_crossover_step=lmax)
    rng = np.random.default_rng(seed + 2)
    pool = [x, y]
    off = mutate(crossover(x, y, cfg, rng), pool, cfg, rng)
    assert len(off.trajectory) == min(lx, ly)
    assert len(off.provenance) == len(off.trajectory)
    ranks = off.trajectory.step_ranks
    assert np.all((ranks >= cfg.rank_low) & (ranks <= cfg.rank_high))
    sx, sy, sm = decomposition_sums(off)
    assert off.rank_sum == sx + sy + sm
    assert cfg.rank_low <= off.mean_rank <= cfg.rank_high


# Every GAConfig built above that reproduce can grow a dataset under.
GROWN_CONFIGS = [
    GAConfig(),
    GAConfig(rank_low=2),
    GAConfig(rank_low=2, n_ranks=4),
    GAConfig(crossover_rate=1.0, max_crossover_step=4),
    GAConfig(mutation_rate=0.5),
    GAConfig(mutation_rate=0.0),
    GAConfig(bucket_tolerance=0.3),
]


@pytest.mark.parametrize("name", ["GridNav", "PointChase"])
@pytest.mark.parametrize("cfg", GROWN_CONFIGS, ids=range(len(GROWN_CONFIGS)))
@settings(max_examples=15, deadline=None)
@given(demo_seed=st.integers(0, 2**20), ga_seed=st.integers(0, 2**20))
def test_reproduction_adds_labels_not_states(name, cfg, demo_seed, ga_seed):
    """Crossover copies the parents' time-aligned segments, mutation swaps
    in a state the population visited, and the population is the demos
    and accepted offspring: every state row of the dataset is, byte for
    byte, a row of one of the two demos."""
    good, bad = make_demo_pair(environment(name), 0.1, 0.5, seed=demo_seed)
    try:
        dataset = reproduce(good, bad, cfg, ga_seed)
    except ReproductionStalledError:
        reject()  # a stalled run grows no dataset
    demo_rows = {row.tobytes() for demo in (good, bad) for row in demo.states}
    for traj in dataset.trajectories:
        assert {row.tobytes() for row in traj.states} <= demo_rows, traj.id
