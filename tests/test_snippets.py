"""Snippet subsampling, pair construction, and pair serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genil.errors import ConfigError, EmptyPairError, InvalidTrajectoryError
from genil.genetics import GAConfig, RankedDataset
from genil.snippets import Snippet, SnippetPair, make_pairs, save_pairs, subsample
from genil.trajectory import Trajectory


def labeled_traj(traj_id, T, ranks, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(
        id=traj_id,
        env="GridNav",
        states=rng.normal(size=(T, d)),
        actions=None,
        gt_step_rewards=rng.normal(size=T),
        step_ranks=np.asarray(ranks, dtype=float)
        if np.ndim(ranks)
        else np.full(T, float(ranks)),
        source="offspring",
    )


def two_rank_dataset(T=30):
    hi = labeled_traj("hi", T, 4.0, seed=1)
    lo = labeled_traj("lo", T, 0.0, seed=2)
    return RankedDataset([hi, lo], GAConfig(), seed=0, attempts_used=0)


def snip(label, length=3, parent="p", start=0, seed=0):
    rng = np.random.default_rng(seed)
    return Snippet(
        parent_id=parent,
        start=start,
        length=length,
        states=rng.normal(size=(length, 2)),
        rank_label=float(label),
    )


# ---------------------------------------------------------------------------
# Snippet / SnippetPair containers


def test_snippet_pair_requires_positive_margin():
    with pytest.raises(Exception):
        SnippetPair(lo=snip(2.0), hi=snip(2.0))
    with pytest.raises(Exception):
        SnippetPair(lo=snip(3.0), hi=snip(1.0))
    pair = SnippetPair(lo=snip(1.0), hi=snip(3.5))
    assert pair.margin == 2.5


# ---------------------------------------------------------------------------
# subsample


def test_subsample_counts_lengths_labels():
    ds = two_rank_dataset(T=40)
    snips = subsample(ds.trajectories, 200, 5, 12, seed=3)
    by_id = {t.id: t for t in ds.trajectories}
    assert len(snips) == 200
    for s in snips:
        assert 5 <= s.length <= 12
        assert s.states.shape == (s.length, 3)
        parent = by_id[s.parent_id]
        assert 0 <= s.start <= len(parent) - s.length
        # label recomputable from the serialized parent
        window = parent.step_ranks[s.start : s.start + s.length]
        assert s.rank_label == float(window.mean())
        assert np.array_equal(s.states, parent.states[s.start : s.start + s.length])


def test_subsample_constant_rank_label():
    ds = two_rank_dataset()
    snips = subsample(ds.trajectories, 50, 4, 8, seed=0)
    for s in snips:
        assert s.rank_label in (0.0, 4.0)


def test_subsample_mixed_rank_labels():
    ranks = np.concatenate([np.full(10, 0.0), np.full(10, 4.0)])
    traj = labeled_traj("mix", 20, ranks)
    pad = labeled_traj("pad", 20, 2.0, seed=5)
    snips = subsample([traj, pad], 100, 10, 15, seed=1)
    crossing = [s for s in snips if s.parent_id == "mix" and s.start + s.length > 10 > s.start]
    assert crossing  # some windows straddle the rank boundary
    for s in crossing:
        n_hi = s.start + s.length - 10
        assert s.rank_label == pytest.approx(4.0 * n_hi / s.length)


def test_subsample_deterministic():
    ds = two_rank_dataset()
    a = subsample(ds.trajectories, 30, 5, 10, seed=9)
    b = subsample(ds.trajectories, 30, 5, 10, seed=9)
    assert [(s.parent_id, s.start, s.length) for s in a] == [
        (s.parent_id, s.start, s.length) for s in b
    ]
    c = subsample(ds.trajectories, 30, 5, 10, seed=10)
    assert [(s.parent_id, s.start, s.length) for s in a] != [
        (s.parent_id, s.start, s.length) for s in c
    ]


def test_subsample_validation():
    ds = two_rank_dataset(T=30)
    with pytest.raises(ConfigError):
        subsample(ds.trajectories, 1, 5, 10, seed=0)
    with pytest.raises(ConfigError):
        subsample(ds.trajectories, 10, 0, 10, seed=0)
    with pytest.raises(ConfigError):
        subsample(ds.trajectories, 10, 12, 10, seed=0)
    with pytest.raises(ConfigError, match="hi"):
        subsample(ds.trajectories, 10, 5, 31, seed=0)  # max_len exceeds trajectory length


def test_subsample_rejects_unranked_parent():
    traj = labeled_traj("a", 20, 1.0)
    bare = Trajectory(
        id="b",
        env="GridNav",
        states=np.zeros((20, 3)),
        actions=None,
        gt_step_rewards=np.zeros(20),
        step_ranks=None,
        source="demo",
    )
    with pytest.raises(InvalidTrajectoryError):
        subsample([traj, bare], 10, 5, 10, seed=0)


# ---------------------------------------------------------------------------
# make_pairs


def test_make_pairs_margins_and_count():
    snips = [snip(l, seed=i) for i, l in enumerate([0.0, 1.0, 2.0, 3.0, 4.0])]
    pairs = make_pairs(snips, 100, min_margin=0.5, seed=0)
    assert len(pairs) == 100
    for p in pairs:
        assert p.margin >= 0.5


def test_make_pairs_excludes_small_margins():
    snips = [snip(2.1, seed=0), snip(2.4, seed=1), snip(4.0, seed=2)]
    pairs = make_pairs(snips, 50, min_margin=0.5, seed=0)
    # 2.1 vs 2.4 has margin 0.3 < 0.5 and must never appear
    for p in pairs:
        assert not (p.lo.rank_label == 2.1 and p.hi.rank_label == 2.4)
        assert p.hi.rank_label == 4.0


def test_make_pairs_zero_margin_still_requires_strict_order():
    snips = [snip(1.0, seed=0), snip(1.0, seed=1), snip(2.0, seed=2)]
    pairs = make_pairs(snips, 40, min_margin=0.0, seed=0)
    for p in pairs:
        assert p.hi.rank_label > p.lo.rank_label


def test_make_pairs_uniform_over_qualifying_pairs():
    # labels 0, 2, 4 with margin 0.5 admit pairs (0,2), (0,4), (2,4)
    snips = [snip(0.0, seed=0), snip(2.0, seed=1), snip(4.0, seed=2)]
    pairs = make_pairs(snips, 3000, min_margin=0.5, seed=1)
    counts = {}
    for p in pairs:
        counts[(p.lo.rank_label, p.hi.rank_label)] = (
            counts.get((p.lo.rank_label, p.hi.rank_label), 0) + 1
        )
    assert set(counts) == {(0.0, 2.0), (0.0, 4.0), (2.0, 4.0)}
    for n in counts.values():
        assert abs(n - 1000) < 150  # ~5 sigma for a fair three-way draw


def test_make_pairs_errors():
    with pytest.raises(ConfigError):
        make_pairs([snip(0.0), snip(1.0, seed=1)], 0, seed=0)
    with pytest.raises(ConfigError):
        make_pairs([snip(0.0), snip(1.0, seed=1)], 5, min_margin=-1, seed=0)
    with pytest.raises(EmptyPairError):
        make_pairs([snip(1.0)], 5, seed=0)
    with pytest.raises(EmptyPairError):
        make_pairs([snip(1.0, seed=0), snip(1.2, seed=1)], 5, min_margin=0.5, seed=0)


def test_make_pairs_deterministic():
    snips = [snip(l, seed=i) for i, l in enumerate([0.0, 1.0, 3.0, 4.0])]
    key = lambda pairs: [(p.lo.rank_label, p.hi.rank_label) for p in pairs]
    assert key(make_pairs(snips, 25, seed=4)) == key(make_pairs(snips, 25, seed=4))


@settings(max_examples=40, deadline=None)
@given(
    labels=st.lists(st.floats(0, 4, allow_nan=False), min_size=2, max_size=12),
    margin=st.floats(0, 2, allow_nan=False),
    seed=st.integers(0, 1000),
)
def test_make_pairs_property(labels, margin, seed):
    snips = [snip(l, seed=i) for i, l in enumerate(labels)]
    try:
        pairs = make_pairs(snips, 20, min_margin=margin, seed=seed)
    except EmptyPairError:
        spread = max(labels) - min(labels)
        assert spread < margin or spread == 0
        return
    for p in pairs:
        assert p.margin > 0
        assert p.margin >= margin


# ---------------------------------------------------------------------------
# Pair serialization


def test_save_load_pairs_round_trip(tmp_path):
    """Each pairs.jsonl line, read back with json.loads, references its
    pair's two snippets by parent, window and rank label."""
    ds = two_rank_dataset()
    snips = subsample(ds.trajectories, 40, 5, 10, seed=2)
    pairs = make_pairs(snips, 30, seed=2)
    path = tmp_path / "pairs.jsonl"
    save_pairs(path, pairs)
    lines = path.read_text().splitlines()
    assert len(lines) == 30
    for pair, line in zip(pairs, lines):
        record = json.loads(line)
        for side in ("lo", "hi"):
            snip = getattr(pair, side)
            assert record[side] == {
                "parent_id": snip.parent_id,
                "start": snip.start,
                "length": snip.length,
                "rank": snip.rank_label,
            }
