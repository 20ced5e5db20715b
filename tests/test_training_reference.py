"""Reward and BC training against the reference copies in reference_training:
flat parameters, in-place layers and block-gathered batches must leave every
parameter and every loss bit-identical."""

import tracemalloc

import numpy as np
import pytest

from genil.baselines import build_trex2_dataset, train_bc
from genil.envs import DemoPolicy, make_demo_pair, make_spec, rollout
from genil.errors import DivergenceError
from genil.reward_net import BATCH_BLOCK, CompiledPairs, TrainConfig, make_reward_model, train
from genil.seeding import derive_seed
from genil.snippets import Snippet, SnippetPair, make_pairs, subsample
from reference_training import reference_train, reference_train_bc

# not a multiple of BATCH_BLOCK, so the last block is a short one
STEPS = 1100


def desk_pairs(env_name, seed):
    """Pairs at the desk data settings from a clean two-rank dataset: about
    22 distinct table rows a step on GridNav, about 180 on PointChase."""
    good, bad = make_demo_pair(make_spec(env_name), 0.1, 0.5, seed=seed)
    snips = subsample(build_trex2_dataset(good, bad), 2000, 15, 30, seed=seed)
    return make_pairs(snips, 4000, 0.5, seed=seed)


@pytest.fixture(scope="module", params=["GridNav", "PointChase"])
def env_pairs(request):
    return request.param, desk_pairs(request.param, seed=2)


def test_steps_span_several_blocks():
    assert STEPS > 2 * BATCH_BLOCK and STEPS % BATCH_BLOCK != 0


def test_reward_training_matches_reference(env_pairs):
    env_name, pairs = env_pairs
    model = make_reward_model(make_spec(env_name).feature_dim, seed=5)
    cfg = TrainConfig(learning_rate=3e-4, steps=STEPS, batch_size=16)
    result = train(model, pairs, cfg, 5)
    ref_net, ref_losses = reference_train(model, pairs, cfg, 5)
    assert np.array_equal(result.model.net.params, ref_net.get_flat())
    assert np.array_equal(result.losses, ref_losses)


def test_reference_sees_a_contiguous_transpose():
    """A contiguous copy of W.T in backward moves bits at GridNav's row
    counts, so the comparison above would catch it."""
    pairs = desk_pairs("GridNav", seed=2)
    model = make_reward_model(make_spec("GridNav").feature_dim, seed=5)
    cfg = TrainConfig(learning_rate=3e-4, steps=200, batch_size=16)
    result = train(model, pairs, cfg, 5)
    moved, _ = reference_train(
        model, pairs, cfg, 5, transpose=lambda w: np.ascontiguousarray(w.T)
    )
    assert not np.array_equal(result.model.net.params, moved.get_flat())


@pytest.mark.parametrize("env_name", ["GridNav", "PointChase"])
def test_bc_training_matches_reference(env_name):
    """GridNav clones a classifier (4 outputs), PointChase a regressor (1)."""
    spec = make_spec(env_name)
    demos = [
        rollout(DemoPolicy(spec, q), seed=k) for k, q in enumerate((0.0, 0.3))
    ]
    policy = train_bc(demos, spec, 3)
    ref_net = reference_train_bc(demos, spec, 3)
    assert np.array_equal(policy.net.params, ref_net.get_flat())


def test_divergence_in_a_later_block_reports_its_own_step():
    """One pair holds an infinite state; training stays finite until a batch
    first draws it, which happens several blocks in."""
    rng = np.random.default_rng(0)

    def snip(states, label, k):
        return Snippet(f"d{k}", start=0, length=len(states), states=states, rank_label=label)

    pairs = [
        SnippetPair(lo=snip(rng.normal(size=(3, 2)), 0.0, 2 * k),
                    hi=snip(rng.normal(size=(3, 2)), 1.0, 2 * k + 1))
        for k in range(400)
    ]
    bad = 123
    pairs[bad] = SnippetPair(lo=pairs[bad].lo, hi=snip(np.array([[np.inf, 0.0]]), 1.0, "inf"))
    cfg = TrainConfig(learning_rate=1e-3, steps=1000, batch_size=1)
    draws = np.random.default_rng(derive_seed(0, "train-batches"))
    expected = next(s for s in range(cfg.steps) if draws.integers(len(pairs), size=1)[0] == bad)
    assert expected >= 2 * BATCH_BLOCK and expected % BATCH_BLOCK != 0
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(DivergenceError) as info:
        train(make_reward_model(2, 8, 1, seed=0), pairs, cfg, 0)
    assert info.value.step == expected
    assert f"at step {expected}" in str(info.value)


# ---------------------------------------------------------------------------
# Working set: traced peaks on the PointChase desk pairs


def traced_peak(fn) -> int:
    """Bytes fn holds at its peak beyond what was allocated before it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def pc_desk_pairs():
    return desk_pairs("PointChase", seed=2)


def snippet_rows(pairs) -> int:
    """Rows over the distinct snippets (by key), which the compile reads."""
    return sum({s.key: s.length for p in pairs for s in (p.lo, p.hi)}.values())


def test_compile_peak_is_a_small_multiple_of_the_snippet_rows(pc_desk_pairs):
    """Sorting the (snippet, table row) keys in place and counting runs
    peaks at 5.4 times 8 bytes a snippet row here; np.unique's copies took
    it to 9.2."""
    limit = 6 * 8 * snippet_rows(pc_desk_pairs)
    assert traced_peak(lambda: CompiledPairs(pc_desk_pairs)) < limit


def test_training_working_set_does_not_grow_with_steps(pc_desk_pairs):
    """Batches are gathered BATCH_BLOCK steps at a time, so what training
    holds is bounded by one block: 6.5 times 8 bytes a snippet row here,
    against 18 with 64-step blocks."""
    compiled = CompiledPairs(pc_desk_pairs)
    model = make_reward_model(make_spec("PointChase").feature_dim, seed=5)

    def peak(steps):
        cfg = TrainConfig(learning_rate=3e-4, steps=steps, batch_size=16)
        return traced_peak(lambda: train(model, compiled, cfg, 5))

    short, long = peak(200), peak(STEPS)
    assert long <= 1.1 * short
    assert long < 8 * 8 * snippet_rows(pc_desk_pairs)
