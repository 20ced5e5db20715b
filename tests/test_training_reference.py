"""Reward and BC training against the reference copies in reference_training:
flat parameters, in-place layers, block-gathered batches and stacked models
must leave every parameter and every loss bit-identical to the one-model
loops of their algorithms.  A stack of reward models forwards other rows
than a lone reward model, and GridNav's clones step over distinct demo
rows, so their distance to train and to a clone over batch rows is bounded
separately."""

import tracemalloc

import numpy as np
import pytest

from genil.baselines import build_trex2_dataset, train_bc
from genil.envs import DemoPolicy, environment, make_demo_pair, rollout
from genil.errors import DivergenceError
from genil.reward_net import (
    BATCH_BLOCK,
    CompiledPairs,
    TrainConfig,
    _train_loop,
    lockstep_pays,
    make_reward_model,
    train,
)
from genil.seeding import derive_seed
from genil.snippets import Snippet, SnippetPair, make_pairs, subsample
from reference_training import (
    reference_train,
    reference_train_bc,
    reference_train_bc_distinct,
    reference_train_whole_table,
)

# not a multiple of BATCH_BLOCK, so the last block is a short one
STEPS = 1100


def desk_pairs(env_name, seed):
    """Pairs at the desk data settings from a clean two-rank dataset: about
    22 distinct table rows a step on GridNav, about 180 on PointChase."""
    good, bad = make_demo_pair(environment(env_name), 0.1, 0.5, seed=seed)
    snips = subsample(build_trex2_dataset(good, bad), 2000, 15, 30, seed=seed)
    return make_pairs(snips, 4000, 0.5, seed=seed)


@pytest.fixture(scope="module", params=["GridNav", "PointChase"])
def env_pairs(request):
    return request.param, desk_pairs(request.param, seed=2)


def test_steps_span_several_blocks():
    assert STEPS > 2 * BATCH_BLOCK and STEPS % BATCH_BLOCK != 0


def test_reward_training_matches_reference(env_pairs):
    env_name, pairs = env_pairs
    model = make_reward_model(environment(env_name).feature_dim, seed=5)
    cfg = TrainConfig(learning_rate=3e-4, steps=STEPS, batch_size=16)
    (result,) = train([model], pairs, cfg, [5])
    ref_net, ref_losses = reference_train(model, pairs, cfg, 5)
    assert np.array_equal(result.model.net.params, ref_net.get_flat())
    assert np.array_equal(result.losses, ref_losses)


def test_reference_sees_a_contiguous_transpose():
    """A contiguous copy of W.T in backward moves bits at GridNav's row
    counts, so the comparison above would catch it."""
    pairs = desk_pairs("GridNav", seed=2)
    model = make_reward_model(environment("GridNav").feature_dim, seed=5)
    cfg = TrainConfig(learning_rate=3e-4, steps=200, batch_size=16)
    (result,) = train([model], pairs, cfg, [5])
    moved, _ = reference_train(
        model, pairs, cfg, 5, transpose=lambda w: np.ascontiguousarray(w.T)
    )
    assert not np.array_equal(result.model.net.params, moved.get_flat())


# seeds of the models a test trains together
TOGETHER_SEEDS = (5, 6, 7)


@pytest.fixture(scope="module")
def three_models(env_pairs):
    """Three models trained as one stack on the desk pairs, and the same
    three trained one at a time, by the training loop itself."""
    env_name, pairs = env_pairs
    cfg = TrainConfig(learning_rate=3e-4, steps=STEPS, batch_size=16)
    models = [make_reward_model(environment(env_name).feature_dim, seed=s) for s in TOGETHER_SEEDS]
    compiled = CompiledPairs(pairs)
    lockstep = _train_loop(models, compiled, cfg, list(TOGETHER_SEEDS))
    alone = [_train_loop([m], compiled, cfg, [s])[0] for m, s in zip(models, TOGETHER_SEEDS)]
    return cfg, models, compiled, lockstep, alone


def test_lockstep_matches_whole_table_reference(env_pairs, three_models):
    _, pairs = env_pairs
    cfg, models, _, lockstep, _ = three_models
    for model, seed, result in zip(models, TOGETHER_SEEDS, lockstep):
        ref_net, ref_losses = reference_train_whole_table(model, pairs, cfg, seed)
        assert np.array_equal(result.model.net.params, ref_net.get_flat())
        assert np.array_equal(result.losses, ref_losses)


def test_lockstep_stays_near_separate_training(three_models):
    """Whole-table steps forward other rows than train does, so a member's
    gemms add in another order.  Over these 1100 steps parameters moved by
    at most 1.1e-16 and losses by 2.2e-16 on both environments."""
    *_, lockstep, alone = three_models
    for a, b in zip(lockstep, alone):
        assert np.max(np.abs(a.model.net.params - b.model.net.params)) <= 1e-14
        assert np.max(np.abs(a.losses - b.losses)) <= 1e-14


def test_training_together_steps_in_lockstep_only_where_it_pays(env_pairs, three_models):
    """A step's snippets cover GridNav's desk table many times over, so its
    models train in lockstep; they cover PointChase's fewer than
    LOCKSTEP_COVER times, so its models train one at a time, to train's
    bits.  One model always trains alone."""
    env_name, _ = env_pairs
    cfg, models, compiled, lockstep, alone = three_models
    pays = lockstep_pays(compiled, cfg.batch_size)
    assert pays == (env_name == "GridNav")
    want = lockstep if pays else alone
    together = train(models, compiled, cfg, list(TOGETHER_SEEDS))
    for got, expected in zip(together, want, strict=True):
        assert np.array_equal(got.model.net.params, expected.model.net.params)
        assert np.array_equal(got.losses, expected.losses)
    (one,) = train(models[:1], compiled, cfg, list(TOGETHER_SEEDS[:1]))
    assert np.array_equal(one.model.net.params, alone[0].model.net.params)


def bc_demos(spec):
    return [rollout(DemoPolicy(spec, q), seed=k) for k, q in enumerate((0.0, 0.3))]


@pytest.mark.parametrize("env_name", ["GridNav", "PointChase"])
def test_bc_training_matches_reference(env_name):
    """GridNav's demos hold fewer distinct rows than a batch, so its clones
    (4-output classifiers) step over those rows; PointChase's hold more,
    so its clones (1-output regressors) step over their batch rows, to the
    bits of the per-row loop.  Alone or together, a clone is the same."""
    spec = environment(env_name)
    demos = bc_demos(spec)
    reference = reference_train_bc_distinct if env_name == "GridNav" else reference_train_bc
    want = {seed: reference(demos, spec, seed).get_flat() for seed in (3, 4)}
    for seeds in ([3], [3, 4]):
        for policy, seed in zip(train_bc(demos, spec, seeds), seeds, strict=True):
            assert np.array_equal(policy.net.params, want[seed])


def test_bc_over_distinct_rows_stays_near_the_per_row_loop():
    """Adding batch rows' gradients into their distinct rows sums a GridNav
    clone's gradient in another order; after 2000 steps its parameters are
    within 4.5e-16 of the per-row loop's here."""
    spec = environment("GridNav")
    demos = bc_demos(spec)
    for policy, seed in zip(train_bc(demos, spec, [3, 4]), (3, 4)):
        distance = np.max(np.abs(policy.net.params - reference_train_bc(demos, spec, seed).get_flat()))
        assert 0.0 < distance <= 1e-13


def pairs_with_one_bad_state(state):
    """400 pairs of random 2-d snippets, pair 123's hi snippet the single
    state given."""
    rng = np.random.default_rng(0)

    def snip(states, label, k):
        return Snippet(f"d{k}", start=0, length=len(states), states=states, rank_label=label)

    pairs = [
        SnippetPair(lo=snip(rng.normal(size=(3, 2)), 0.0, 2 * k),
                    hi=snip(rng.normal(size=(3, 2)), 1.0, 2 * k + 1))
        for k in range(400)
    ]
    pairs[123] = SnippetPair(lo=pairs[123].lo, hi=snip(np.array([state]), 1.0, "bad"))
    return pairs


def test_divergence_in_a_later_block_reports_its_own_step():
    """One pair holds an infinite state; training stays finite until a batch
    first draws it, which happens several blocks in."""
    pairs = pairs_with_one_bad_state([np.inf, 0.0])
    bad = 123
    cfg = TrainConfig(learning_rate=1e-3, steps=1000, batch_size=1)
    draws = np.random.default_rng(derive_seed(0, "train-batches"))
    expected = next(s for s in range(cfg.steps) if draws.integers(len(pairs), size=1)[0] == bad)
    assert expected >= 2 * BATCH_BLOCK and expected % BATCH_BLOCK != 0
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(DivergenceError) as info:
        train([make_reward_model(2, 8, 1, seed=0)], pairs, cfg, [0])
    assert info.value.step == expected
    assert f"at step {expected}" in str(info.value)


def test_divergence_in_lockstep_names_its_model_and_step():
    """One pair holds a huge but finite state, so that models whose batches
    miss it train on.  A model's first update after drawing it overflows,
    and its next loss is not finite: model 1's at step 164, several blocks
    in, while model 0's is still finite there.  A stack forwards that
    state every step, but only drawn rows enter a member's sums."""
    pairs = pairs_with_one_bad_state([1e200, 0.0])
    cfg = TrainConfig(learning_rate=1e-3, steps=1000, batch_size=1)
    seeds = [0, 1]
    steps = []
    with np.errstate(invalid="ignore", over="ignore"):
        for seed in seeds:
            with pytest.raises(DivergenceError) as info:
                reference_train_whole_table(make_reward_model(2, 8, 1, seed=seed), pairs, cfg, seed)
            steps.append(info.value.step)
        assert steps[1] < steps[0]
        assert steps[1] >= 2 * BATCH_BLOCK and steps[1] % BATCH_BLOCK != 0
        models = [make_reward_model(2, 8, 1, seed=seed) for seed in seeds]
        with pytest.raises(DivergenceError) as info:
            _train_loop(models, CompiledPairs(pairs), cfg, seeds)
    assert info.value.step == steps[1]
    assert f"at step {steps[1]} of model 1" in str(info.value)


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
    model = make_reward_model(environment("PointChase").feature_dim, seed=5)

    def peak(steps):
        cfg = TrainConfig(learning_rate=3e-4, steps=steps, batch_size=16)
        return traced_peak(lambda: train([model], compiled, cfg, [5]))

    short, long = peak(200), peak(STEPS)
    assert long <= 1.1 * short
    assert long < 8 * 8 * snippet_rows(pc_desk_pairs)
