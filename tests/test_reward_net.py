"""Ranking-loss reward training: loss values, gradients, invariances,
training behavior, checkpoints, and the desk-config quality gate."""

import functools
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from genil.baselines import build_trex2_dataset
from genil.envs import environment, make_demo_pair
from genil.errors import (
    ConfigError,
    CorruptArtifactError,
    DivergenceError,
    EmptyPairError,
    InvalidTrajectoryError,
)
from genil.mlp import MLP
from genil.reward_net import (
    RewardModel,
    TrainConfig,
    load_model,
    make_reward_model,
    predict_states,
    CompiledPairs,
    _expit,
    _train_loop,
    save_model,
    train,
)
from genil.seeding import derive_seed
from genil.snippets import Snippet, SnippetPair, make_pairs, subsample
from reference_training import block_step
from train_steps import ONE_STEP, first_step, min_preactivation

LN2 = float(np.log(2.0))


_IDS = itertools.count()


def snip(states, label):
    # unique parent ids: a snippet's (parent_id, start, length) key must
    # identify its states
    states = np.asarray(states, dtype=float)
    return Snippet(
        parent_id=f"p{next(_IDS)}",
        start=0,
        length=len(states),
        states=states,
        rank_label=float(label),
    )


def linear_model(W, b):
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    return RewardModel(net=MLP([W.shape[0], 1], [W], [b]))


def random_pair(rng, d, lo_len, hi_len):
    return SnippetPair(
        lo=snip(rng.normal(size=(lo_len, d)), 0.0),
        hi=snip(rng.normal(size=(hi_len, d)), 3.0),
    )


# ---------------------------------------------------------------------------
# Config and model construction


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(steps=-1)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    assert TrainConfig(steps=0).steps == 0  # explicitly allowed


def test_make_reward_model_architecture():
    model = make_reward_model(5, hidden_width=16, n_hidden=2, seed=0)
    assert model.net.widths == [5, 16, 16, 1]
    assert model.feature_dim == 5
    with pytest.raises(ConfigError):
        make_reward_model(5, n_hidden=0)
    a = make_reward_model(5, seed=1).net.params
    b = make_reward_model(5, seed=1).net.params
    assert np.array_equal(a, b)


def test_model_copy_independent():
    model = make_reward_model(3, hidden_width=4, n_hidden=1, seed=0)
    dup = model.copy()
    dup.net.weights[0][0, 0] += 1.0
    assert model.net.weights[0][0, 0] != dup.net.weights[0][0, 0]


# ---------------------------------------------------------------------------
# Predictions


def test_predict_hand_values():
    model = linear_model([[1.0], [1.0]], [0.5])
    states = np.array([[1.0, 2.0], [2.0, 0.5]])
    assert np.array_equal(predict_states(model, states), [3.5, 3.0])
    assert predict_states(model, snip(states, 1.0).states).sum() == 6.5


# ---------------------------------------------------------------------------
# Loss and gradients, from one training step on one pair (first_step)


def loss(model, pair):
    return first_step(model, pair)[0]


def test_pair_loss_equal_scores_is_ln2():
    model = linear_model([[0.0], [0.0]], [0.0])
    pair = SnippetPair(lo=snip([[1.0, 2.0]], 0.0), hi=snip([[5.0, 5.0]], 3.0))
    assert abs(loss(model, pair) - LN2) < 1e-12


def test_pair_loss_direction():
    model = linear_model([[1.0], [0.0]], [0.0])
    good_order = SnippetPair(lo=snip([[0.0, 0.0]], 0.0), hi=snip([[2.0, 0.0]], 3.0))
    bad_order = SnippetPair(lo=snip([[2.0, 0.0]], 0.0), hi=snip([[0.0, 0.0]], 3.0))
    assert loss(model, good_order) < LN2 < loss(model, bad_order)


def test_pair_loss_extreme_margins_stable():
    model = linear_model([[1.0]], [0.0])
    for margin in (500.0, -500.0):
        pair = SnippetPair(lo=snip([[0.0]], 0.0), hi=snip([[margin]], 3.0))
        assert np.isfinite(loss(model, pair))
    # confident correct pair: loss ~ exp(-500); confident wrong pair: ~ 500
    correct = SnippetPair(lo=snip([[0.0]], 0.0), hi=snip([[500.0]], 3.0))
    wrong = SnippetPair(lo=snip([[500.0]], 0.0), hi=snip([[0.0]], 3.0))
    assert loss(model, correct) < 1e-100
    assert loss(model, wrong) == pytest.approx(500.0, rel=1e-12)


EXPIT_EDGES = [0.0, 1e-300, 709.7, 709.8, 710.0, 745.0, 746.0, np.inf]
EXPIT_EDGES = EXPIT_EDGES + [-z for z in EXPIT_EDGES] + [np.nan]


def same_floats(a, b):
    """Equal with ==, NaN where the other is NaN, and the same sign bits."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype == np.float64
        and a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


@pytest.mark.parametrize("z", EXPIT_EDGES, ids=repr)
def test_expit_matches_scipy_on_edge_scalars(z):
    # _expit takes 1-d arrays; an element that overflows math.exp sends
    # its batch down the per-element path
    assert same_floats(_expit(np.array([z])), expit(np.array([z])))


def test_expit_matches_scipy_on_batches():
    # reward training calls it on one (batch_size,) vector of margins a step
    rng = np.random.default_rng(5)
    edges = np.array(EXPIT_EDGES)
    assert same_floats(_expit(edges), expit(edges))
    for scale in (1e-8, 1e-2, 1.0, 10.0, 100.0, 700.0, 1e3):
        for z in (rng.standard_normal((625, 16)) * scale):
            assert same_floats(_expit(z), expit(z)), scale
    assert same_floats(_expit(np.empty(0)), expit(np.empty(0)))


def test_pair_grad_matches_finite_differences(rng):
    model = make_reward_model(4, hidden_width=8, n_hidden=2, seed=11)
    pair = random_pair(rng, 4, 5, 7)
    analytic = first_step(model, pair)[1]
    base = model.net.params.copy()
    eps = 1e-6
    numeric = np.empty_like(base)
    probe = model.copy()
    for i in range(len(base)):
        for sign, store in ((1, "hi"), (-1, "lo")):
            vec = base.copy()
            vec[i] += sign * eps
            probe.net.params[...] = vec
            if store == "hi":
                up = loss(probe, pair)
            else:
                down = loss(probe, pair)
        numeric[i] = (up - down) / (2 * eps)
    err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
    assert err < 1e-4


def test_lockstep_one_step_gives_each_members_loss_and_gradient(rng):
    """Criterion 03's one-step checks, through the training loop: two models
    stacked on one pair at ONE_STEP each take their own network's loss
    log(1 + exp(S_lo - S_hi)) and its gradient as their parameters' change,
    the step first_step takes on that model alone."""
    pair = random_pair(rng, 4, 5, 7)
    models = [make_reward_model(4, hidden_width=8, n_hidden=2, seed=s) for s in (11, 12)]
    results = _train_loop(models, CompiledPairs([pair]), ONE_STEP, [0, 1])

    def analytic_loss(model, params):
        probe = model.copy()
        probe.net.params[...] = params
        lo, hi = (predict_states(probe, s.states).sum() for s in (pair.lo, pair.hi))
        return float(np.logaddexp(0.0, lo - hi))

    losses = []
    for model, result in zip(models, results, strict=True):
        # a finite difference needs the curved region, clear of relu kinks
        assert 1e-3 < result.losses[0] < 5.0 and min_preactivation(model.net, pair) > 1e-5
        base = model.net.params
        change = base - result.model.net.params
        assert result.losses[0] == pytest.approx(analytic_loss(model, base), rel=1e-12)
        eps = 1e-6
        numeric = np.array(
            [(analytic_loss(model, base + d) - analytic_loss(model, base - d)) / (2 * eps)
             for d in eps * np.eye(len(base))]
        )
        assert np.linalg.norm(change - numeric) / np.linalg.norm(numeric) <= 1e-4
        alone_loss, alone_grad = first_step(model, pair)
        assert abs(result.losses[0] - alone_loss) <= 1e-14
        assert np.abs(change - alone_grad).max() <= 1e-14
        losses.append(result.losses[0])
    assert losses[0] != losses[1]


def test_loss_shift_invariant_for_equal_length_pairs(rng):
    model = make_reward_model(3, hidden_width=8, n_hidden=1, seed=2)
    equal = random_pair(rng, 3, 6, 6)
    unequal = random_pair(rng, 3, 4, 9)
    shifted = model.copy()
    shifted.net.biases[-1][:] += 10.0
    # equal lengths: the constant shift cancels in the score difference
    assert loss(shifted, equal) == pytest.approx(loss(model, equal), abs=1e-9)
    # unequal lengths: the shift scales with length and must not cancel
    assert abs(loss(shifted, unequal) - loss(model, unequal)) > 1.0


# ---------------------------------------------------------------------------
# Training


def separable_pairs(n=40, d=3, seed=0):
    """hi snippets live at +1 along feature 0, lo snippets at -1."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        lo = rng.normal(scale=0.2, size=(4, d))
        lo[:, 0] -= 1.0
        hi = rng.normal(scale=0.2, size=(4, d))
        hi[:, 0] += 1.0
        out.append(SnippetPair(lo=snip(lo, 0.0), hi=snip(hi, 2.0)))
    return out


def score(model, states):
    """A snippet's score: the sum of its per-state predictions."""
    return predict_states(model, states).sum()


def ordered_share(model, pairs):
    """Share of pairs the model scores in their labelled order."""
    return np.mean([score(model, p.hi.states) > score(model, p.lo.states) for p in pairs])


def test_train_learns_separable_data():
    pairs = separable_pairs()
    model = make_reward_model(3, hidden_width=16, n_hidden=1, seed=0)
    (result,) = train([model], pairs, TrainConfig(learning_rate=5e-3, steps=400), [0])
    assert len(result.losses) == 400
    assert result.losses[-50:].mean() < result.losses[:50].mean() / 2
    assert ordered_share(result.model, pairs) == 1.0
    # the input model is untouched
    assert np.array_equal(model.net.params, make_reward_model(3, 16, 1, seed=0).net.params)


def test_train_bit_reproducible():
    pairs = separable_pairs(seed=3)
    cfg = TrainConfig(learning_rate=1e-3, steps=120, batch_size=8)
    (a,) = train([make_reward_model(3, 8, 1, seed=4)], pairs, cfg, [9])
    (b,) = train([make_reward_model(3, 8, 1, seed=4)], pairs, cfg, [9])
    assert np.array_equal(a.model.net.params, b.model.net.params)
    assert np.array_equal(a.losses, b.losses)
    (c,) = train([make_reward_model(3, 8, 1, seed=4)], pairs, cfg, [10])
    assert not np.array_equal(a.model.net.params, c.model.net.params)


def test_train_zero_steps_returns_copy():
    pairs = separable_pairs()
    model = make_reward_model(3, 8, 1, seed=0)
    (result,) = train([model], pairs, TrainConfig(steps=0), [0])
    assert len(result.losses) == 0
    assert np.array_equal(result.model.net.params, model.net.params)
    assert result.model is not model


def test_train_raises_on_nan_weight_at_step_zero():
    model = make_reward_model(3, 8, 1, seed=0)
    model.net.weights[0][0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as info:
        train([model], separable_pairs(), TrainConfig(steps=10), [0])
    assert info.value.step == 0


@pytest.mark.parametrize(
    "n_models, message",
    [(1, "at step 11"), (2, "at step 9 of model 1")],
    ids=["alone", "lockstep"],
)
def test_a_diverging_model_raises_without_numpy_warnings(n_models, message):
    """At learning rate 3 on GridNav demo pairs the weights overflow within
    a dozen steps; training ends in the one DivergenceError, and numpy's
    overflow and invalid-value warnings stay silent on the way, whether
    one model trains alone or two train as one stack."""
    spec = environment("GridNav")
    good, bad = make_demo_pair(spec, 0.1, 0.5, seed=1)
    snips = subsample(build_trex2_dataset(good, bad), 60, 5, 10, seed=1)
    pairs = CompiledPairs(make_pairs(snips, 120, 0.5, seed=1))
    models = [make_reward_model(spec.feature_dim, seed=s) for s in range(n_models)]
    cfg = TrainConfig(learning_rate=3.0, steps=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match=f"{message}$"):
            train(models, pairs, cfg, list(range(n_models)))


def test_train_rejects_empty_pairs():
    with pytest.raises(EmptyPairError):
        train([make_reward_model(3, 8, 1, seed=0)], [], TrainConfig(), [0])


def train_stacked(models, pairs, cfg, seeds):
    """models trained as one stack, whether or not lockstep pays."""
    return _train_loop(models, CompiledPairs(pairs), cfg, seeds)


@pytest.mark.parametrize("trainer", [train_stacked, train])
def test_models_trained_together_learn_and_leave_their_inputs(trainer):
    """Models trained as one stack, or together however train chooses,
    each learn, return copies, and refuse an empty pair set, as a lone
    model does."""
    pairs = separable_pairs()
    models = [make_reward_model(3, 16, 1, seed=s) for s in (0, 1)]
    before = [m.net.params.copy() for m in models]
    results = trainer(models, pairs, TrainConfig(learning_rate=5e-3, steps=400), [0, 1])
    for model, params, result in zip(models, before, results, strict=True):
        assert len(result.losses) == 400
        assert ordered_share(result.model, pairs) == 1.0
        assert np.array_equal(model.net.params, params)
    for model, result in zip(models, trainer(models, pairs, TrainConfig(steps=0), [0, 1])):
        assert len(result.losses) == 0 and result.model is not model
        assert np.array_equal(result.model.net.params, model.net.params)
    with pytest.raises(EmptyPairError):
        trainer(models, [], TrainConfig(), [0, 1])


def test_train_rejects_conflicting_snippet_keys(rng):
    a = Snippet(parent_id="q", start=0, length=3, states=rng.normal(size=(3, 2)), rank_label=0.0)
    b = Snippet(parent_id="q", start=0, length=3, states=rng.normal(size=(3, 2)), rank_label=2.0)
    with pytest.raises(InvalidTrajectoryError):
        train(
            [make_reward_model(2, 8, 1, seed=0)],
            [SnippetPair(lo=a, hi=b)],
            TrainConfig(steps=1),
            [0],
        )


def test_desk_config_reaches_ordering_and_loss_targets():
    """On a clean two-rank GridNav dataset at the desk data settings, the
    trained model must order >= 95% of training pairs and reach mean batch
    loss < 0.1."""
    spec = environment("GridNav")
    good, bad = make_demo_pair(spec, 0.1, 0.5, seed=1)
    ds = build_trex2_dataset(good, bad)
    snips = subsample(ds, 2000, 15, 30, seed=1)
    pairs = make_pairs(snips, 4000, 0.5, seed=1)
    ms = derive_seed(1, "model", 0)
    model = make_reward_model(spec.feature_dim, seed=ms)
    (result,) = train(
        [model], pairs, TrainConfig(learning_rate=3e-4, steps=6000, batch_size=16), [ms]
    )
    assert ordered_share(result.model, pairs) >= 0.95
    assert result.losses[-1000:].mean() < 0.1


@functools.cache
def desk_pair_set(env_name):
    """Pairs at the desk data settings from a clean two-rank dataset,
    compiled once per environment."""
    good, bad = make_demo_pair(environment(env_name), 0.1, 0.5, seed=2)
    snips = subsample(build_trex2_dataset(good, bad), 2000, 15, 30, seed=2)
    return CompiledPairs(make_pairs(snips, 4000, 0.5, seed=2))


@settings(max_examples=30, deadline=None)
@given(
    env_name=st.sampled_from(["GridNav", "PointChase"]),
    batch_size=st.integers(1, 16),
    seed=st.integers(0, 2**31 - 1),
)
def test_batch_step_is_the_mean_of_its_one_pair_steps(env_name, batch_size, seed):
    """A training step's loss is the mean of the one-pair losses of the
    pairs it drew, and its update the learning rate times the mean of their
    one-pair gradients.  Each one-pair loss is log(1 + exp(S_lo - S_hi))
    over the model's snippet scores."""
    pairs = desk_pair_set(env_name)
    model = make_reward_model(environment(env_name).feature_dim, seed=seed)
    cfg = TrainConfig(steps=1, batch_size=batch_size)
    (result,) = train([model], pairs, cfg, [seed])
    drawn = np.random.default_rng(derive_seed(seed, "train-batches")).integers(
        len(pairs), size=(1, batch_size)
    )[0]
    steps = [first_step(model, pairs[i]) for i in drawn]
    for i, (loss_i, _) in zip(drawn, steps):
        lo, hi = pairs[i].lo.states, pairs[i].hi.states
        margin = score(model, lo) - score(model, hi)
        assert loss_i == pytest.approx(np.logaddexp(0.0, margin), rel=1e-9)
    mean_update = cfg.learning_rate * np.mean([grad for _, grad in steps], axis=0)
    update = model.net.params - result.model.net.params
    assert result.losses[0] == pytest.approx(np.mean([l for l, _ in steps]), rel=1e-12)
    assert np.linalg.norm(update - mean_update) <= 1e-10 * np.linalg.norm(mean_update)


# ---------------------------------------------------------------------------
# Pair compilation: the vectorised build against the per-snippet reference


class ReferenceCompiledPairs:
    """The pair compilation as first written, kept as the spec: one
    np.unique(axis=0) over every snippet state, a per-snippet np.unique
    for the CSR rows, and a per-segment slice loop in batch_arrays."""

    def __init__(self, pairs):
        snippet_index, snippets, lo_idx, hi_idx = {}, [], [], []
        for pair in pairs:
            for s, acc in ((pair.lo, lo_idx), (pair.hi, hi_idx)):
                pos = snippet_index.setdefault(s.key, len(snippets))
                if pos == len(snippets):
                    snippets.append(s)
                acc.append(pos)
        self.lo_idx = np.asarray(lo_idx)
        self.hi_idx = np.asarray(hi_idx)
        stacked = np.concatenate([s.states for s in snippets], axis=0)
        self.unique_states, inverse = np.unique(stacked, axis=0, return_inverse=True)
        bounds = np.cumsum([0] + [s.length for s in snippets])
        indptr, indices, counts = [0], [], []
        for k in range(len(snippets)):
            uniq, cnt = np.unique(inverse[bounds[k] : bounds[k + 1]], return_counts=True)
            indices.append(uniq)
            counts.append(cnt.astype(np.float64))
            indptr.append(indptr[-1] + len(uniq))
        self.indptr = np.asarray(indptr)
        self.indices = np.concatenate(indices)
        self.counts = np.concatenate(counts)

    def batch_arrays(self, batch):
        sids = np.concatenate([self.lo_idx[batch], self.hi_idx[batch]])
        parts_i, parts_c = [], []
        for sid in sids:
            lo, hi = self.indptr[sid], self.indptr[sid + 1]
            parts_i.append(self.indices[lo:hi])
            parts_c.append(self.counts[lo:hi])
        seg_ids = np.concatenate([np.full(len(p), k) for k, p in enumerate(parts_i)])
        local_rows, local_pos = np.unique(np.concatenate(parts_i), return_inverse=True)
        return local_rows, local_pos, np.concatenate(parts_c), seg_ids, len(sids)


def reference_train(model, pairs, cfg, seed):
    """A lone train() model with the reference bookkeeping, step for step."""
    trained = model.copy()
    compiled = ReferenceCompiledPairs(pairs)
    rng = np.random.default_rng(derive_seed(seed, "train-batches"))
    losses = np.empty(cfg.steps)
    for step in range(cfg.steps):
        batch = rng.integers(len(compiled.lo_idx), size=cfg.batch_size)
        local_rows, local_pos, cnt, seg_ids, n_segs = compiled.batch_arrays(batch)
        out, cache = trained.net.forward(compiled.unique_states[local_rows])
        sums = np.bincount(seg_ids, weights=cnt * out[local_pos, 0], minlength=n_segs)
        z = sums[: cfg.batch_size] - sums[cfg.batch_size :]
        losses[step] = float(np.logaddexp(0.0, z).mean())
        g = expit(z) / cfg.batch_size
        seg_grad = np.concatenate([g, -g])
        d_rewards = np.bincount(
            local_pos, weights=cnt * seg_grad[seg_ids], minlength=len(local_rows)
        )
        grads = trained.net.backward(cache, d_rewards[:, None])
        trained.net.apply_grads(grads, cfg.learning_rate)
    return trained, losses


def assert_same_arrays(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def stacked_state_table(pairs):
    """The state table built from one stacked copy of every snippet row: a
    byte-unique, then np.unique(axis=0) over the distinct rows.  Among rows
    equal up to the sign of a zero it keeps the first in byte order."""
    rows = np.concatenate([s.states for p in pairs for s in (p.lo, p.hi)])
    distinct = np.unique(rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel())
    return np.unique(distinct.view(np.float64).reshape(len(distinct), -1), axis=0)


def assert_compiles_like_reference(pairs, n_batches=50, seed=0):
    ref = ReferenceCompiledPairs(pairs)
    new = CompiledPairs(pairs)
    for name in ("unique_states", "indptr", "indices", "counts", "lo_idx", "hi_idx"):
        assert_same_arrays(getattr(new, name), getattr(ref, name))
    assert new.unique_states.tobytes() == stacked_state_table(pairs).tobytes()
    rng = np.random.default_rng(seed)
    blocks = [rng.integers(len(pairs), size=(1, size)) for size in (1, 2, 16, 33)]
    blocks += [np.zeros((1, 8), dtype=np.int64), np.full((1, 5), len(pairs) - 1)]
    blocks += [np.stack([rng.integers(len(pairs), size=16) for _ in range(n_batches)])]
    for batches in blocks:
        block = new.block_arrays(batches[:, None])
        for j, batch in enumerate(batches):
            local_rows, *want = ref.batch_arrays(batch)[:4]
            for g, w in zip(block_step(block, j), [ref.unique_states[local_rows], *want]):
                assert_same_arrays(g, w)
    return new


def overlapping_pairs(rng, n_pairs=30, d=3, pool=6):
    """Snippets drawn from a small pool of states, so states repeat within
    a snippet and are shared across snippets; some snippets recur in
    several pairs, once as the same object and once as an equal copy."""
    states = rng.normal(size=(pool, d))
    snippets = [snip(states[rng.integers(pool, size=rng.integers(1, 9))], k % 4)
                for k in range(12)]
    pairs = []
    for _ in range(n_pairs):
        i, j = rng.choice(len(snippets), size=2, replace=False)
        lo, hi = sorted((snippets[i], snippets[j]), key=lambda s: s.rank_label)
        if lo.rank_label == hi.rank_label:
            continue
        pairs.append(SnippetPair(lo=lo, hi=hi))
    twin = Snippet(
        parent_id=pairs[0].hi.parent_id,
        start=pairs[0].hi.start,
        length=pairs[0].hi.length,
        states=pairs[0].hi.states.copy(),
        rank_label=pairs[0].hi.rank_label,
    )
    pairs.append(SnippetPair(lo=pairs[0].lo, hi=twin))
    return pairs


def test_compiled_pairs_repeated_and_shared_states(rng):
    pairs = overlapping_pairs(rng)
    compiled = assert_compiles_like_reference(pairs)
    assert len(compiled.unique_states) <= 6
    # repeated states within a snippet fold into counts above one
    assert compiled.counts.max() > 1
    # the duplicated keys collapsed onto one snippet each
    assert compiled.hi_idx[-1] == compiled.hi_idx[0]
    assert len(compiled.indptr) - 1 < 2 * len(pairs)


def signed_zero_pair():
    zero_rows = [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]
    lo = snip(zero_rows + [[2.0, 3.0]], 0.0)
    hi = snip([[-0.0, 1.0], [2.0, 3.0], [0.0, 0.0], [-1.0, -0.0]], 1.0)
    return SnippetPair(lo=lo, hi=hi)


def test_compiled_pairs_merge_signed_zeros():
    compiled = assert_compiles_like_reference([signed_zero_pair()])
    # rows equal up to the sign of a zero are one table entry
    assert len(compiled.unique_states) == 4


def window(parent_id, states, start, length, label):
    return Snippet(
        parent_id=parent_id,
        start=start,
        length=length,
        states=states[start : start + length],
        rank_label=float(label),
    )


@pytest.mark.parametrize("cap", [4096, 1, 2, 3, 5])
def test_compiled_pairs_across_chunk_boundaries(cap, rng):
    """Equal rows, signed zeros included, recur within and across snippets,
    -0.0 rows come before their +0.0 twins, which sort first by bytes, and
    one snippet repeats rows many times over.  Each set compiles like one
    np.unique over every state, and keeps the stacked build's bytes; so
    does each set's rows laid end to end as one parent trajectory and cut
    into windows of at most ``cap`` rows, which puts equal rows on both
    sides of window boundaries.  At 4096 one window holds every set."""
    rows = [[1.0, 2.0], [3.0, -0.0], [1.0, 2.0], [5.0, 0.0], [3.0, 0.0], [1.0, 2.0]]
    long_pair = SnippetPair(
        lo=snip(rows * 2 + [[7.0, 7.0]], 0.0), hi=snip([[5.0, -0.0], [1.0, 2.0]], 1.0)
    )
    negative_first = SnippetPair(
        lo=snip([[-0.0, 1.0], [2.0, -0.0]], 0.0), hi=snip([[0.0, 1.0], [2.0, 0.0]], 1.0)
    )
    for n, pairs in enumerate(
        (overlapping_pairs(rng), [signed_zero_pair()], [negative_first], [long_pair])
    ):
        compiled = assert_compiles_like_reference(pairs)
        parent = np.concatenate([s.states for p in pairs for s in (p.lo, p.hi)])
        cuts = [window(f"cut{n}", parent, a, min(cap, len(parent) - a), a)
                for a in range(0, len(parent), cap)]
        assert len(cuts) == -(-len(parent) // cap)
        other = window(f"other{n}", rng.normal(size=(3, parent.shape[1])), 1, 2, -1.0)
        cut_pairs = [SnippetPair(lo=other, hi=w) for w in cuts]
        cut_pairs += [SnippetPair(lo=a, hi=b) for a, b in zip(cuts, cuts[1:])]
        cut = assert_compiles_like_reference(cut_pairs)
        # the cut parent holds the set's rows, other's two rows besides
        assert len(cut.unique_states) == len(compiled.unique_states) + 2
    # the long snippet's 13 rows fold into four table rows
    assert len(compiled.unique_states) == 4
    assert compiled.counts[: compiled.indptr[1]].tolist() == [6.0, 4.0, 2.0, 1.0]


def test_compiled_pairs_overlapping_windows_of_one_parent(rng):
    """Windows of one parent that overlap, as views of its states and as
    copies, share its rows; a parent's rows may hold signed zeros."""
    states = rng.normal(size=(12, 3))
    states[4, 1] = -0.0
    states[5] = 0.0
    other = rng.normal(size=(7, 3))
    a, b = window("p", states, 0, 6, 0.0), window("p", states, 3, 6, 1.0)
    c = window("p", states.copy(), 3, 9, 2.0)
    d = window("q", other, 2, 5, 1.5)
    pairs = [SnippetPair(lo=a, hi=b), SnippetPair(lo=b, hi=c), SnippetPair(lo=a, hi=d),
             SnippetPair(lo=d, hi=c), SnippetPair(lo=window("p", states, 3, 6, 0.0), hi=d)]
    compiled = assert_compiles_like_reference(pairs)
    assert len(compiled.indptr) - 1 == 4
    assert len(compiled.unique_states) == 12 + 5


def test_compiled_pairs_reject_overlapping_windows_that_disagree(rng):
    states = rng.normal(size=(9, 3))
    moved = states.copy()
    moved[4, 0] += 1e-12
    a, b = window("p", states, 0, 6, 0.0), window("p", moved, 3, 6, 1.0)
    for pairs in ([SnippetPair(lo=a, hi=b)], [SnippetPair(lo=b, hi=window("p", states, 4, 2, 2.0))]):
        with pytest.raises(InvalidTrajectoryError):
            CompiledPairs(pairs)
    # windows that do not overlap never meet
    CompiledPairs([SnippetPair(lo=a, hi=window("p", rng.normal(size=(9, 3)), 6, 3, 1.0))])


def test_compiled_pairs_reject_nan_states_and_negative_starts():
    lo = snip([[1.0, 2.0]], 0.0)
    with pytest.raises(InvalidTrajectoryError):
        CompiledPairs([SnippetPair(lo=lo, hi=snip([[np.nan, 2.0]], 1.0))])
    early = Snippet(parent_id="p", start=-1, length=2, states=np.ones((2, 2)), rank_label=-1.0)
    with pytest.raises(InvalidTrajectoryError):
        CompiledPairs([SnippetPair(lo=early, hi=lo)])


def test_compiled_pairs_gridnav_sized(grid_dataset):
    snips = subsample(grid_dataset.trajectories, 2000, 15, 30, seed=3)
    pairs = make_pairs(snips, 4000, 0.5, seed=3)
    assert_compiles_like_reference(pairs, n_batches=300, seed=3)


def test_compiled_pairs_gridnav_peak_memory(grid_dataset):
    """Compiling holds no stacked copy of every snippet row: its traced peak
    stays below half of one such copy."""
    snips = subsample(grid_dataset.trajectories, 2000, 15, 30, seed=1)
    pairs = make_pairs(snips, 4000, 0.5, seed=1)
    tracemalloc.start()
    try:
        compiled = CompiledPairs(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stacked_bytes = compiled.counts.sum() * compiled.unique_states.shape[1] * 8
    assert peak < stacked_bytes / 2


@pytest.mark.parametrize("source", ["overlapping", "gridnav"])
def test_train_matches_reference_bookkeeping(source, grid_spec, grid_dataset):
    if source == "gridnav":
        snips = subsample(grid_dataset.trajectories, 2000, 15, 30, seed=4)
        pairs = make_pairs(snips, 4000, 0.5, seed=4)
        model = make_reward_model(grid_spec.feature_dim, seed=4)
    else:
        pairs = overlapping_pairs(np.random.default_rng(4))
        model = make_reward_model(3, hidden_width=8, n_hidden=2, seed=4)
    cfg = TrainConfig(learning_rate=3e-3, steps=300, batch_size=16)
    (result,) = train([model], pairs, cfg, [4])
    ref_model, ref_losses = reference_train(model, pairs, cfg, 4)
    assert result.model.net.params.tobytes() == ref_model.net.params.tobytes()
    assert result.losses.tobytes() == ref_losses.tobytes()


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    pairs = separable_pairs(seed=5)
    cfg = TrainConfig(1e-3, 100)
    (result,) = train([make_reward_model(3, 8, 1, seed=5)], pairs, cfg, [5])
    path = tmp_path / "model.json"
    save_model(result.model, path, train_config=cfg)
    back = load_model(path)
    assert np.array_equal(back.net.params, result.model.net.params)
    states = np.random.default_rng(0).normal(size=(20, 3))
    assert np.array_equal(predict_states(back, states), predict_states(result.model, states))
    # a second save emits identical bytes
    path2 = tmp_path / "again.json"
    save_model(back, path2, train_config=cfg)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_version_and_kind_checks(tmp_path):
    import json

    path = tmp_path / "model.json"
    save_model(make_reward_model(3, 8, 1, seed=0), path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(CorruptArtifactError, match="unsupported checkpoint version 99"):
        load_model(bad)
    payload["format_version"] = 1
    payload["kind"] = "policy"
    bad.write_text(json.dumps(payload))
    with pytest.raises(CorruptArtifactError, match="not a reward checkpoint"):
        load_model(bad)
