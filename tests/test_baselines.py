"""Comparator data builders and behavioral cloning."""

import numpy as np
import pytest

from genil.baselines import (
    BC_HIDDEN,
    BC_TRAIN,
    BCPolicy,
    MixturePolicy,
    build_drex_dataset,
    build_trex2_dataset,
    build_trex_dataset,
    train_bc,
)
from genil.envs import DemoPolicy, environment, make_demo_pair, rollout
from genil.errors import ConfigError
from genil.mlp import MLP
from genil.seeding import derive_seed
from genil.trajectory import gt_return, trajectories_equal


@pytest.fixture(scope="module")
def grid_bc():
    """A clone of the optimal GridNav policy from one clean demo."""
    spec = environment("GridNav")
    demo = rollout(DemoPolicy(spec, 0.0), seed=0)
    return spec, demo, train_bc([demo], spec, [0])[0]


def constant_ranks(trajectories) -> dict[str, float]:
    """Each trajectory's rank by id, checked constant over its steps."""
    out = {}
    for traj in trajectories:
        assert np.all(traj.step_ranks == traj.step_ranks[0])
        out[traj.id] = float(traj.step_ranks[0])
    return out


# ---------------------------------------------------------------------------
# Quality-ranked datasets


def test_trex_dataset_structure(grid_spec):
    qualities = [0.1, 0.5, 0.3]
    trajs = build_trex_dataset(grid_spec, qualities, n_per_quality=2, seed=3)
    assert [t.id for t in trajs] == [f"trex-q{q:g}-{i}" for q in qualities for i in (0, 1)]
    # worst quality gets rank 0, best gets the top rank
    ranks = constant_ranks(trajs)
    assert [ranks[f"trex-q{q:g}-{i}"] for q in (0.5, 0.3, 0.1) for i in (0, 1)] == [
        0.0, 0.0, 1.0, 1.0, 2.0, 2.0
    ]


def test_trex_dataset_deterministic(grid_spec):
    a = build_trex_dataset(grid_spec, [0.0, 0.4], 2, seed=5)
    b = build_trex_dataset(grid_spec, [0.0, 0.4], 2, seed=5)
    assert all(trajectories_equal(x, y) for x, y in zip(a, b))


def test_trex_dataset_validation(grid_spec):
    with pytest.raises(ConfigError):
        build_trex_dataset(grid_spec, [0.5], 1, seed=0)
    with pytest.raises(ConfigError):
        build_trex_dataset(grid_spec, [0.5, 0.5], 1, seed=0)
    with pytest.raises(ConfigError):
        build_trex_dataset(grid_spec, [0.1, 0.5], 0, seed=0)


def test_trex2_dataset(grid_spec):
    good, bad = make_demo_pair(grid_spec, 0.1, 0.5, seed=2)
    trajs = build_trex2_dataset(good, bad)
    assert constant_ranks(trajs) == {"demo-good": 1.0, "demo-bad": 0.0}
    # the input demos are not mutated
    assert good.step_ranks is None


# ---------------------------------------------------------------------------
# Behavioral cloning


def test_bc_clones_optimal_grid_policy(grid_bc):
    spec, demo, bc = grid_bc
    out = bc.net.predict(demo.states)
    agreement = float((np.argmax(out, axis=1) == demo.actions).mean())
    assert agreement >= 0.9
    # the cloned policy should track the demo return closely
    cloned = rollout(bc, seed=0)
    assert gt_return(cloned, spec.discount) == pytest.approx(
        gt_return(demo, spec.discount), rel=0.05
    )


def test_bc_regresses_pointchase_actions():
    spec = environment("PointChase")
    demo = rollout(DemoPolicy(spec, 0.0), seed=0)
    bc = train_bc([demo], spec, [0])[0]
    pred = np.clip(bc.net.predict(demo.states)[:, 0], -1.0, 1.0)
    mse = float(np.mean((pred - demo.actions) ** 2))
    assert mse < 0.1 * float(demo.actions.var()) + 1e-3


def test_bc_act_types(grid_bc, rng):
    spec, demo, bc = grid_bc
    a = bc.act(demo.states[0], rng)
    assert isinstance(a, int) and 0 <= a < 4
    pspec = environment("PointChase")
    pdemo = rollout(DemoPolicy(pspec, 0.3), seed=0)
    pbc = train_bc([pdemo], pspec, [0])[0]
    action = pbc.act(pdemo.states[0], rng)
    assert isinstance(action, float) and abs(action) <= 1.0


def test_bc_validation(grid_spec):
    demo = rollout(DemoPolicy(grid_spec, 0.0), seed=0)
    with pytest.raises(ConfigError):
        train_bc([], grid_spec, [0])
    import dataclasses

    no_actions = dataclasses.replace(demo, actions=None)
    with pytest.raises(ConfigError):
        train_bc([no_actions], grid_spec, [0])
    with pytest.raises(ConfigError):
        train_bc([demo], environment("PointChase"), [0])


def test_bc_deterministic(grid_spec):
    demo = rollout(DemoPolicy(grid_spec, 0.1), seed=4)
    a = train_bc([demo], grid_spec, [7])[0]
    b = train_bc([demo], grid_spec, [7])[0]
    assert np.array_equal(a.net.params, b.net.params)


def step_drawn_clones(demos, spec, seeds) -> list[MLP]:
    """The clones of train_bc with each step's batches drawn by a call of
    their own, one clone's after another's, as train_bc drew them before it
    took its batches from reward training's block stream."""
    X = np.concatenate([t.states for t in demos], axis=0)
    y = np.concatenate([t.actions for t in demos], axis=0)
    env = environment(spec.name)
    widths = [spec.feature_dim, *BC_HIDDEN, env.bc_out_dim]
    net = MLP.stack([MLP.create(widths, derive_seed(seed, "bc-init")) for seed in seeds])
    rngs = [np.random.default_rng(derive_seed(seed, "bc-batches")) for seed in seeds]
    n = X.shape[0]
    size = min(BC_TRAIN.batch_size, n)
    distinct, row_of = np.unique(X, axis=0, return_inverse=True)
    row_of = row_of.ravel()
    clones = np.arange(len(seeds))[:, None]
    for _ in range(BC_TRAIN.steps):
        batches = np.array([rng.integers(n, size=size) for rng in rngs])
        if len(distinct) < size:
            out, cache = net.forward(distinct)
            rows = row_of[batches]
            d_out = np.zeros_like(out)
            np.add.at(d_out, (clones, rows), env.bc_grad(out[clones, rows], y[batches]))
        else:
            out, cache = net.forward(X[batches])
            d_out = env.bc_grad(out, y[batches])
        net.apply_grads(net.backward(cache, d_out), BC_TRAIN.learning_rate)
    return net.unstack()


@pytest.mark.parametrize("n_clones", [1, 3])
@pytest.mark.parametrize(
    "env, n_demos",
    # GridNav's 100 rows hold fewer distinct cells than a batch; its good demo
    # alone holds fewer rows than a batch; PointChase's rows are all distinct
    [("GridNav", 2), ("GridNav", 1), ("PointChase", 2)],
)
def test_bc_block_draws_match_step_draws(env, n_demos, n_clones):
    spec = environment(env)
    demos = list(make_demo_pair(spec, 0.1, 0.5, seed=3))[:n_demos]
    seeds = [11, 12, 13][:n_clones]
    got = train_bc(demos, spec, seeds)
    want = step_drawn_clones(demos, spec, seeds)
    assert [c.net.params.tobytes() for c in got] == [net.params.tobytes() for net in want]


# ---------------------------------------------------------------------------
# Noise injection


def test_mixture_policy_epsilon_extremes(grid_bc, rng):
    spec, demo, bc = grid_bc
    pure = MixturePolicy(base=bc, epsilon=0.0)
    for t in range(5):
        assert pure.act(demo.states[t], rng) == bc.act(demo.states[t], rng)
    noisy = MixturePolicy(base=bc, epsilon=1.0)
    draws = {noisy.act(demo.states[0], rng) for _ in range(60)}
    assert draws == {0, 1, 2, 3}
    with pytest.raises(ConfigError):
        MixturePolicy(base=bc, epsilon=1.5)


def test_drex_dataset_structure(grid_bc):
    spec, demo, bc = grid_bc
    trajs = build_drex_dataset(bc, [0.1, 0.4, 0.8], n_per_level=2, seed=1)
    assert len(trajs) == 6
    ranks = constant_ranks(trajs)
    assert set(ranks.values()) == {0.0, 1.0, 2.0}
    # least noise earns the top rank
    assert ranks["drex-e0.1-0"] == 2
    assert ranks["drex-e0.8-1"] == 0
    for traj in trajs:
        assert traj.meta["noise"] in (0.1, 0.4, 0.8)


def test_drex_returns_track_rank(grid_bc):
    spec, demo, bc = grid_bc
    trajs = build_drex_dataset(bc, [0.05, 0.9], n_per_level=3, seed=0)
    ranks = constant_ranks(trajs)
    means = {}
    for traj in trajs:
        means.setdefault(ranks[traj.id], []).append(gt_return(traj, spec.discount))
    assert np.mean(means[1]) > np.mean(means[0])


def test_drex_validation(grid_bc):
    spec, demo, bc = grid_bc
    with pytest.raises(ConfigError):
        build_drex_dataset(bc, [0.5], 1, seed=0)
    with pytest.raises(ConfigError):
        build_drex_dataset(bc, [0.5, 0.2], 1, seed=0)  # not increasing
    with pytest.raises(ConfigError):
        build_drex_dataset(bc, [0.2, 1.5], 1, seed=0)
    with pytest.raises(ConfigError):
        build_drex_dataset(bc, [0.2, 0.5], 0, seed=0)
