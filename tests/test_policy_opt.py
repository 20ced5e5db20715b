"""Policy derivation: exact value iteration, CEM search, evaluation,
artifact serialization."""

import numpy as np
import pytest

from genil.envs import (
    DemoPolicy,
    GRID_N_STATES,
    PC_ACTION_MAX,
    PointChaseEnv,
    gridnav_all_features,
    gridnav_optimal_actions,
    gridnav_optimal_return,
    make_env,
    make_spec,
    rollout,
    true_reward_fn,
)
from genil.errors import ConfigError, DivergenceError
from genil.mlp import MLP
from genil.policy_opt import (
    CEMConfig,
    KIND_GREEDY_TABULAR,
    KIND_LINEAR_GAUSSIAN,
    PolicyArtifact,
    cem_search,
    evaluate_policy,
    load_policy,
    policy_returns,
    save_policy,
    value_iteration,
)
from genil.reward_net import RewardEnsemble, RewardModel, make_reward_model, predict_states
from genil.seeding import derive_seed
from genil.trajectory import gt_return


def linear_reward_model(field):
    """RewardModel scoring a GridNav feature vector by its one-hot cell."""
    W = np.zeros((2 + GRID_N_STATES, 1))
    W[2:, 0] = field
    return RewardModel(net=MLP([2 + GRID_N_STATES, 1], [W], [np.zeros(1)]))


# ---------------------------------------------------------------------------
# CEMConfig


def test_cem_config_defaults_and_elites():
    cfg = CEMConfig()
    assert (cfg.population_size, cfg.elite_frac, cfg.n_iters, cfg.init_std) == (
        64,
        0.125,
        30,
        2.0,
    )
    assert cfg.n_elites == 8
    assert CEMConfig(population_size=10, elite_frac=0.01).n_elites == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"population_size": 4},
        {"elite_frac": 0.0},
        {"elite_frac": 1.0},
        {"n_iters": -1},
        {"init_std": 0.0},
    ],
)
def test_cem_config_validation(kwargs):
    with pytest.raises(ConfigError):
        CEMConfig(**kwargs)


# ---------------------------------------------------------------------------
# Value iteration


def test_value_iteration_on_true_reward_is_optimal(grid_spec):
    art = value_iteration(grid_spec, true_reward_fn(grid_spec))
    assert art.kind == KIND_GREEDY_TABULAR
    assert np.array_equal(art.parameters, gridnav_optimal_actions(grid_spec.discount))
    stats = evaluate_policy(art, grid_spec, n_episodes=1, seed=0)
    assert stats.mean == pytest.approx(gridnav_optimal_return(grid_spec), abs=1e-12)


def test_value_iteration_accepts_model_and_ensemble(grid_spec):
    field = np.asarray(true_reward_fn(grid_spec)(gridnav_all_features()))
    model = linear_reward_model(field)
    by_model = value_iteration(grid_spec, model)
    by_fn = value_iteration(grid_spec, true_reward_fn(grid_spec))
    assert np.array_equal(by_model.parameters, by_fn.parameters)
    ens = RewardEnsemble([model, model.copy()])
    by_ens = value_iteration(grid_spec, ens)
    assert np.array_equal(by_ens.parameters, by_fn.parameters)


def test_value_iteration_tie_break_lowest_action(grid_spec):
    # constant reward: every action is equally good everywhere, so the
    # argmax tie-break must pick action 0 in every cell
    art = value_iteration(grid_spec, lambda feats: np.zeros(len(np.atleast_2d(feats))))
    assert np.all(art.parameters == 0)


def test_value_iteration_tolerance_insensitive(grid_spec):
    loose = value_iteration(grid_spec, true_reward_fn(grid_spec), tol=1e-6)
    tight = value_iteration(grid_spec, true_reward_fn(grid_spec), tol=1e-12)
    assert np.array_equal(loose.parameters, tight.parameters)


def test_value_iteration_discount_override(grid_spec):
    art = value_iteration(grid_spec, true_reward_fn(grid_spec), discount=0.99)
    assert art.meta["discount"] == 0.99
    assert np.array_equal(art.parameters, gridnav_optimal_actions(0.99))


def test_value_iteration_validation(grid_spec, pc_spec):
    with pytest.raises(ConfigError):
        value_iteration(pc_spec, true_reward_fn(pc_spec))
    with pytest.raises(ConfigError):
        value_iteration(grid_spec, true_reward_fn(grid_spec), tol=0.0)
    with pytest.raises(ConfigError):
        value_iteration(grid_spec, lambda feats: np.zeros(3))  # wrong size


# ---------------------------------------------------------------------------
# CEM


def test_cem_deterministic(pc_spec):
    cfg = CEMConfig(population_size=16, n_iters=4)
    a = cem_search(pc_spec, true_reward_fn(pc_spec), cfg, seed=3)
    b = cem_search(pc_spec, true_reward_fn(pc_spec), cfg, seed=3)
    assert np.array_equal(a.parameters, b.parameters)
    c = cem_search(pc_spec, true_reward_fn(pc_spec), cfg, seed=4)
    assert not np.array_equal(a.parameters, c.parameters)
    assert a.kind == KIND_LINEAR_GAUSSIAN
    assert len(a.meta["mean_history"]) == cfg.n_iters + 1


def test_cem_zero_iters_returns_zero_gains(pc_spec):
    art = cem_search(pc_spec, true_reward_fn(pc_spec), CEMConfig(n_iters=0), seed=0)
    assert np.array_equal(art.parameters, np.zeros(3))


def test_cem_improves_over_zero_gains(pc_spec):
    cfg = CEMConfig(population_size=24, n_iters=8)
    art = cem_search(pc_spec, true_reward_fn(pc_spec), cfg, seed=0)
    searched = evaluate_policy(art, pc_spec, n_episodes=1, seed=0).mean
    idle = evaluate_policy(
        PolicyArtifact(kind=KIND_LINEAR_GAUSSIAN, env="PointChase", parameters=np.zeros(3)),
        pc_spec,
        n_episodes=1,
        seed=0,
    ).mean
    assert searched > idle


def test_cem_requires_pointchase(grid_spec):
    with pytest.raises(ConfigError):
        cem_search(grid_spec, true_reward_fn(grid_spec), CEMConfig(), seed=0)


def test_cem_raises_on_non_finite_fitness(pc_spec):
    def nan_once_moved(feats):
        # NaN wherever the point has left the start position
        return np.where(feats[:, 0] != 0.0, np.nan, -np.abs(feats[:, 2]))

    with pytest.raises(DivergenceError) as info:
        cem_search(pc_spec, nan_once_moved, CEMConfig(population_size=8, n_iters=2), seed=0)
    assert info.value.step == 0


# Reference: the per-candidate CEM this module ran before rolling the whole
# population out in lockstep; one scalar env.step per candidate per step.
def reference_fitness(env, gains, reward):
    spec = env.spec
    feats = env.reset()
    states = np.empty((spec.horizon, spec.feature_dim))
    for t in range(spec.horizon):
        states[t] = feats
        action = float(np.clip(gains @ feats, -PC_ACTION_MAX, PC_ACTION_MAX))
        feats, _, _ = env.step(action)
    if isinstance(reward, (RewardModel, RewardEnsemble)):
        return float(predict_states(reward, states).sum())
    return float(np.asarray(reward(states), dtype=np.float64).reshape(-1).sum())


def reference_cem(spec, reward, cfg, seed):
    rng = np.random.default_rng(derive_seed(seed, "cem"))
    env = PointChaseEnv(spec, seed=0)
    dim = spec.feature_dim
    mean = np.zeros(dim)
    std = np.full(dim, cfg.init_std)
    history = [mean.copy()]
    for _ in range(cfg.n_iters):
        population = mean + std * rng.normal(size=(cfg.population_size, dim))
        fitness = np.array([reference_fitness(env, c, reward) for c in population])
        elites = population[np.argsort(-fitness, kind="stable")[: cfg.n_elites]]
        mean = elites.mean(axis=0)
        std = np.maximum(elites.std(axis=0), 1e-6)
        history.append(mean.copy())
    return mean, [[float(v) for v in m] for m in history]


def small_reward(kind, spec):
    if kind == "true":
        return true_reward_fn(spec)
    if kind == "model":
        return make_reward_model(3, hidden_width=8, n_hidden=2, seed=11)
    return RewardEnsemble(
        [make_reward_model(3, hidden_width=8, n_hidden=2, seed=s) for s in (12, 13)]
    )


def assert_cem_matches_reference(spec, reward, cfg, seed):
    art = cem_search(spec, reward, cfg, seed=seed)
    mean, history = reference_cem(spec, reward, cfg, seed)
    assert np.array_equal(art.parameters, mean)
    assert np.array_equal(art.meta["mean_history"], history)


def recording(reward):
    """A callable reward that keeps every batch of states it scores."""
    seen = []

    def score(states):
        seen.append(states.copy())
        return reward(states)

    return score, seen


@pytest.mark.parametrize("population_size", [8, 16, 64])
@pytest.mark.parametrize("reward_kind", ["true", "model", "ensemble"])
def test_cem_matches_per_candidate_reference(pc_spec, reward_kind, population_size):
    cfg = CEMConfig(population_size=population_size, n_iters=3)
    assert_cem_matches_reference(pc_spec, small_reward(reward_kind, pc_spec), cfg, seed=5)


@pytest.mark.parametrize("reward_kind", ["true", "model"])
def test_cem_matches_reference_at_other_horizon(reward_kind):
    spec = make_spec("PointChase", horizon=37)
    cfg = CEMConfig(population_size=16, n_iters=4)
    assert_cem_matches_reference(spec, small_reward(reward_kind, spec), cfg, seed=2)


def test_cem_scores_the_reference_rollouts(pc_spec):
    # elites rarely flip on last-bit differences, so compare the states
    cfg = CEMConfig(population_size=16, n_iters=3)
    got_fn, got = recording(true_reward_fn(pc_spec))
    want_fn, want = recording(true_reward_fn(pc_spec))
    cem_search(pc_spec, got_fn, cfg, seed=9)
    reference_cem(pc_spec, want_fn, cfg, seed=9)
    assert len(got) == len(want) == cfg.n_iters * cfg.population_size
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_cem_matches_reference_at_zero_iters(pc_spec):
    cfg = CEMConfig(n_iters=0)
    assert_cem_matches_reference(pc_spec, small_reward("model", pc_spec), cfg, seed=0)


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_policy_deterministic(grid_spec):
    art = value_iteration(grid_spec, true_reward_fn(grid_spec))
    a = evaluate_policy(art, grid_spec, n_episodes=3, seed=5)
    b = evaluate_policy(art, grid_spec, n_episodes=3, seed=5)
    assert np.array_equal(a.returns, b.returns)
    assert a.n_episodes == 3
    assert a.mean == pytest.approx(float(a.returns.mean()))
    assert a.std == pytest.approx(float(a.returns.std()))


def test_evaluate_policy_is_policy_returns_of_artifact(pc_spec):
    art = PolicyArtifact(
        kind=KIND_LINEAR_GAUSSIAN, env="PointChase", parameters=np.array([0.5, -0.3, 1.2])
    )
    stats = evaluate_policy(art, pc_spec, n_episodes=3, seed=4)
    returns = policy_returns(art.as_policy(pc_spec), pc_spec, 3, seed=4)
    assert np.array_equal(stats.returns, returns)


def test_evaluate_policy_validation(grid_spec, pc_spec):
    art = value_iteration(grid_spec, true_reward_fn(grid_spec))
    with pytest.raises(ConfigError):
        evaluate_policy(art, grid_spec, n_episodes=0, seed=0)
    with pytest.raises(ConfigError):
        evaluate_policy(art, pc_spec, n_episodes=1, seed=0)


def test_tabular_policy_matches_rollout_of_table(grid_spec):
    art = value_iteration(grid_spec, true_reward_fn(grid_spec))
    policy = art.as_policy(grid_spec)
    traj = rollout(make_env(grid_spec, 0), policy, seed=0)
    reference = rollout(make_env(grid_spec, 0), DemoPolicy(grid_spec, 0.0), seed=0)
    assert gt_return(traj, grid_spec.discount) == pytest.approx(
        gt_return(reference, grid_spec.discount), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Artifacts


def test_policy_artifact_kind_check():
    with pytest.raises(ConfigError):
        PolicyArtifact(kind="mystery", env="GridNav", parameters=np.zeros(3))


def test_policy_round_trip_tabular(grid_spec, tmp_path):
    art = value_iteration(grid_spec, true_reward_fn(grid_spec), source_model="model.json")
    path = tmp_path / "policy.json"
    save_policy(art, path)
    back = load_policy(path)
    assert back.kind == art.kind
    assert back.env == art.env
    assert back.source_model == "model.json"
    assert back.parameters.dtype == np.int64
    assert np.array_equal(back.parameters, art.parameters)
    assert back.meta == art.meta
    path2 = tmp_path / "again.json"
    save_policy(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_policy_round_trip_linear(pc_spec, tmp_path):
    art = cem_search(
        pc_spec, true_reward_fn(pc_spec), CEMConfig(population_size=16, n_iters=2), seed=1
    )
    path = tmp_path / "policy.json"
    save_policy(art, path)
    back = load_policy(path)
    assert back.parameters.dtype == np.float64
    assert np.array_equal(back.parameters, art.parameters)
    same = evaluate_policy(back, pc_spec, 1, seed=0).mean
    orig = evaluate_policy(art, pc_spec, 1, seed=0).mean
    assert same == orig


def test_policy_version_check(tmp_path):
    import json

    art = PolicyArtifact(kind=KIND_LINEAR_GAUSSIAN, env="PointChase", parameters=np.zeros(3))
    path = tmp_path / "p.json"
    save_policy(art, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 7
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError):
        load_policy(path)
