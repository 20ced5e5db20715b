"""Policy derivation: exact value iteration, CEM search, evaluation,
artifact serialization."""

import ast
import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genil.metrics
import genil.policy_opt
from genil.baselines import train_bc
from genil.envs import (
    DemoPolicy,
    GRID_N_STATES,
    PC_ACTION_MAX,
    environment,
    gridnav_all_features,
    gridnav_optimal_actions,
    gridnav_optimal_return,
    gridnav_transitions,
    rollout,
)
from genil.errors import ConfigError, CorruptArtifactError, DivergenceError
from genil.mlp import MLP
from genil.policy_opt import (
    CEMConfig,
    PolicyArtifact,
    cem_search,
    evaluate_policy,
    load_policy,
    save_policy,
    value_iteration,
)
from genil.reward_net import RewardModel, make_reward_model, predict_states
from genil.seeding import derive_seed
from genil.trajectory import gt_return
from reference_value_iteration import reference_value_iteration


def linear_reward_model(field):
    """RewardModel scoring a GridNav feature vector by its one-hot cell."""
    W = np.zeros((2 + GRID_N_STATES, 1))
    W[2:, 0] = field
    return RewardModel(net=MLP([2 + GRID_N_STATES, 1], [W], [np.zeros(1)]))


# ---------------------------------------------------------------------------
# CEMConfig


def test_cem_config_defaults_and_elites():
    cfg = CEMConfig()
    assert (cfg.population_size, cfg.n_iters) == (64, 30)
    assert cfg.n_elites == 8
    # the smallest population keeps one elite
    assert CEMConfig(population_size=8).n_elites == 1
    assert CEMConfig(population_size=15).n_elites == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"population_size": 4},
        {"population_size": 7},
        {"n_iters": -1},
    ],
)
def test_cem_config_validation(kwargs):
    with pytest.raises(ConfigError):
        CEMConfig(**kwargs)


# ---------------------------------------------------------------------------
# Value iteration


def test_value_iteration_on_true_reward_is_optimal(grid_spec):
    art = value_iteration(grid_spec, grid_spec.true_reward)
    assert art.spec.name == "GridNav"
    assert np.array_equal(art.parameters, gridnav_optimal_actions(grid_spec.discount))
    stats = evaluate_policy(art, n_episodes=1)
    assert stats.mean == pytest.approx(gridnav_optimal_return(grid_spec), abs=1e-12)


def test_value_iteration_accepts_a_model_reward(grid_spec):
    field = np.asarray(grid_spec.true_reward(gridnav_all_features()))
    model = linear_reward_model(field)
    by_model = value_iteration(grid_spec, functools.partial(predict_states, model))
    by_fn = value_iteration(grid_spec, grid_spec.true_reward)
    assert np.array_equal(by_model.parameters, by_fn.parameters)


def test_value_iteration_tie_break_lowest_action(grid_spec):
    # constant reward: every action is equally good everywhere, so the
    # argmax tie-break must pick action 0 in every cell
    art = value_iteration(grid_spec, lambda feats: np.zeros(len(np.atleast_2d(feats))))
    assert np.all(art.parameters == 0)


def test_value_iteration_tolerance_insensitive(grid_spec):
    loose = value_iteration(grid_spec, grid_spec.true_reward, tol=1e-6)
    tight = value_iteration(grid_spec, grid_spec.true_reward, tol=1e-12)
    assert np.array_equal(loose.parameters, tight.parameters)


def test_value_iteration_discount_override(grid_spec):
    art = value_iteration(grid_spec, grid_spec.true_reward, discount=0.99)
    assert art.meta["discount"] == 0.99
    assert np.array_equal(art.parameters, gridnav_optimal_actions(0.99))


def reward_cases():
    """Seeded cell-reward vectors: standard normal draws and the outputs
    of freshly initialized reward MLPs on the 64 cell features."""
    feats = gridnav_all_features()
    for k in range(4):
        yield np.random.default_rng(derive_seed(k, "vi-rewards")).normal(size=GRID_N_STATES)
        yield predict_states(make_reward_model(feats.shape[1], seed=k), feats)


@pytest.mark.parametrize("gamma", [0.3, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_value_iteration_matches_the_reference_loop(grid_spec, gamma, tol):
    for rewards in reward_cases():
        art = value_iteration(grid_spec, lambda feats: rewards, discount=gamma, tol=tol)
        assert np.array_equal(art.parameters, reference_value_iteration(rewards, gamma, tol))


def test_value_iteration_at_discount_zero_takes_the_best_next_cell(grid_spec):
    # at discount 0 every action's Q value is the cell's own reward, so the
    # old loop's argmax over Q took action 0 everywhere; the shared loop
    # takes the action whose next cell scores highest, as the oracle does
    for rewards in reward_cases():
        art = value_iteration(grid_spec, lambda feats: rewards, discount=0.0)
        assert np.all(reference_value_iteration(rewards, 0.0, 1e-10) == 0)
        best_next = np.argmax(rewards[gridnav_transitions()], axis=1)
        assert np.array_equal(art.parameters, best_next)
        assert np.any(art.parameters != 0)


def test_value_iteration_refuses_a_non_finite_reward(grid_spec):
    rewards = np.zeros(GRID_N_STATES)
    rewards[5] = np.nan
    with pytest.raises(DivergenceError, match="non-finite cell reward") as info:
        value_iteration(grid_spec, lambda feats: rewards)
    assert info.value.step == 0


def test_value_iteration_validation(grid_spec):
    with pytest.raises(ConfigError):
        value_iteration(grid_spec, grid_spec.true_reward, tol=0.0)
    with pytest.raises(ConfigError):
        value_iteration(grid_spec, lambda feats: np.zeros(3))  # wrong size


# ---------------------------------------------------------------------------
# CEM


def test_cem_deterministic(pc_spec):
    cfg = CEMConfig(population_size=16, n_iters=4)
    a = cem_search(pc_spec, pc_spec.true_reward, cfg, seed=3)
    b = cem_search(pc_spec, pc_spec.true_reward, cfg, seed=3)
    assert np.array_equal(a.parameters, b.parameters)
    c = cem_search(pc_spec, pc_spec.true_reward, cfg, seed=4)
    assert not np.array_equal(a.parameters, c.parameters)
    assert a.spec.name == "PointChase"
    assert len(a.meta["mean_history"]) == cfg.n_iters + 1


def test_cem_zero_iters_returns_zero_gains(pc_spec):
    art = cem_search(pc_spec, pc_spec.true_reward, CEMConfig(n_iters=0), seed=0)
    assert np.array_equal(art.parameters, np.zeros(3))


def test_cem_improves_over_zero_gains(pc_spec):
    cfg = CEMConfig(population_size=24, n_iters=8)
    art = cem_search(pc_spec, pc_spec.true_reward, cfg, seed=0)
    searched = evaluate_policy(art, n_episodes=1).mean
    idle = evaluate_policy(
        PolicyArtifact(spec=pc_spec, parameters=np.zeros(3)), n_episodes=1
    ).mean
    assert searched > idle


def test_cem_raises_on_non_finite_fitness(pc_spec):
    def nan_once_moved(feats):
        # NaN wherever the point has left the start position
        return np.where(feats[:, 0] != 0.0, np.nan, -np.abs(feats[:, 2]))

    with pytest.raises(DivergenceError) as info:
        cem_search(pc_spec, nan_once_moved, CEMConfig(population_size=8, n_iters=2), seed=0)
    assert info.value.step == 0


# Reference: the per-candidate CEM this module ran before rolling the whole
# population out in lockstep; one scalar spec.step per candidate per step.
def reference_fitness(spec, gains, reward):
    feats = spec.start()
    states = np.empty((spec.horizon, spec.feature_dim))
    for t in range(spec.horizon):
        states[t] = feats
        action = float(np.clip(gains @ feats, -PC_ACTION_MAX, PC_ACTION_MAX))
        feats = spec.step(feats, action)
    return float(reward(states).sum())


def reference_cem(spec, reward, cfg, seed):
    rng = np.random.default_rng(derive_seed(seed, "cem"))
    dim = spec.feature_dim
    mean = np.zeros(dim)
    std = np.full(dim, 2.0)
    history = [mean.copy()]
    for _ in range(cfg.n_iters):
        population = mean + std * rng.normal(size=(cfg.population_size, dim))
        fitness = np.array([reference_fitness(spec, c, reward) for c in population])
        elites = population[np.argsort(-fitness, kind="stable")[: cfg.n_elites]]
        mean = elites.mean(axis=0)
        std = np.maximum(elites.std(axis=0), 1e-6)
        history.append(mean.copy())
    return mean, [[float(v) for v in m] for m in history]


def small_reward(kind, spec):
    if kind == "true":
        return spec.true_reward
    if kind == "model":
        return functools.partial(
            predict_states, make_reward_model(3, hidden_width=8, n_hidden=2, seed=11)
        )
    # the uniform ensemble: the member mean of per-state rewards
    members = [make_reward_model(3, hidden_width=8, n_hidden=2, seed=s) for s in (12, 13)]
    return lambda states: np.mean([predict_states(m, states) for m in members], axis=0)


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
    spec = dataclasses.replace(environment("PointChase"), horizon=37)
    cfg = CEMConfig(population_size=16, n_iters=4)
    assert_cem_matches_reference(spec, small_reward(reward_kind, spec), cfg, seed=2)


def test_cem_scores_the_reference_rollouts(pc_spec):
    # elites rarely flip on last-bit differences, so compare the states
    cfg = CEMConfig(population_size=16, n_iters=3)
    got_fn, got = recording(pc_spec.true_reward)
    want_fn, want = recording(pc_spec.true_reward)
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
    art = value_iteration(grid_spec, grid_spec.true_reward)
    a = evaluate_policy(art, n_episodes=3)
    b = evaluate_policy(art, n_episodes=3)
    assert np.array_equal(a.returns, b.returns)
    assert len(a.returns) == 3
    assert a.mean == pytest.approx(float(a.returns.mean()))


def test_evaluate_policy_validation(grid_spec):
    art = value_iteration(grid_spec, grid_spec.true_reward)
    with pytest.raises(ConfigError):
        evaluate_policy(art, n_episodes=0)


@pytest.fixture(scope="module")
def evaluated_policies(grid_spec, pc_spec):
    """One policy of each kind that evaluate_policy rolls out only once."""
    bc = []
    for spec in (grid_spec, pc_spec):
        demos = [
            rollout(DemoPolicy(spec, q), seed=k) for k, q in enumerate((0.0, 0.3))
        ]
        bc.append(train_bc(demos, spec, [1])[0])
    linear = PolicyArtifact(
        spec=pc_spec, parameters=np.array([0.5, -0.3, 1.2])
    )
    return [
        value_iteration(grid_spec, grid_spec.true_reward),
        linear,
        *bc,
    ]


@settings(max_examples=20, deadline=None)
@given(which=st.integers(0, 3), seeds=st.lists(st.integers(0, 2**31 - 1), min_size=2, max_size=2))
def test_evaluated_policies_roll_out_the_same_at_every_seed(
    evaluated_policies, which, seeds
):
    """evaluate_policy repeats one seed-0 episode's return for these
    policies; one that starts reading its rng fails this."""
    policy = evaluated_policies[which]
    a, b = (rollout(policy, seed=s) for s in seeds)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.gt_step_rewards, b.gt_step_rewards)


def test_evaluate_policy_returns_equal_every_episode(evaluated_policies):
    for policy in evaluated_policies:
        spec = policy.spec
        want = np.array([
            gt_return(
                rollout(policy, derive_seed(7, "episode", i), source="eval"),
                spec.discount,
            )
            for i in range(4)
        ])
        assert np.array_equal(evaluate_policy(policy, 4).returns, want)


def test_tabular_policy_matches_rollout_of_table(grid_spec):
    art = value_iteration(grid_spec, grid_spec.true_reward)
    traj = rollout(art, seed=0)
    reference = rollout(DemoPolicy(grid_spec, 0.0), seed=0)
    assert gt_return(traj, grid_spec.discount) == pytest.approx(
        gt_return(reference, grid_spec.discount), abs=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(
    table=st.lists(st.integers(0, 3), min_size=GRID_N_STATES, max_size=GRID_N_STATES),
    grid_feats=st.lists(st.floats(-1, 1), min_size=2 + GRID_N_STATES, max_size=2 + GRID_N_STATES),
    gains=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    pc_feats=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    seed=st.integers(0, 2**31 - 1),
)
def test_artifact_act_is_table_lookup_or_clipped_gains(
    tmp_path_factory, table, grid_feats, gains, pc_feats, seed
):
    """A GridNav artifact takes its table entry at the argmax cell, a
    PointChase one clips gains @ features to the action bound; neither
    draws from its rng, and each acts the same after a save and a load."""
    grid_feats, pc_feats = np.array(grid_feats), np.array(pc_feats)
    path = tmp_path_factory.getbasetemp() / "act.json"
    cases = [
        (
            PolicyArtifact(environment("GridNav"), table),
            grid_feats,
            table[int(np.argmax(grid_feats[2:]))],
        ),
        (
            PolicyArtifact(environment("PointChase"), gains),
            pc_feats,
            float(np.clip(np.array(gains) @ pc_feats, -PC_ACTION_MAX, PC_ACTION_MAX)),
        ),
    ]
    for artifact, feats, want in cases:
        save_policy(artifact, path)
        for policy in (artifact, load_policy(path)):
            rng = np.random.default_rng(seed)
            before = rng.bit_generator.state
            got = policy.act(feats, rng)
            assert type(got) is type(want) and got == want
            assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# Artifacts


def test_policy_round_trip_tabular(grid_spec, tmp_path):
    art = value_iteration(grid_spec, grid_spec.true_reward)
    art.source_model = "model.json"
    path = tmp_path / "policy.json"
    save_policy(art, path)
    back = load_policy(path)
    assert back.spec.name == art.spec.name
    assert back.source_model == "model.json"
    assert back.parameters.dtype == np.int64
    assert np.array_equal(back.parameters, art.parameters)
    assert back.meta == art.meta
    path2 = tmp_path / "again.json"
    save_policy(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_policy_round_trip_linear(pc_spec, tmp_path):
    art = cem_search(
        pc_spec, pc_spec.true_reward, CEMConfig(population_size=16, n_iters=2), seed=1
    )
    path = tmp_path / "policy.json"
    save_policy(art, path)
    back = load_policy(path)
    assert back.parameters.dtype == np.float64
    assert np.array_equal(back.parameters, art.parameters)
    same = evaluate_policy(back, 1).mean
    orig = evaluate_policy(art, 1).mean
    assert same == orig


@pytest.mark.parametrize(
    "name, horizon, derive",
    [
        ("PointChase", 37, lambda s: cem_search(s, s.true_reward, CEMConfig(8, 2), seed=0)),
        ("GridNav", 20, lambda s: value_iteration(s, s.true_reward)),
    ],
)
def test_a_derived_policy_keeps_the_environment_it_was_derived_in(name, horizon, derive):
    """A derivation hands its policy its own spec, a replaced horizon and
    all: the policy rolls out, and evaluate_policy scores, that many steps."""
    spec = dataclasses.replace(environment(name), horizon=horizon)
    artifact = derive(spec)
    episode = rollout(artifact, seed=0)
    assert len(episode) == horizon
    assert artifact.spec is spec
    assert evaluate_policy(artifact, 1).mean == gt_return(episode, spec.discount)


def test_policy_version_check(tmp_path):
    import json

    art = PolicyArtifact(spec=environment("PointChase"), parameters=np.zeros(3))
    path = tmp_path / "p.json"
    save_policy(art, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 7
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptArtifactError, match="unsupported policy artifact version 7"):
        load_policy(path)


# ---------------------------------------------------------------------------
# A reward reaches policy derivation and the metrics as a function of states


def imported_names(module):
    """Every module, and every name from a module, that a module's source
    imports, relative imports resolved within genil."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, ["genil" if node.level else "", node.module]))
            names |= {source} | {f"{source}.{alias.name}" for alias in node.names}
    return names


@pytest.mark.parametrize("module", [genil.policy_opt, genil.metrics], ids=["policy_opt", "metrics"])
def test_module_does_not_import_reward_net(module):
    imported = imported_names(module)
    assert "genil.trajectory.gt_return" in imported  # relative imports are seen
    assert "genil.reward_net" not in imported
