"""Environment correctness: tables, dynamics, rollouts, demo generation.

The GridNav optimal return is checked against an independent finite-horizon
dynamic-programming oracle implemented here, not against the library's own
value iteration code path.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from genil import envs
from genil.envs import (
    ENVIRONMENTS,
    ENV_GRIDNAV,
    ENV_POINTCHASE,
    GRID_FEATURE_DIM,
    GRID_GOAL,
    GRID_GOAL_REWARD,
    GRID_N_ACTIONS,
    GRID_N_STATES,
    GRID_PIT_REWARD,
    GRID_PITS,
    GRID_SIZE,
    GRID_START,
    GRID_STEP_REWARD,
    PC_ACTION_MAX,
    PC_DT,
    PC_FEATURE_DIM,
    PC_POS_MAX,
    PC_TARGET,
    PC_VEL_MAX,
    DemoPolicy,
    environment,
    gridnav_all_features,
    gridnav_cell_of,
    gridnav_features,
    gridnav_optimal_actions,
    gridnav_optimal_return,
    gridnav_reward_field,
    gridnav_transitions,
    make_demo_pair,
    make_eval_set,
    pointchase_linear_rollout,
    rollout,
)
from genil.baselines import BCPolicy
from genil.errors import ConfigError
from genil.mlp import MLP
from genil.policy_opt import PolicyArtifact
from genil.trajectory import gt_return, trajectories_equal
from reference_value_iteration import reference_optimal_actions

# Discounted return of the optimal GridNav policy at the default spec
# (horizon 50, discount 0.95), frozen from the finite-horizon DP oracle
# below.  A change here means the environment itself changed.
GRID_OPTIMAL_RETURN = 8.112135072599425


def _cell(x, y):
    return y * GRID_SIZE + x


# ---------------------------------------------------------------------------
# Specs


def test_make_spec_defaults():
    """One fixed spec per environment, with README's horizon and discount."""
    g = environment(ENV_GRIDNAV)
    assert (g.name, g.horizon, g.discount, g.feature_dim) == (
        ENV_GRIDNAV, 50, 0.95, GRID_FEATURE_DIM
    )
    p = environment(ENV_POINTCHASE)
    assert (p.name, p.horizon, p.discount, p.feature_dim) == (
        ENV_POINTCHASE, 100, 0.99, PC_FEATURE_DIM
    )
    assert environment(ENV_GRIDNAV) is g and environment(ENV_POINTCHASE) is p
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.horizon = 30


def test_spec_validation():
    with pytest.raises(ConfigError, match="unknown environment 'Atari'"):
        environment("Atari")


# ---------------------------------------------------------------------------
# GridNav tables


def test_reward_field_values():
    field = gridnav_reward_field()
    assert field[_cell(*GRID_GOAL)] == GRID_GOAL_REWARD
    for pit in GRID_PITS:
        assert field[_cell(*pit)] == GRID_PIT_REWARD
    plain = [
        s
        for s in range(GRID_N_STATES)
        if s != _cell(*GRID_GOAL) and s not in {_cell(*p) for p in GRID_PITS}
    ]
    assert all(field[s] == GRID_STEP_REWARD for s in plain)


def test_transitions_clamp_and_absorb():
    nxt = gridnav_transitions()
    # moving off the top edge stays in place
    assert nxt[_cell(3, 0), 0] == _cell(3, 0)
    # moving right off the edge stays in place
    assert nxt[_cell(7, 2), 1] == _cell(7, 2)
    # interior moves go one cell
    assert nxt[_cell(3, 3), 1] == _cell(4, 3)
    assert nxt[_cell(3, 3), 2] == _cell(3, 4)
    # goal is absorbing under every action
    assert np.all(nxt[_cell(*GRID_GOAL)] == _cell(*GRID_GOAL))


def test_features_one_hot_and_inverse():
    for cell in (0, 17, 63):
        f = gridnav_features(cell)
        assert f.shape == (GRID_FEATURE_DIM,)
        assert f[2 + cell] == 1.0
        assert f[2:].sum() == 1.0
        assert f[0] == (cell % GRID_SIZE) / (GRID_SIZE - 1)
        assert f[1] == (cell // GRID_SIZE) / (GRID_SIZE - 1)
        assert gridnav_cell_of(f) == cell
    assert gridnav_all_features().shape == (GRID_N_STATES, GRID_FEATURE_DIM)


def test_true_reward_fn_matches_field():
    field = gridnav_reward_field()
    scores = environment(ENV_GRIDNAV).true_reward(gridnav_all_features())
    assert np.array_equal(scores, field)


def test_true_reward_fn_pointchase():
    fn = environment(ENV_POINTCHASE).true_reward
    states = np.array([[0.0, 0.0, 1.0], [1.5, -0.2, -0.5], [1.0, 0.0, 0.0]])
    assert np.array_equal(fn(states), [-1.0, -0.5, 0.0])


# ---------------------------------------------------------------------------
# GridNav optimal return against an independent DP oracle


def _dp_optimal_return(spec):
    """Finite-horizon DP on the exact return convention: states s_0..s_{H-1}
    are scored, the action taken at s_{H-1} is never scored."""
    nxt = gridnav_transitions()
    rew = gridnav_reward_field()
    # best[s] after k iterations = max discounted return of a k-state window
    # starting at s
    best = rew.astype(float).copy()
    for _ in range(spec.horizon - 1):
        best = rew + spec.discount * best[nxt].max(axis=1)
    return float(best[_cell(*GRID_START)])


def test_optimal_return_matches_dp_oracle(grid_spec):
    dp = _dp_optimal_return(grid_spec)
    rolled = gridnav_optimal_return(grid_spec)
    assert rolled == pytest.approx(dp, abs=1e-12)
    assert rolled == pytest.approx(GRID_OPTIMAL_RETURN, abs=1e-12)


def test_optimal_actions_tie_break_lowest():
    # with discount 0 the greedy table maximizes immediate next value only;
    # the table must be deterministic and in range regardless
    table = gridnav_optimal_actions(0.95)
    assert table.shape == (GRID_N_STATES,)
    assert np.all((table >= 0) & (table < GRID_N_ACTIONS))
    # the optimal route from the start heads right or down, never up/left
    assert table[_cell(*GRID_START)] in (1, 2)


@pytest.mark.parametrize("discount", [0.0, 0.5, 0.9, 0.95, 0.99])
def test_optimal_actions_match_the_reference_oracle(discount):
    assert np.array_equal(gridnav_optimal_actions(discount), reference_optimal_actions(discount))


def test_optimal_actions_raise_when_unconverged(monkeypatch):
    monkeypatch.setattr(envs, "_OPTIMAL_ACTION_CACHE", {})
    monkeypatch.setattr(envs, "_VALUE_ITERATION_MAX_SWEEPS", 5)
    with pytest.raises(ConfigError, match="did not converge"):
        gridnav_optimal_actions(0.95)
    # nothing unconverged was cached
    assert envs._OPTIMAL_ACTION_CACHE == {}


# ---------------------------------------------------------------------------
# PointChase dynamics


def test_pointchase_euler_steps():
    env = environment(ENV_POINTCHASE)
    feats = env.start()
    assert np.array_equal(feats, [0.0, 0.0, 1.0])
    assert env.true_reward(feats)[0] == -1.0
    feats = env.step(feats, 1.0)
    assert feats[1] == pytest.approx(0.1)  # vel = 0 + 1 * dt
    assert feats[0] == pytest.approx(0.01)  # pos = 0 + 0.1 * dt
    assert feats[2] == pytest.approx(PC_TARGET - 0.01)
    assert env.true_reward(feats)[0] == pytest.approx(-(PC_TARGET - 0.01))
    # over-strength action is clipped to the action bound
    feats = env.step(feats, -5.0)
    assert feats[1] == pytest.approx(0.1 - PC_ACTION_MAX * PC_DT)


def test_pointchase_state_clipping():
    env = environment(ENV_POINTCHASE)
    feats = env.start()
    for _ in range(60):
        feats = env.step(feats, PC_ACTION_MAX)
    assert feats[1] == PC_VEL_MAX
    assert feats[0] <= PC_POS_MAX


def test_pointchase_step_scalar_path_matches_array_path():
    """PointChaseEnv.step clamps floats with min and max, the CEM population
    with np.clip; the two give the same bits at both walls, on -0.0 and on
    NaN."""
    nan, inf = float("nan"), float("inf")
    positions = [-PC_POS_MAX, -3.95, -0.0, 0.0, 3.95, PC_POS_MAX, nan]
    velocities = [-PC_VEL_MAX, -1.98, -0.0, 0.0, 1.98, PC_VEL_MAX, nan]
    actions = [-5.0, -PC_ACTION_MAX, -0.0, 0.0, 0.3, PC_ACTION_MAX, 5.0, nan, inf, -inf]
    cases = [(p, v, a) for p in positions for v in velocities for a in actions]
    want = np.stack(envs.pointchase_step(*map(np.array, zip(*cases))), axis=1)
    got = np.array([envs.pointchase_step(p, v, a) for p, v, a in cases])
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert (got == PC_POS_MAX).any() and (got == -PC_POS_MAX).any()
    assert np.signbit(got[(got == 0.0)]).any() and np.isnan(got).any()


def test_scalar_policy_clamps_match_np_clip(pc_spec):
    """DemoPolicy, PolicyArtifact and BCPolicy clamp their one float action
    with min and max; it keeps np.clip's bits at both walls, past them, on
    -0.0 and on NaN."""
    nan = float("nan")
    # pre-clamp values; the demo's is PC_KP * err - PC_KD * vel + noise with
    # PC_KP = 4, and at quality 0 its noise is a zero with the sign of the
    # normal draw (negative at seeds 4 and 5), so -0.0 reaches its clamp
    values = [-5.0, -PC_ACTION_MAX, -0.0, 0.0, 0.3, PC_ACTION_MAX, 5.0, nan]
    identity = MLP([3, 1], [np.array([[1.0], [0.0], [0.0]])], [np.array([-0.0])])
    linear = PolicyArtifact(pc_spec, np.array([1.0, 0.0, 0.0]))
    bc = BCPolicy(pc_spec, identity)
    demo = DemoPolicy(pc_spec, 0.0)
    got, want = [], []
    for v in values:
        feats = np.array([v, -0.0, -0.0])
        got += [linear.act(feats, None), bc.act(feats, None)]
        want.append(float(np.clip(linear.parameters @ feats, -PC_ACTION_MAX, PC_ACTION_MAX)))
        want.append(float(np.clip(identity.predict(feats[None, :])[0][0], -1.0, 1.0)))
        for seed in range(6):
            got.append(demo.act(np.array([0.0, 0.0, v / 4.0]), np.random.default_rng(seed)))
            noise = np.random.default_rng(seed).normal() * 3.0 * 0.0
            want.append(float(np.clip(4.0 * (v / 4.0) - 2.0 * 0.0 + noise, -1.0, 1.0)))
    assert all(type(a) is float for a in got)
    got, want = np.array(got), np.array(want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert (got == PC_ACTION_MAX).any() and (got == -PC_ACTION_MAX).any()
    assert np.signbit(got[got == 0.0]).any() and np.isnan(got).any()


def test_gridnav_action_validation():
    env = environment(ENV_GRIDNAV)
    with pytest.raises(ConfigError):
        env.step(env.start(), 4)


# ---------------------------------------------------------------------------
# Rollouts


def test_rollout_shapes_and_reward_convention(grid_spec, pc_spec):
    for spec in (grid_spec, pc_spec):
        traj = rollout(DemoPolicy(spec, 0.3), seed=3)
        assert len(traj) == spec.horizon
        assert traj.states.shape == (spec.horizon, spec.feature_dim)
        assert len(traj.actions) == spec.horizon
        # rewards[t] is the true reward of the state occupied at time t
        expected = spec.true_reward(traj.states)
        assert np.array_equal(traj.gt_step_rewards, expected)
    grid = rollout(DemoPolicy(grid_spec, 0.5), seed=0)
    assert grid.actions.dtype == np.int64
    pc = rollout(DemoPolicy(pc_spec, 0.5), seed=0)
    assert pc.actions.dtype == np.float64


def test_rollout_starts_at_start_cell(grid_spec):
    traj = rollout(DemoPolicy(grid_spec, 0.2), seed=9)
    assert gridnav_cell_of(traj.states[0]) == _cell(*GRID_START)


def test_rollout_determinism(grid_spec, pc_spec):
    for spec in (grid_spec, pc_spec):
        a = rollout(DemoPolicy(spec, 0.4), seed=5)
        b = rollout(DemoPolicy(spec, 0.4), seed=5)
        assert trajectories_equal(a, b)
        c = rollout(DemoPolicy(spec, 0.4), seed=6)
        assert not np.array_equal(a.actions, c.actions)


def test_rollout_meta_and_id(grid_spec):
    traj = rollout(DemoPolicy(grid_spec, 0.25), seed=2)
    assert traj.meta["quality"] == 0.25
    assert traj.meta["seed"] == 2
    assert traj.id == "demo-GridNav-q0.25-s2"
    assert traj.source == "demo"


def test_quality_zero_matches_optimal_rollout(grid_spec):
    traj = rollout(DemoPolicy(grid_spec, 0.0), seed=11)
    assert gt_return(traj, grid_spec.discount) == pytest.approx(
        GRID_OPTIMAL_RETURN, abs=1e-12
    )


@pytest.mark.parametrize("env_name", [ENV_GRIDNAV, ENV_POINTCHASE])
def test_quality_monotone_in_expectation(env_name):
    """Mean return at the better quality must not fall below the worse
    quality's mean by more than one-sided t slack at alpha=0.01."""
    spec = environment(env_name)
    n = 120

    def returns(quality):
        policy = DemoPolicy(spec, quality)
        return np.array(
            [gt_return(rollout(policy, seed=i), spec.discount) for i in range(n)]
        )

    lo, hi = returns(0.2), returns(0.8)
    se = np.sqrt(lo.var(ddof=1) / n + hi.var(ddof=1) / n)
    slack = stats.t.ppf(0.99, df=2 * n - 2) * se
    assert lo.mean() >= hi.mean() - slack
    # at this quality gap the ordering should in fact be strict
    assert lo.mean() > hi.mean()


# ---------------------------------------------------------------------------
# Demo pairs and eval sets


def test_make_demo_pair_ordering_and_ids(grid_spec, pc_spec):
    for spec in (grid_spec, pc_spec):
        good, bad = make_demo_pair(spec, 0.1, 0.5, seed=4)
        assert gt_return(good, spec.discount) > gt_return(bad, spec.discount)
        assert (good.id, bad.id) == ("demo-good", "demo-bad")
        assert good.meta["quality"] == 0.1
        assert bad.meta["quality"] == 0.5


def test_make_demo_pair_deterministic(grid_spec):
    a = make_demo_pair(grid_spec, 0.1, 0.5, seed=8)
    b = make_demo_pair(grid_spec, 0.1, 0.5, seed=8)
    assert trajectories_equal(a[0], b[0])
    assert trajectories_equal(a[1], b[1])


def test_make_demo_pair_rejects_unordered_qualities(grid_spec):
    with pytest.raises(ValueError):
        make_demo_pair(grid_spec, 0.5, 0.5, seed=0)
    with pytest.raises(ValueError):
        make_demo_pair(grid_spec, 0.6, 0.2, seed=0)


def test_make_eval_set_contents(grid_spec):
    ev = make_eval_set(grid_spec, [0.0, 0.3], 4, seed=7)
    assert len(ev) == 8
    assert [t.id for t in ev[:4]] == [f"eval-q0-{i}" for i in range(4)]
    assert all(t.source == "eval" for t in ev)
    again = make_eval_set(grid_spec, [0.0, 0.3], 4, seed=7)
    assert all(trajectories_equal(a, b) for a, b in zip(ev, again))


def test_make_eval_set_rejects_empty_qualities(grid_spec):
    with pytest.raises(ValueError):
        make_eval_set(grid_spec, [], 3, seed=0)


# ---------------------------------------------------------------------------
# Property checks on raw dynamics


@settings(max_examples=25, deadline=None)
@given(actions=st.lists(st.integers(0, 3), min_size=1, max_size=30))
def test_gridnav_stays_on_grid(actions):
    env = environment(ENV_GRIDNAV)
    feats = env.start()
    for a in actions:
        assert 0 <= gridnav_cell_of(feats) < GRID_N_STATES
        assert np.all(np.isfinite(feats))
        feats = env.step(feats, a)


@settings(max_examples=25, deadline=None)
@given(
    actions=st.lists(
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    )
)
def test_pointchase_respects_state_bounds(actions):
    env = environment(ENV_POINTCHASE)
    feats = env.start()
    for a in actions:
        feats = env.step(feats, a)
        assert abs(feats[0]) <= PC_POS_MAX
        assert abs(feats[1]) <= PC_VEL_MAX
        assert feats[2] == PC_TARGET - feats[0]


def _actions(name):
    if name == ENV_GRIDNAV:
        return st.integers(0, GRID_N_ACTIONS - 1)
    return st.floats(-5, 5, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(ENVIRONMENTS)))
def test_step_is_a_pure_function_of_state_and_action(data, name):
    """Stepping twice from one reachable state with one action gives the
    same bytes, and leaves the state and the environment object as they
    were: an episode's state lives in rollout alone."""
    env = ENVIRONMENTS[name]
    state = env.start()
    for a in data.draw(st.lists(_actions(name), max_size=30), label="path"):
        state = env.step(state, a)
    action = data.draw(_actions(name), label="action")
    state_bytes, env_bytes = state.tobytes(), pickle.dumps(vars(env))
    first, second = env.step(state, action), env.step(state, action)
    assert first.tobytes() == second.tobytes()
    assert state.tobytes() == state_bytes
    assert pickle.dumps(vars(env)) == env_bytes


# Gains that drive the point into each wall at full speed: the first row's
# action is 50 * pos + 50 * (target - pos) = 50, the second's
# -50 * (target - pos) < 0 while pos < target; both clip on every step.
WALL_GAINS = [[50.0, 0.0, 50.0], [0.0, 0.0, -50.0]]


def test_wall_gains_reach_both_clips(pc_spec):
    states = pointchase_linear_rollout(pc_spec, np.array(WALL_GAINS))
    walls = [[PC_POS_MAX, PC_VEL_MAX], [-PC_POS_MAX, -PC_VEL_MAX]]
    assert np.array_equal(states[:, -1, :2], walls)


@settings(max_examples=40, deadline=None)
@given(
    gains=st.lists(
        st.lists(
            st.floats(-60, 60, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
        ),
        min_size=1,
        max_size=6,
    ),
    horizon=st.integers(2, 120),
)
@example(gains=WALL_GAINS, horizon=100)
def test_population_rollout_matches_per_step_rollouts(gains, horizon):
    spec = dataclasses.replace(environment(ENV_POINTCHASE), horizon=horizon)
    gains = np.array(gains)
    population = pointchase_linear_rollout(spec, gains)
    per_candidate = np.stack([rollout(PolicyArtifact(spec, g), seed=0).states for g in gains])
    assert population.shape == (len(gains), horizon, PC_FEATURE_DIM)
    assert np.array_equal(population, per_candidate)


@pytest.mark.parametrize("name", [ENV_GRIDNAV, ENV_POINTCHASE])
def test_check_actions_takes_every_rollout_action(name):
    spec = environment(name)
    for quality in (0.0, 0.5, 1.0):
        spec.check_actions(rollout(DemoPolicy(spec, quality), seed=3).actions)


@pytest.mark.parametrize(
    "name, actions",
    [
        (ENV_GRIDNAV, np.array([0, 4])),
        (ENV_GRIDNAV, np.array([-1])),
        (ENV_GRIDNAV, np.array([1.0])),
        (ENV_POINTCHASE, np.array([0.5, 1.5])),
        (ENV_POINTCHASE, np.array([-2])),
        (ENV_POINTCHASE, np.array([np.nan])),
        (ENV_POINTCHASE, np.array([-np.inf])),
    ],
)
def test_check_actions_refuses_what_step_cannot_take(name, actions):
    with pytest.raises(ValueError, match=f"{name} actions must be"):
        envs.environment(name).check_actions(actions)


def per_row_bc_grad(name, out, actions):
    """The batch-mean gradient at each row of one batch's outputs (B, n_out),
    as one clone computed it before clones were stacked."""
    if name == ENV_GRIDNAV:
        probs = np.exp(out - out.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(len(actions)), actions.astype(int)] -= 1.0
        probs /= len(actions)
        return probs
    return 2.0 * (out - actions[:, None]) / len(actions)


@pytest.mark.parametrize("name", [ENV_GRIDNAV, ENV_POINTCHASE])
def test_stacked_bc_grad_is_each_clones_own(name):
    """A stack of clones' batches gets, clone by clone, the bits of one
    batch's gradient."""
    env = envs.environment(name)
    rng = np.random.default_rng(0)
    n_clones, size = 3, 12
    out = rng.normal(size=(n_clones, size, env.bc_out_dim))
    if name == ENV_GRIDNAV:
        actions = rng.integers(GRID_N_ACTIONS, size=(n_clones, size))
    else:
        actions = rng.uniform(-1.0, 1.0, size=(n_clones, size))
    stacked = env.bc_grad(out, actions)
    for k in range(n_clones):
        assert np.array_equal(stacked[k], per_row_bc_grad(name, out[k], actions[k]))
        assert np.array_equal(env.bc_grad(out[k], actions[k]), stacked[k])
