"""Environment correctness: tables, dynamics, rollouts, demo generation.

The GridNav optimal return is checked against an independent finite-horizon
dynamic-programming oracle implemented here, not against the library's own
value iteration code path.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from genil import envs
from genil.envs import (
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
    EnvSpec,
    GridNavEnv,
    PointChaseEnv,
    gridnav_all_features,
    gridnav_cell_of,
    gridnav_features,
    gridnav_optimal_actions,
    gridnav_optimal_return,
    gridnav_reward_field,
    gridnav_transitions,
    make_demo_pair,
    make_env,
    make_eval_set,
    make_spec,
    pointchase_linear_rollout,
    rollout,
    true_reward_fn,
)
from genil.baselines import BCPolicy
from genil.errors import ConfigError
from genil.mlp import MLP
from genil.policy_opt import LinearPolicy
from genil.trajectory import gt_return, trajectories_equal

# Discounted return of the optimal GridNav policy at the default spec
# (horizon 50, discount 0.95), frozen from the finite-horizon DP oracle
# below.  A change here means the environment itself changed.
GRID_OPTIMAL_RETURN = 8.112135072599425


def _cell(x, y):
    return y * GRID_SIZE + x


# ---------------------------------------------------------------------------
# Specs


def test_make_spec_defaults():
    g = make_spec(ENV_GRIDNAV)
    assert (g.horizon, g.discount, g.feature_dim) == (50, 0.95, GRID_FEATURE_DIM)
    p = make_spec(ENV_POINTCHASE)
    assert (p.horizon, p.discount, p.feature_dim) == (100, 0.99, PC_FEATURE_DIM)


def test_make_spec_overrides():
    s = make_spec(ENV_GRIDNAV, horizon=30, discount=0.9)
    assert (s.horizon, s.discount) == (30, 0.9)


def test_spec_validation():
    with pytest.raises(ConfigError):
        make_spec("Atari")
    with pytest.raises(ConfigError):
        make_spec(ENV_GRIDNAV, horizon=1)
    with pytest.raises(ConfigError):
        make_spec(ENV_GRIDNAV, discount=1.0)
    with pytest.raises(ConfigError):
        EnvSpec(name=ENV_GRIDNAV, horizon=50, discount=0.95, feature_dim=3)


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
    scores = true_reward_fn(make_spec(ENV_GRIDNAV))(gridnav_all_features())
    assert np.array_equal(scores, field)


def test_true_reward_fn_pointchase():
    fn = true_reward_fn(make_spec(ENV_POINTCHASE))
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


def test_optimal_actions_raise_when_unconverged(monkeypatch):
    monkeypatch.setattr(envs, "_OPTIMAL_ACTION_CACHE", {})
    monkeypatch.setattr(envs, "_OPTIMAL_ACTION_MAX_ITERS", 5)
    with pytest.raises(ConfigError, match="did not converge"):
        gridnav_optimal_actions(0.95)
    # nothing unconverged was cached
    assert envs._OPTIMAL_ACTION_CACHE == {}


# ---------------------------------------------------------------------------
# PointChase dynamics


def test_pointchase_euler_steps():
    env = PointChaseEnv(make_spec(ENV_POINTCHASE), seed=0)
    feats = env.reset()
    assert np.array_equal(feats, [0.0, 0.0, 1.0])
    assert env.current_reward() == -1.0
    feats, reward, done = env.step(1.0)
    assert feats[1] == pytest.approx(0.1)  # vel = 0 + 1 * dt
    assert feats[0] == pytest.approx(0.01)  # pos = 0 + 0.1 * dt
    assert feats[2] == pytest.approx(PC_TARGET - 0.01)
    assert reward == pytest.approx(-(PC_TARGET - 0.01))
    assert not done
    # over-strength action is clipped to the action bound
    feats, _, _ = env.step(-5.0)
    assert feats[1] == pytest.approx(0.1 - PC_ACTION_MAX * PC_DT)


def test_pointchase_state_clipping():
    env = PointChaseEnv(make_spec(ENV_POINTCHASE), seed=0)
    env.reset()
    for _ in range(60):
        feats, _, _ = env.step(PC_ACTION_MAX)
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
    """DemoPolicy, LinearPolicy and BCPolicy clamp their one float action
    with min and max; it keeps np.clip's bits at both walls, past them, on
    -0.0 and on NaN."""
    nan = float("nan")
    # pre-clamp values; the demo's is PC_KP * err - PC_KD * vel + noise with
    # PC_KP = 4, and at quality 0 its noise is a zero with the sign of the
    # normal draw (negative at seeds 4 and 5), so -0.0 reaches its clamp
    values = [-5.0, -PC_ACTION_MAX, -0.0, 0.0, 0.3, PC_ACTION_MAX, 5.0, nan]
    identity = MLP([3, 1], [np.array([[1.0], [0.0], [0.0]])], [np.array([-0.0])])
    linear = LinearPolicy(pc_spec, np.array([1.0, 0.0, 0.0]))
    bc = BCPolicy(pc_spec, identity)
    demo = DemoPolicy(pc_spec, 0.0)
    got, want = [], []
    for v in values:
        feats = np.array([v, -0.0, -0.0])
        got += [linear.act(feats, None), bc.act(feats, None)]
        want.append(float(np.clip(linear.gains @ feats, -PC_ACTION_MAX, PC_ACTION_MAX)))
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


def test_pointchase_linear_rollout_requires_pointchase(grid_spec):
    with pytest.raises(ConfigError):
        pointchase_linear_rollout(grid_spec, np.zeros((2, 3)))


def test_gridnav_action_validation(grid_spec):
    env = GridNavEnv(grid_spec, seed=0)
    env.reset()
    with pytest.raises(ConfigError):
        env.step(4)


# ---------------------------------------------------------------------------
# Rollouts


def test_rollout_shapes_and_reward_convention(grid_spec, pc_spec):
    for spec in (grid_spec, pc_spec):
        env = make_env(spec, seed=3)
        traj = rollout(env, DemoPolicy(spec, 0.3), seed=3)
        assert len(traj) == spec.horizon
        assert traj.states.shape == (spec.horizon, spec.feature_dim)
        assert len(traj.actions) == spec.horizon
        # rewards[t] is the true reward of the state occupied at time t
        expected = true_reward_fn(spec)(traj.states)
        assert np.array_equal(traj.gt_step_rewards, expected)
    grid = rollout(make_env(grid_spec, 0), DemoPolicy(grid_spec, 0.5), seed=0)
    assert grid.actions.dtype == np.int64
    pc = rollout(make_env(pc_spec, 0), DemoPolicy(pc_spec, 0.5), seed=0)
    assert pc.actions.dtype == np.float64


def test_rollout_starts_at_start_cell(grid_spec):
    traj = rollout(make_env(grid_spec, 0), DemoPolicy(grid_spec, 0.2), seed=9)
    assert gridnav_cell_of(traj.states[0]) == _cell(*GRID_START)


def test_rollout_determinism(grid_spec, pc_spec):
    for spec in (grid_spec, pc_spec):
        a = rollout(make_env(spec, 5), DemoPolicy(spec, 0.4), seed=5)
        b = rollout(make_env(spec, 5), DemoPolicy(spec, 0.4), seed=5)
        assert trajectories_equal(a, b)
        c = rollout(make_env(spec, 5), DemoPolicy(spec, 0.4), seed=6)
        assert not np.array_equal(a.actions, c.actions)


def test_rollout_meta_and_id(grid_spec):
    traj = rollout(make_env(grid_spec, 2), DemoPolicy(grid_spec, 0.25), seed=2)
    assert traj.meta["quality"] == 0.25
    assert traj.meta["seed"] == 2
    assert traj.id == "demo-GridNav-q0.25-s2"
    assert traj.source == "demo"


def test_quality_zero_matches_optimal_rollout(grid_spec):
    traj = rollout(make_env(grid_spec, 0), DemoPolicy(grid_spec, 0.0), seed=11)
    assert gt_return(traj, grid_spec.discount) == pytest.approx(
        GRID_OPTIMAL_RETURN, abs=1e-12
    )


@pytest.mark.parametrize("env_name", [ENV_GRIDNAV, ENV_POINTCHASE])
def test_quality_monotone_in_expectation(env_name):
    """Mean return at the better quality must not fall below the worse
    quality's mean by more than one-sided t slack at alpha=0.01."""
    spec = make_spec(env_name)
    n = 120

    def returns(quality):
        policy = DemoPolicy(spec, quality)
        env = make_env(spec, seed=0)
        return np.array(
            [gt_return(rollout(env, policy, seed=i), spec.discount) for i in range(n)]
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
    env = GridNavEnv(make_spec(ENV_GRIDNAV), seed=0)
    feats = env.reset()
    for a in actions:
        assert 0 <= gridnav_cell_of(feats) < GRID_N_STATES
        assert np.all(np.isfinite(feats))
        feats, _, _ = env.step(a)


@settings(max_examples=25, deadline=None)
@given(
    actions=st.lists(
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    )
)
def test_pointchase_respects_state_bounds(actions):
    env = PointChaseEnv(make_spec(ENV_POINTCHASE), seed=0)
    env.reset()
    for a in actions:
        feats, _, _ = env.step(a)
        assert abs(feats[0]) <= PC_POS_MAX
        assert abs(feats[1]) <= PC_VEL_MAX
        assert feats[2] == PC_TARGET - feats[0]


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
    spec = make_spec(ENV_POINTCHASE, horizon=horizon)
    gains = np.array(gains)
    population = pointchase_linear_rollout(spec, gains)
    per_candidate = np.stack(
        [rollout(PointChaseEnv(spec, seed=0), LinearPolicy(spec, g), seed=0).states for g in gains]
    )
    assert population.shape == (len(gains), horizon, PC_FEATURE_DIM)
    assert np.array_equal(population, per_candidate)
