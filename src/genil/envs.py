"""Benchmark environments with known ground-truth rewards.

Two deterministic environments are provided:

GridNav
    An 8x8 grid with a fixed start cell, an absorbing goal cell worth +1 per
    step, three pit cells worth -1, and a -0.01 step cost everywhere else.
    Four clamped move actions (0=up, 1=right, 2=down, 3=left).  State
    features are the normalized (x, y) coordinates followed by a one-hot
    cell encoding, so the true reward is linear in the features.  One
    value iteration, gridnav_greedy_actions, builds both the optimal
    demonstrator and the policy of a learned reward.

PointChase
    A 1-d double integrator chasing a fixed target.  Actions are clipped
    accelerations, dynamics are Euler-integrated at dt=0.1, and the reward
    is the negative distance to the target.  Features are
    (position, velocity, target - position).  The dynamics are defined
    once, by pointchase_step, which works on floats and on arrays alike:
    PointChaseEnv.step applies it to one state, and
    pointchase_linear_rollout applies it to a whole population of linear
    feedback policies in lockstep.

All stochasticity lives in the demonstration policies; the environments
themselves are deterministic, so a rollout is a pure function of
(policy, seed).  Demonstration quality is a scalar knob in [0, 1]:
0 is the optimal policy for the environment, 1 is (close to) uniform
random, and expected return degrades monotonically in between.

Each environment is one frozen dataclass with one instance in
ENVIRONMENTS.  An environment is its own spec: every parameter or
attribute named spec holds the environment itself, and
dataclasses.replace(spec, horizon=...) gives a shorter episode.
environment(name) looks it up only where a name comes from outside the
program (a config's [env] name, a policy.json's env); nothing else in
genil branches on a name.  GridNav runs 50 steps at discount 0.95,
PointChase 100 at 0.99.  A third environment is one more class there
that defines:

- name, horizon, discount and feature_dim, its fields;
- start(), step(state, action): the first state, and the next state
  as a pure function of a state and an action; the episode itself lives
  in rollout, and the object holds none of it;
- true_reward(features), on a state batch;
- action_dtype, random_action(rng), demo_action(features, quality, rng);
- parameter_dtype, policy_act(parameters, features), check_parameters(values);
- check_actions(actions), which refuses a loaded trajectory's actions
  unless step could take them;
- bc_out_dim, bc_action(out), bc_grad(out, actions), for behavioral
  cloning (bc_grad takes a batch's outputs, or a stack of clones' batches);
- derive_policy(reward, section, seed), the policy its
  [policy] section derives from a reward (a function from a state batch to
  its rewards), and check_policy(section), which refuses at config load a
  section that derive_policy could not run.

States are plain float64 feature vectors; trajectories stack them row-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDemoError
from .seeding import derive_seed
from .trajectory import Trajectory, gt_return

ENV_GRIDNAV = "GridNav"
ENV_POINTCHASE = "PointChase"

# GridNav geometry and reward field (fixed; exact oracles depend on it).
GRID_SIZE = 8
GRID_N_STATES = GRID_SIZE * GRID_SIZE
GRID_START = (0, 0)
GRID_GOAL = (7, 7)
GRID_PITS = ((2, 2), (3, 5), (5, 3))
GRID_GOAL_REWARD = 1.0
GRID_PIT_REWARD = -1.0
GRID_STEP_REWARD = -0.01
GRID_N_ACTIONS = 4
GRID_FEATURE_DIM = 2 + GRID_N_STATES

# PointChase dynamics constants.
PC_DT = 0.1
PC_TARGET = 1.0
PC_START_POS = 0.0
PC_START_VEL = 0.0
PC_ACTION_MAX = 1.0
PC_VEL_MAX = 2.0
PC_POS_MAX = 4.0
PC_KP = 4.0
PC_KD = 2.0
PC_NOISE_SCALE = 3.0
PC_FEATURE_DIM = 3


# ---------------------------------------------------------------------------
# GridNav tables


def _cell_index(x: int, y: int) -> int:
    return y * GRID_SIZE + x


def gridnav_reward_field() -> np.ndarray:
    """Per-cell reward, indexed by cell = y*8 + x."""
    field = np.full(GRID_N_STATES, GRID_STEP_REWARD)
    for (px, py) in GRID_PITS:
        field[_cell_index(px, py)] = GRID_PIT_REWARD
    field[_cell_index(*GRID_GOAL)] = GRID_GOAL_REWARD
    return field


def gridnav_transitions() -> np.ndarray:
    """Deterministic next-cell table of shape (64, 4); the goal is absorbing."""
    table = np.empty((GRID_N_STATES, GRID_N_ACTIONS), dtype=np.int64)
    goal = _cell_index(*GRID_GOAL)
    for y in range(GRID_SIZE):
        for x in range(GRID_SIZE):
            s = _cell_index(x, y)
            if s == goal:
                table[s, :] = goal
                continue
            table[s, 0] = _cell_index(x, max(0, y - 1))
            table[s, 1] = _cell_index(min(GRID_SIZE - 1, x + 1), y)
            table[s, 2] = _cell_index(x, min(GRID_SIZE - 1, y + 1))
            table[s, 3] = _cell_index(max(0, x - 1), y)
    return table


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


# The tables step, true_reward and value iteration share: each cell's next
# cell per action, the same by action (an action's next cells a row), and
# each cell's reward.
GRID_NEXT = _read_only(gridnav_transitions())
GRID_NEXT_BY_ACTION = _read_only(np.ascontiguousarray(GRID_NEXT.T))
GRID_REWARD = _read_only(gridnav_reward_field())


def gridnav_features(cell: int) -> np.ndarray:
    x = cell % GRID_SIZE
    y = cell // GRID_SIZE
    feats = np.zeros(GRID_FEATURE_DIM)
    feats[0] = x / (GRID_SIZE - 1)
    feats[1] = y / (GRID_SIZE - 1)
    feats[2 + cell] = 1.0
    return feats


def gridnav_all_features() -> np.ndarray:
    return np.stack([gridnav_features(s) for s in range(GRID_N_STATES)])


def gridnav_cell_of(features: np.ndarray) -> int:
    return int(features[2:].argmax())


_OPTIMAL_ACTION_CACHE: dict[float, np.ndarray] = {}
_VALUE_ITERATION_MAX_SWEEPS = 1_000_000


def gridnav_greedy_actions(rewards: np.ndarray, discount: float, tol: float) -> np.ndarray:
    """Greedy action table from value iteration on per-cell rewards.

    Sweeps V <- r + discount * max_a V[next] (the bits of max_a of
    r + discount * V[next], as rounding is monotone) from V = 0 until the
    sup-norm change is below tol, then takes the action to the best next
    cell, ties toward the lowest index.  Raises ConfigError when that
    takes more than _VALUE_ITERATION_MAX_SWEEPS sweeps.
    """
    values = np.zeros(GRID_N_STATES)
    for _ in range(_VALUE_ITERATION_MAX_SWEEPS):
        new = rewards + discount * values[GRID_NEXT_BY_ACTION].max(axis=0)
        residual = np.abs(new - values).max()
        values = new
        if residual < tol:
            return np.argmax(values[GRID_NEXT], axis=1).astype(np.int64)
    raise ConfigError(
        f"value iteration at discount {discount} did not converge to residual "
        f"{tol} within {_VALUE_ITERATION_MAX_SWEEPS} sweeps"
    )


def gridnav_optimal_actions(discount: float) -> np.ndarray:
    """Optimal action table: gridnav_greedy_actions on the true reward at
    tol 1e-13, cached per discount."""
    table = _OPTIMAL_ACTION_CACHE.get(discount)
    if table is None:
        table = _OPTIMAL_ACTION_CACHE[discount] = gridnav_greedy_actions(
            GRID_REWARD, discount, 1e-13
        )
    return table


def gridnav_optimal_return(spec: GridNavEnv) -> float:
    """Return of the greedy-optimal policy over one episode."""
    return gt_return(rollout(DemoPolicy(spec, 0.0), seed=0), spec.discount)


# ---------------------------------------------------------------------------
# Environments


@dataclass(frozen=True)
class GridNavEnv:
    """Deterministic grid walk; see the module docstring for the rules.  A
    policy is an action per cell, derived by value iteration."""

    name: str = ENV_GRIDNAV
    horizon: int = 50
    discount: float = 0.95
    feature_dim: int = GRID_FEATURE_DIM

    action_dtype = parameter_dtype = np.int64
    bc_out_dim = GRID_N_ACTIONS

    def start(self) -> np.ndarray:
        return gridnav_features(_cell_index(*GRID_START))

    def step(self, state: np.ndarray, action: int) -> np.ndarray:
        if not 0 <= int(action) < GRID_N_ACTIONS:
            raise ConfigError(f"GridNav action must be in [0, 4), got {action}")
        return gridnav_features(int(GRID_NEXT[gridnav_cell_of(state), int(action)]))

    def true_reward(self, features: np.ndarray) -> np.ndarray:
        return np.atleast_2d(features)[:, 2:] @ GRID_REWARD

    def random_action(self, rng: np.random.Generator) -> int:
        return int(rng.integers(GRID_N_ACTIONS))

    def demo_action(self, features: np.ndarray, quality: float, rng: np.random.Generator) -> int:
        """Epsilon-greedy, with epsilon = quality, over the optimal action table."""
        if rng.random() < quality:
            return self.random_action(rng)
        return int(gridnav_optimal_actions(self.discount)[gridnav_cell_of(features)])

    def policy_act(self, parameters: np.ndarray, features: np.ndarray) -> int:
        return int(parameters[gridnav_cell_of(features)])

    def check_parameters(self, values) -> None:
        ok = isinstance(values, list) and len(values) == GRID_N_STATES
        if not (ok and all(type(v) is int and 0 <= v < GRID_N_ACTIONS for v in values)):
            raise ValueError("GridNav policy parameters must be 64 integers in [0, 4)")

    def check_actions(self, actions: np.ndarray) -> None:
        ok = np.issubdtype(actions.dtype, np.integer)
        if not (ok and np.all((0 <= actions) & (actions < GRID_N_ACTIONS))):
            raise ValueError("GridNav actions must be integers in [0, 4)")

    def bc_action(self, out: np.ndarray) -> int:
        return int(np.argmax(out))

    def bc_grad(self, out: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Gradient of the batch-mean softmax cross-entropy of the actions,
        at each batch row's outputs (the last two axes of out)."""
        probs = np.exp(out - out.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        probs -= actions[..., None] == np.arange(GRID_N_ACTIONS)
        probs /= actions.shape[-1]
        return probs

    def derive_policy(self, reward, section, seed: int):
        """Value iteration at section's discount and tol; seed goes unread."""
        from .policy_opt import value_iteration  # at call time: policy_opt imports envs

        return value_iteration(self, reward, section.discount, section.tol)

    def check_policy(self, section) -> None:
        # value iteration needs about log(tol) / log(discount) sweeps to reach tol
        if section.discount**_VALUE_ITERATION_MAX_SWEEPS > section.tol:
            raise ConfigError(
                f"[policy] discount {section.discount} with [policy] tol {section.tol} "
                f"needs more than {_VALUE_ITERATION_MAX_SWEEPS} value-iteration sweeps"
            )


def _clamp(x, lo, hi):
    """np.clip(x, lo, hi) for one float without a ufunc call.  Both take the
    max with lo, then the min with hi, and pass a NaN or a signed zero x
    through; they part only on a tie at a zero bound, and no bound here is
    zero."""
    return min(max(x, lo), hi)


def pointchase_step(pos, vel, action):
    """One clipped Euler step of the double integrator: (pos, vel) -> (pos, vel).

    Works on floats and elementwise on equal-shape arrays: a float pos is
    clipped with Python's min and max, which give np.clip's bits.
    """
    clip = np.clip if isinstance(pos, np.ndarray) else _clamp
    a = clip(action, -PC_ACTION_MAX, PC_ACTION_MAX)
    vel = clip(vel + a * PC_DT, -PC_VEL_MAX, PC_VEL_MAX)
    pos = clip(pos + vel * PC_DT, -PC_POS_MAX, PC_POS_MAX)
    return pos, vel


def _pointchase_state(pos: float, vel: float) -> np.ndarray:
    return np.array([pos, vel, PC_TARGET - pos])


def pointchase_linear_rollout(spec: PointChaseEnv, gains: np.ndarray) -> np.ndarray:
    """States of one episode per row of (P, 3) linear feedback gains, (P, horizon, 3).

    All P episodes advance in lockstep through pointchase_step, which
    clips the action as PointChaseEnv.policy_act does.  Each action is
    one dot product per candidate (a stacked (1, 3) @ (3, 1) matmul, one
    BLAS ddot like `gains[p] @ feats`), so row p equals the states of
    rollout(PolicyArtifact(spec, gains[p]), seed) bit for bit.
    """
    n = len(gains)
    states = np.empty((n, spec.horizon, PC_FEATURE_DIM))
    pos = np.full(n, PC_START_POS)
    vel = np.full(n, PC_START_VEL)
    for t in range(spec.horizon):
        feats = states[:, t]
        feats[:, 0] = pos
        feats[:, 1] = vel
        feats[:, 2] = PC_TARGET - pos
        action = np.matmul(gains[:, None, :], feats[:, :, None])[:, 0, 0]
        pos, vel = pointchase_step(pos, vel, action)
    return states


@dataclass(frozen=True)
class PointChaseEnv:
    """1-d chase toward a fixed target with clipped double-integrator
    dynamics.  A policy is linear feedback gains, derived by CEM."""

    name: str = ENV_POINTCHASE
    horizon: int = 100
    discount: float = 0.99
    feature_dim: int = PC_FEATURE_DIM

    action_dtype = parameter_dtype = np.float64
    bc_out_dim = 1

    def start(self) -> np.ndarray:
        return _pointchase_state(PC_START_POS, PC_START_VEL)

    def step(self, state: np.ndarray, action: float) -> np.ndarray:
        pos, vel = pointchase_step(float(state[0]), float(state[1]), action)
        return _pointchase_state(pos, vel)

    def true_reward(self, features: np.ndarray) -> np.ndarray:
        return -np.abs(np.atleast_2d(features)[:, 2])

    def random_action(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(-PC_ACTION_MAX, PC_ACTION_MAX))

    def demo_action(self, features: np.ndarray, quality: float, rng: np.random.Generator) -> float:
        """A PD controller plus Gaussian action noise of scale 3 * quality."""
        _, vel, err = features
        noise = rng.normal() * PC_NOISE_SCALE * quality
        return float(_clamp(PC_KP * err - PC_KD * vel + noise, -PC_ACTION_MAX, PC_ACTION_MAX))

    def policy_act(self, parameters: np.ndarray, features: np.ndarray) -> float:
        return float(_clamp(parameters @ features, -PC_ACTION_MAX, PC_ACTION_MAX))

    def check_parameters(self, values) -> None:
        ok = isinstance(values, list) and len(values) == PC_FEATURE_DIM
        if not (ok and all(type(v) in (int, float) and math.isfinite(v) for v in values)):
            raise ValueError("PointChase policy parameters must be 3 finite numbers")

    def check_actions(self, actions: np.ndarray) -> None:
        if not np.all(np.abs(actions) <= PC_ACTION_MAX):  # False for NaN and inf too
            raise ValueError("PointChase actions must be finite numbers in [-1, 1]")

    def bc_action(self, out: np.ndarray) -> float:
        return float(_clamp(out[0], -PC_ACTION_MAX, PC_ACTION_MAX))

    def bc_grad(self, out: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Gradient of the batch-mean squared error of the actions, at each
        batch row's output (the last two axes of out)."""
        return 2.0 * (out - actions[..., None]) / actions.shape[-1]

    def derive_policy(self, reward, section, seed: int):
        """CEM on reward at section's population size and iteration count."""
        from .policy_opt import cem_search  # at call time: policy_opt imports envs

        return cem_search(self, reward, section.cem(), seed)

    def check_policy(self, section) -> None:
        """Any section will do: CEM reads neither discount nor tol."""


Environment = GridNavEnv | PointChaseEnv

ENVIRONMENTS: dict[str, Environment] = {env.name: env for env in (GridNavEnv(), PointChaseEnv())}


def environment(name: str) -> Environment:
    """The environment called name, from ENVIRONMENTS."""
    if name not in ENVIRONMENTS:
        raise ConfigError(f"unknown environment {name!r}; choose from {tuple(ENVIRONMENTS)}")
    return ENVIRONMENTS[name]


# ---------------------------------------------------------------------------
# Demonstration policies


@dataclass
class DemoPolicy:
    """Scalar-quality stand-in for agents of diverse performance: its
    environment's demo_action, optimal at quality 0 and random at 1."""

    spec: Environment
    quality: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality <= 1.0:
            raise ConfigError(f"quality must lie in [0, 1], got {self.quality}")

    def act(self, features: np.ndarray, rng: np.random.Generator):
        return self.spec.demo_action(features, self.quality, rng)


def rollout(
    policy,
    seed: int,
    source: str = "demo",
    traj_id: str | None = None,
    extra_meta: dict | None = None,
) -> Trajectory:
    """Record one episode of policy in its own environment, policy.spec:
    T states, T actions, T per-state rewards.

    The episode starts at the environment's start() and takes one
    step(state, action) per recorded state; the environment holds no state
    of its own.  The reward at index t is the ground-truth reward of the
    state occupied at time t, so the discounted return matches
    sum_t discount^t * R(s_t), and the episode runs spec.horizon steps.
    Any object whose `spec` attribute is an environment, and that has an
    `act(features, rng)` method, can serve as the policy.
    """
    spec = policy.spec
    # the leading 0 keeps the stream every recorded episode was drawn from
    rng = np.random.default_rng([0, derive_seed(seed, "rollout")])
    state = spec.start()
    states = np.empty((spec.horizon, spec.feature_dim))
    actions: list = []
    for t in range(spec.horizon):
        states[t] = state
        action = policy.act(state, rng)
        actions.append(action)
        state = spec.step(state, action)
    action_arr = np.asarray(actions, dtype=spec.action_dtype)
    quality = getattr(policy, "quality", None)
    if traj_id is None:
        qtag = "" if quality is None else f"-q{quality:g}"
        traj_id = f"{source}-{spec.name}{qtag}-s{seed}"
    meta: dict = {} if quality is None else {"quality": quality}
    meta["seed"] = seed
    if extra_meta:
        meta.update(extra_meta)
    return Trajectory(
        id=traj_id,
        env=spec.name,
        states=states,
        actions=action_arr,
        gt_step_rewards=spec.true_reward(states),
        step_ranks=None,
        source=source,
        meta=meta,
    )


# fresh seed pairs make_demo_pair tries before it gives up
DEMO_PAIR_ATTEMPTS = 20


def make_demo_pair(
    spec: Environment,
    good_quality: float,
    bad_quality: float,
    seed: int,
) -> tuple[Trajectory, Trajectory]:
    """Two demos whose ground-truth returns respect the quality ordering.

    Retries with fresh derived seeds until gt_return(good) > gt_return(bad).
    """
    if not bad_quality > good_quality:
        raise ValueError(
            f"bad_quality ({bad_quality}) must exceed good_quality ({good_quality})"
        )
    good_policy = DemoPolicy(spec, good_quality)
    bad_policy = DemoPolicy(spec, bad_quality)
    for attempt in range(DEMO_PAIR_ATTEMPTS):
        good = rollout(good_policy, derive_seed(seed, "good", attempt), traj_id="demo-good")
        bad = rollout(bad_policy, derive_seed(seed, "bad", attempt), traj_id="demo-bad")
        if gt_return(good, spec.discount) > gt_return(bad, spec.discount):
            return good, bad
    raise DegenerateDemoError(
        f"no ordered demo pair for qualities ({good_quality}, {bad_quality}) "
        f"after {DEMO_PAIR_ATTEMPTS} attempts at seed {seed}"
    )


def make_eval_set(
    spec: Environment,
    qualities: list[float],
    n_per_quality: int,
    seed: int,
) -> list[Trajectory]:
    """Evaluation rollouts spanning the quality range, source='eval'."""
    if not qualities:
        raise ValueError("qualities must be non-empty")
    out = []
    for q in qualities:
        policy = DemoPolicy(spec, q)
        for i in range(n_per_quality):
            out.append(
                rollout(
                    policy,
                    derive_seed(seed, "eval", q, i),
                    source="eval",
                    traj_id=f"eval-q{q:g}-{i}",
                )
            )
    return out
