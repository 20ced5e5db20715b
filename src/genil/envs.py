"""Benchmark environments with known ground-truth rewards.

Two deterministic environments are provided:

GridNav
    An 8x8 grid with a fixed start cell, an absorbing goal cell worth +1 per
    step, three pit cells worth -1, and a -0.01 step cost everywhere else.
    Four clamped move actions (0=up, 1=right, 2=down, 3=left).  State
    features are the normalized (x, y) coordinates followed by a one-hot
    cell encoding, so the true reward is linear in the features.

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
(spec, policy, seed).  Demonstration quality is a scalar knob in [0, 1]:
0 is the optimal policy for the environment, 1 is (close to) uniform
random, and expected return degrades monotonically in between.

States are plain float64 feature vectors; trajectories stack them row-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DegenerateDemoError
from .seeding import derive_seed
from .trajectory import Trajectory, gt_return

ENV_GRIDNAV = "GridNav"
ENV_POINTCHASE = "PointChase"
ENV_NAMES = (ENV_GRIDNAV, ENV_POINTCHASE)

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

_DEFAULT_HORIZON = {ENV_GRIDNAV: 50, ENV_POINTCHASE: 100}
_DEFAULT_DISCOUNT = {ENV_GRIDNAV: 0.95, ENV_POINTCHASE: 0.99}
_FEATURE_DIM = {ENV_GRIDNAV: GRID_FEATURE_DIM, ENV_POINTCHASE: PC_FEATURE_DIM}

KIND_EPSILON_GREEDY = "epsilon_greedy_optimal"
KIND_NOISY_PROPORTIONAL = "noisy_proportional"


@dataclass(frozen=True)
class EnvSpec:
    name: str
    horizon: int
    discount: float
    feature_dim: int

    def __post_init__(self) -> None:
        if self.name not in ENV_NAMES:
            raise ConfigError(f"unknown environment {self.name!r}; choose from {ENV_NAMES}")
        if self.horizon < 2:
            raise ConfigError(f"horizon must be >= 2, got {self.horizon}")
        if not (0.0 <= self.discount < 1.0):
            raise ConfigError(f"discount must lie in [0, 1), got {self.discount}")
        if self.feature_dim != _FEATURE_DIM[self.name]:
            raise ConfigError(
                f"{self.name} has feature_dim {_FEATURE_DIM[self.name]}, "
                f"got {self.feature_dim}"
            )


def make_spec(
    name: str,
    horizon: int | None = None,
    discount: float | None = None,
) -> EnvSpec:
    """EnvSpec with per-environment defaults filled in."""
    if name not in ENV_NAMES:
        raise ConfigError(f"unknown environment {name!r}; choose from {ENV_NAMES}")
    return EnvSpec(
        name=name,
        horizon=_DEFAULT_HORIZON[name] if horizon is None else int(horizon),
        discount=_DEFAULT_DISCOUNT[name] if discount is None else float(discount),
        feature_dim=_FEATURE_DIM[name],
    )


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
    return int(np.argmax(features[2:]))


_OPTIMAL_ACTION_CACHE: dict[float, np.ndarray] = {}
_OPTIMAL_ACTION_MAX_ITERS = 1_000_000


def gridnav_optimal_actions(discount: float) -> np.ndarray:
    """Greedy action table from value iteration on the true reward.

    Ties break toward the lowest action index.  Cached per discount.
    Raises ConfigError when the values have not converged to a sup-norm
    change below 1e-13 within _OPTIMAL_ACTION_MAX_ITERS sweeps.
    """
    table = _OPTIMAL_ACTION_CACHE.get(discount)
    if table is None:
        nxt = gridnav_transitions()
        rew = gridnav_reward_field()
        values = np.zeros(GRID_N_STATES)
        for _ in range(_OPTIMAL_ACTION_MAX_ITERS):
            new = rew + discount * values[nxt].max(axis=1)
            if np.max(np.abs(new - values)) < 1e-13:
                values = new
                break
            values = new
        else:
            raise ConfigError(
                f"optimal-action value iteration at discount {discount} did not "
                f"converge within {_OPTIMAL_ACTION_MAX_ITERS} iterations"
            )
        table = np.argmax(values[nxt], axis=1).astype(np.int64)
        _OPTIMAL_ACTION_CACHE[discount] = table
    return table


def gridnav_optimal_return(spec: EnvSpec) -> float:
    """Return of the greedy-optimal policy over one episode."""
    traj = rollout(make_env(spec, seed=0), DemoPolicy(spec, quality=0.0), seed=0)
    return gt_return(traj, spec.discount)


# ---------------------------------------------------------------------------
# Environments


class GridNavEnv:
    """Deterministic grid walk; see the module docstring for the rules."""

    def __init__(self, spec: EnvSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self._next = gridnav_transitions()
        self._reward = gridnav_reward_field()
        self._cell = _cell_index(*GRID_START)
        self._t = 0

    def reset(self) -> np.ndarray:
        self._cell = _cell_index(*GRID_START)
        self._t = 0
        return gridnav_features(self._cell)

    def current_reward(self) -> float:
        return float(self._reward[self._cell])

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        if not 0 <= int(action) < GRID_N_ACTIONS:
            raise ConfigError(f"GridNav action must be in [0, 4), got {action}")
        self._cell = int(self._next[self._cell, int(action)])
        self._t += 1
        done = self._t >= self.spec.horizon
        return gridnav_features(self._cell), float(self._reward[self._cell]), done


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


def pointchase_linear_rollout(spec: EnvSpec, gains: np.ndarray) -> np.ndarray:
    """States of one episode per row of (P, 3) linear feedback gains, (P, horizon, 3).

    All P episodes advance in lockstep through pointchase_step, which
    clips the action as LinearPolicy.act does.  Each action is one dot
    product per candidate (a stacked (1, 3) @ (3, 1) matmul, one BLAS
    ddot like `gains[p] @ feats`), so row p equals the states of
    rollout(PointChaseEnv, LinearPolicy(gains[p])) bit for bit.
    """
    if spec.name != ENV_POINTCHASE:
        raise ConfigError(f"pointchase_linear_rollout requires PointChase, got {spec.name}")
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


class PointChaseEnv:
    """1-d chase toward a fixed target with clipped double-integrator dynamics."""

    def __init__(self, spec: EnvSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self._pos = PC_START_POS
        self._vel = PC_START_VEL
        self._t = 0

    def _features(self) -> np.ndarray:
        return np.array([self._pos, self._vel, PC_TARGET - self._pos])

    def reset(self) -> np.ndarray:
        self._pos = PC_START_POS
        self._vel = PC_START_VEL
        self._t = 0
        return self._features()

    def current_reward(self) -> float:
        return -abs(self._pos - PC_TARGET)

    def step(self, action: float) -> tuple[np.ndarray, float, bool]:
        pos, vel = pointchase_step(self._pos, self._vel, action)
        self._pos, self._vel = float(pos), float(vel)
        self._t += 1
        done = self._t >= self.spec.horizon
        return self._features(), self.current_reward(), done


Environment = GridNavEnv | PointChaseEnv


def make_env(spec: EnvSpec, seed: int) -> Environment:
    if spec.name == ENV_GRIDNAV:
        return GridNavEnv(spec, seed)
    if spec.name == ENV_POINTCHASE:
        return PointChaseEnv(spec, seed)
    raise ConfigError(f"unknown environment {spec.name!r}")


def true_reward_fn(spec: EnvSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Batch scorer for the environment's ground-truth reward on features."""
    if spec.name == ENV_GRIDNAV:
        field = gridnav_reward_field()

        def score(features: np.ndarray) -> np.ndarray:
            return np.atleast_2d(features)[:, 2:] @ field

    else:

        def score(features: np.ndarray) -> np.ndarray:
            return -np.abs(np.atleast_2d(features)[:, 2])

    return score


# ---------------------------------------------------------------------------
# Demonstration policies


@dataclass
class DemoPolicy:
    """Scalar-quality stand-in for agents of diverse performance.

    quality=0 is optimal for the environment; quality=1 behaves randomly.
    GridNav uses epsilon-greedy over the value-iteration-optimal action
    table with epsilon=quality; PointChase adds Gaussian action noise of
    scale 3*quality to a proportional-derivative controller.
    """

    spec: EnvSpec
    quality: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality <= 1.0:
            raise ConfigError(f"quality must lie in [0, 1], got {self.quality}")
        self._optimal = (
            gridnav_optimal_actions(self.spec.discount)
            if self.spec.name == ENV_GRIDNAV
            else None
        )

    @property
    def kind(self) -> str:
        return (
            KIND_EPSILON_GREEDY
            if self.spec.name == ENV_GRIDNAV
            else KIND_NOISY_PROPORTIONAL
        )

    def act(self, features: np.ndarray, rng: np.random.Generator):
        if self.spec.name == ENV_GRIDNAV:
            if rng.random() < self.quality:
                return int(rng.integers(GRID_N_ACTIONS))
            return int(self._optimal[gridnav_cell_of(features)])
        _, vel, err = features
        noise = rng.normal() * PC_NOISE_SCALE * self.quality
        return float(_clamp(PC_KP * err - PC_KD * vel + noise, -PC_ACTION_MAX, PC_ACTION_MAX))


def rollout(
    env: Environment,
    policy,
    seed: int,
    source: str = "demo",
    traj_id: str | None = None,
    extra_meta: dict | None = None,
) -> Trajectory:
    """Record one episode: T states, T actions, T per-state rewards.

    The reward at index t is the ground-truth reward of the state occupied
    at time t, so the discounted return matches sum_t discount^t * R(s_t).
    Any object with a `spec` attribute and an `act(features, rng)` method
    can serve as the policy.
    """
    spec = env.spec
    if policy.spec != spec:
        raise ConfigError("policy/environment spec mismatch")
    # the leading 0 keeps the stream every recorded episode was drawn from
    rng = np.random.default_rng([0, derive_seed(seed, "rollout")])
    feats = env.reset()
    states = np.empty((spec.horizon, spec.feature_dim))
    rewards = np.empty(spec.horizon)
    actions: list = []
    for t in range(spec.horizon):
        states[t] = feats
        rewards[t] = env.current_reward()
        action = policy.act(feats, rng)
        actions.append(action)
        feats, _, _ = env.step(action)
    action_arr = np.asarray(
        actions, dtype=np.int64 if spec.name == ENV_GRIDNAV else np.float64
    )
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
        gt_step_rewards=rewards,
        step_ranks=None,
        source=source,
        meta=meta,
    )


def make_demo_pair(
    spec: EnvSpec,
    good_quality: float,
    bad_quality: float,
    seed: int,
    max_retries: int = 20,
) -> tuple[Trajectory, Trajectory]:
    """Two demos whose ground-truth returns respect the quality ordering.

    Retries with fresh derived seeds until gt_return(good) > gt_return(bad).
    """
    if not bad_quality > good_quality:
        raise ValueError(
            f"bad_quality ({bad_quality}) must exceed good_quality ({good_quality})"
        )
    env = make_env(spec, seed)
    good_policy = DemoPolicy(spec, good_quality)
    bad_policy = DemoPolicy(spec, bad_quality)
    for attempt in range(max_retries):
        good = rollout(
            env, good_policy, derive_seed(seed, "good", attempt), traj_id="demo-good"
        )
        bad = rollout(
            env, bad_policy, derive_seed(seed, "bad", attempt), traj_id="demo-bad"
        )
        if gt_return(good, spec.discount) > gt_return(bad, spec.discount):
            return good, bad
    raise DegenerateDemoError(
        f"no ordered demo pair for qualities ({good_quality}, {bad_quality}) "
        f"after {max_retries} attempts at seed {seed}"
    )


def make_eval_set(
    spec: EnvSpec,
    qualities: list[float],
    n_per_quality: int,
    seed: int,
) -> list[Trajectory]:
    """Evaluation rollouts spanning the quality range, source='eval'."""
    if not qualities:
        raise ValueError("qualities must be non-empty")
    env = make_env(spec, seed)
    out = []
    for q in qualities:
        policy = DemoPolicy(spec, q)
        for i in range(n_per_quality):
            out.append(
                rollout(
                    env,
                    policy,
                    derive_seed(seed, "eval", format(q, ".17g"), i),
                    source="eval",
                    traj_id=f"eval-q{q:g}-{i}",
                )
            )
    return out
