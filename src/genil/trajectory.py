"""Trajectory container and its line-delimited JSON serialization.

One trajectory per line, fields in a fixed order: id, env, states, actions,
gt_step_rewards, step_ranks, source, meta.  Floats are written with 17
significant digits so that a dump -> load -> dump cycle is byte-stable and
reload reproduces the in-memory doubles bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidTrajectoryError
from .fileio import atomic_write

SOURCES = ("demo", "offspring", "eval")


@dataclass
class Trajectory:
    """An ordered state sequence with ground-truth rewards and optional ranks.

    states has shape (T, feature_dim).  actions, when present, has length T
    (integer ids for GridNav, scalar floats for PointChase); the effect of the
    final action falls outside the recorded window.  step_ranks, when present,
    holds one rank value per step.
    """

    id: str
    env: str
    states: np.ndarray
    actions: np.ndarray | None
    gt_step_rewards: np.ndarray
    step_ranks: np.ndarray | None
    source: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=np.float64)
        self.gt_step_rewards = np.asarray(self.gt_step_rewards, dtype=np.float64)
        if self.actions is not None:
            self.actions = np.asarray(self.actions)
        if self.step_ranks is not None:
            self.step_ranks = np.asarray(self.step_ranks, dtype=np.float64)
        self.validate()

    def __len__(self) -> int:
        return self.states.shape[0]

    def validate(self) -> None:
        T = self.states.shape[0]
        if T == 0:
            raise InvalidTrajectoryError(f"trajectory {self.id!r} is empty")
        if self.states.ndim != 2:
            raise InvalidTrajectoryError(f"trajectory {self.id!r}: states must be 2-d")
        if self.gt_step_rewards.shape != (T,):
            raise InvalidTrajectoryError(
                f"trajectory {self.id!r}: {T} states but "
                f"{self.gt_step_rewards.shape[0]} step rewards"
            )
        if self.step_ranks is not None and self.step_ranks.shape != (T,):
            raise InvalidTrajectoryError(
                f"trajectory {self.id!r}: {T} states but "
                f"{self.step_ranks.shape[0]} step ranks"
            )
        if self.actions is not None and len(self.actions) != T:
            raise InvalidTrajectoryError(
                f"trajectory {self.id!r}: {T} states but {len(self.actions)} actions"
            )
        if self.source not in SOURCES:
            raise InvalidTrajectoryError(
                f"trajectory {self.id!r}: source {self.source!r} not in {SOURCES}"
            )
        if not np.all(np.isfinite(self.states)):
            raise InvalidTrajectoryError(f"trajectory {self.id!r}: non-finite state entry")
        if not np.all(np.isfinite(self.gt_step_rewards)):
            raise InvalidTrajectoryError(f"trajectory {self.id!r}: non-finite step reward")
        if self.step_ranks is not None and not np.all(np.isfinite(self.step_ranks)):
            raise InvalidTrajectoryError(f"trajectory {self.id!r}: non-finite step rank")


def gt_return(traj: Trajectory, discount: float) -> float:
    """Discounted ground-truth return: sum_t discount^t * reward[t]."""
    T = len(traj)
    weights = discount ** np.arange(T)
    return float(weights @ traj.gt_step_rewards)


def _fmt_row(row: list[float]) -> str:
    return "[" + ",".join([format(v, ".17g") for v in row]) + "]"


def _fmt_vec(values: np.ndarray) -> str:
    """A 1-d array as a JSON list, or a 2-d one as a list of row lists, at
    17 significant digits; refuses non-finite entries."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        raise InvalidTrajectoryError(f"cannot serialize non-finite float {values[~finite][0]!r}")
    if values.ndim == 1:
        return _fmt_row(values.tolist())
    return "[" + ",".join([_fmt_row(row) for row in values.tolist()]) + "]"


def _fmt_actions(actions: np.ndarray | None) -> str:
    if actions is None:
        return "null"
    if np.issubdtype(actions.dtype, np.integer):
        return "[" + ",".join(str(int(a)) for a in actions) + "]"
    # floats keep a decimal marker (2.0 stays "2.0", not "2") so the
    # loader can recover the dtype from the json token types; a finite
    # float's repr is what json.dumps writes for it
    values = np.asarray(actions, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        raise InvalidTrajectoryError(
            f"cannot serialize non-finite action {actions[~finite][0]!r}"
        )
    return "[" + ",".join(map(repr, values.tolist())) + "]"


def dumps_trajectory(traj: Trajectory) -> str:
    """One JSON line, fixed field order, floats at 17 significant digits."""
    parts = [
        f'"id":{json.dumps(traj.id)}',
        f'"env":{json.dumps(traj.env)}',
        f'"states":{_fmt_vec(traj.states)}',
        f'"actions":{_fmt_actions(traj.actions)}',
        f'"gt_step_rewards":{_fmt_vec(traj.gt_step_rewards)}',
        '"step_ranks":'
        + ("null" if traj.step_ranks is None else _fmt_vec(traj.step_ranks)),
        f'"source":{json.dumps(traj.source)}',
        f'"meta":{json.dumps(traj.meta, sort_keys=True)}',
    ]
    return "{" + ",".join(parts) + "}"


def loads_trajectory(line: str) -> Trajectory:
    raw = json.loads(line)
    actions = raw["actions"]
    if actions is not None:
        dtype = np.int64 if all(isinstance(a, int) for a in actions) else np.float64
        actions = np.asarray(actions, dtype=dtype)
    ranks = raw["step_ranks"]
    return Trajectory(
        id=raw["id"],
        env=raw["env"],
        states=np.asarray(raw["states"], dtype=np.float64),
        actions=actions,
        gt_step_rewards=np.asarray(raw["gt_step_rewards"], dtype=np.float64),
        step_ranks=None if ranks is None else np.asarray(ranks, dtype=np.float64),
        source=raw["source"],
        meta=raw["meta"],
    )


def save_trajectories(path, trajectories: Iterable[Trajectory]) -> None:
    with atomic_write(path) as fh:
        for traj in trajectories:
            fh.write(dumps_trajectory(traj))
            fh.write("\n")


def load_trajectories(path) -> list[Trajectory]:
    with open(path) as fh:
        return [loads_trajectory(line) for line in iter_lines(fh)]


def iter_lines(fh) -> Iterator[str]:
    for line in fh:
        line = line.strip()
        if line:
            yield line


def trajectories_equal(a: Trajectory, b: Trajectory) -> bool:
    """Bitwise equality of all fields, arrays included."""
    if (a.id, a.env, a.source, a.meta) != (b.id, b.env, b.source, b.meta):
        return False
    if not np.array_equal(a.states, b.states):
        return False
    if not np.array_equal(a.gt_step_rewards, b.gt_step_rewards):
        return False
    for x, y in ((a.actions, b.actions), (a.step_ranks, b.step_ranks)):
        if (x is None) != (y is None):
            return False
        if x is not None and not np.array_equal(x, y):
            return False
    return True
