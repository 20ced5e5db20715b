"""Trajectory container validation and byte-stable JSON-lines round-trips."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genil.errors import InvalidTrajectoryError
from genil.trajectory import (
    Trajectory,
    _fmt_actions,
    _fmt_vec,
    dumps_trajectory,
    gt_return,
    load_trajectories,
    loads_trajectory,
    save_trajectories,
    trajectories_equal,
)


def make_traj(T=4, d=3, actions="int", ranks=True, traj_id="t0"):
    rng = np.random.default_rng(0)
    return Trajectory(
        id=traj_id,
        env="GridNav",
        states=rng.normal(size=(T, d)),
        actions=(
            None
            if actions is None
            else rng.integers(4, size=T)
            if actions == "int"
            else rng.normal(size=T)
        ),
        gt_step_rewards=rng.normal(size=T),
        step_ranks=rng.uniform(0, 4, size=T) if ranks else None,
        source="demo",
        meta={"quality": 0.25, "seed": 3},
    )


# ---------------------------------------------------------------------------
# Validation


def test_len_and_dtype_coercion():
    traj = make_traj(T=6)
    assert len(traj) == 6
    assert traj.states.dtype == np.float64
    assert traj.gt_step_rewards.dtype == np.float64
    assert traj.step_ranks.dtype == np.float64


def test_validation_errors():
    good = make_traj()
    with pytest.raises(InvalidTrajectoryError):
        Trajectory("x", "GridNav", np.empty((0, 3)), None, np.empty(0), None, "demo")
    with pytest.raises(InvalidTrajectoryError):
        Trajectory("x", "GridNav", good.states, None, good.gt_step_rewards[:-1], None, "demo")
    with pytest.raises(InvalidTrajectoryError):
        Trajectory("x", "GridNav", good.states, good.actions[:-1], good.gt_step_rewards, None, "demo")
    with pytest.raises(InvalidTrajectoryError):
        Trajectory("x", "GridNav", good.states, None, good.gt_step_rewards, good.step_ranks[:-1], "demo")
    with pytest.raises(InvalidTrajectoryError):
        Trajectory("x", "GridNav", good.states, None, good.gt_step_rewards, None, "imagined")
    bad_states = good.states.copy()
    bad_states[1, 1] = np.nan
    with pytest.raises(InvalidTrajectoryError):
        Trajectory("x", "GridNav", bad_states, None, good.gt_step_rewards, None, "demo")
    for bad in (np.nan, np.inf):
        bad_ranks = good.step_ranks.copy()
        bad_ranks[2] = bad
        with pytest.raises(InvalidTrajectoryError, match="step rank"):
            Trajectory("x", "GridNav", good.states, None, good.gt_step_rewards, bad_ranks, "demo")


def test_gt_return_hand_value():
    traj = Trajectory(
        id="h",
        env="GridNav",
        states=np.zeros((3, 2)),
        actions=None,
        gt_step_rewards=[1.0, 2.0, 3.0],
        step_ranks=None,
        source="demo",
    )
    # 1 + 0.5*2 + 0.25*3
    assert gt_return(traj, 0.5) == pytest.approx(2.75, abs=1e-15)
    assert gt_return(traj, 0.0) == 1.0


# ---------------------------------------------------------------------------
# Serialization


@pytest.mark.parametrize(
    "actions,ranks",
    [("int", True), ("float", True), (None, False), ("int", False)],
)
def test_round_trip_bit_identical(actions, ranks):
    traj = make_traj(actions=actions, ranks=ranks)
    back = loads_trajectory(dumps_trajectory(traj))
    assert trajectories_equal(traj, back)
    if actions == "int":
        assert back.actions.dtype == np.int64
    elif actions == "float":
        assert back.actions.dtype == np.float64


def test_dump_load_dump_byte_stable():
    traj = make_traj(T=7, actions="float")
    line = dumps_trajectory(traj)
    assert dumps_trajectory(loads_trajectory(line)) == line


def test_integer_valued_float_actions_keep_dtype():
    # a leading 2.0 must not drag the whole array to int64 (clipped
    # continuous actions sit exactly on the bound all the time)
    traj = make_traj(T=3)
    traj.actions = np.array([2.0, 0.371, -1.0])
    back = loads_trajectory(dumps_trajectory(traj))
    assert back.actions.dtype == np.float64
    assert np.array_equal(back.actions, traj.actions)


def test_awkward_floats_round_trip():
    values = np.array([1 / 3, 0.1, -1e-300, 1e300, 5e-324, -0.0, 123456.789012345])
    traj = Trajectory(
        id="awk",
        env="PointChase",
        states=values[:, None],
        actions=None,
        gt_step_rewards=values,
        step_ranks=None,
        source="eval",
    )
    back = loads_trajectory(dumps_trajectory(traj))
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.gt_step_rewards, traj.gt_step_rewards)


def test_non_finite_floats_refused():
    traj = make_traj()
    traj.gt_step_rewards = traj.gt_step_rewards.copy()
    traj.gt_step_rewards[0] = np.inf
    with pytest.raises(InvalidTrajectoryError):
        dumps_trajectory(traj)


def _per_float_fmt_vec(values):
    """The float formatter as first written: one check and one format per float."""

    def fmt(x):
        if not math.isfinite(x):
            raise InvalidTrajectoryError(f"cannot serialize non-finite float {x!r}")
        return format(float(x), ".17g")

    return "[" + ",".join(fmt(v) for v in values) + "]"


def _per_float_fmt_actions(actions):
    """The float-action formatter as first written: one check and one
    json.dumps per action."""
    for a in actions:
        if not math.isfinite(a):
            raise InvalidTrajectoryError(f"cannot serialize non-finite action {a!r}")
    return "[" + ",".join(json.dumps(float(a)) for a in actions) + "]"


def test_float_formatter_matches_per_float_formatter():
    awkward = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1 / 3, 0.1, 2.0]
    awkward += [-1e-300, 1e300, 123456.789012345, 1.7976931348623157e308, 1e16, 1e17]
    rows = np.random.default_rng(0).normal(size=(50, 3)) * np.array([1e-3, 1.0, 1e5])
    for values in (np.array(awkward), rows[:, 1], np.empty(0)):
        assert _fmt_vec(values) == _per_float_fmt_vec(values)
        assert _fmt_actions(values) == _per_float_fmt_actions(values)
    for states in (np.array(awkward).reshape(-1, 2), rows, np.empty((0, 3))):
        want = "[" + ",".join(_per_float_fmt_vec(row) for row in states) + "]"
        assert _fmt_vec(states) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_formatter_refuses_non_finite_like_per_float_formatter(bad):
    values = np.array([[0.5, 1.0], [2.0, bad], [bad, 3.0]])
    for arr in (values, values[1]):
        with pytest.raises(InvalidTrajectoryError) as want:
            _per_float_fmt_vec(arr.ravel())
        with pytest.raises(InvalidTrajectoryError) as got:
            _fmt_vec(arr)
        assert str(got.value) == str(want.value)
    with pytest.raises(InvalidTrajectoryError) as want:
        _per_float_fmt_actions(values[1])
    with pytest.raises(InvalidTrajectoryError) as got:
        _fmt_actions(values[1])
    assert str(got.value) == str(want.value)


def test_field_order_fixed():
    line = dumps_trajectory(make_traj(T=2))
    keys = ["id", "env", "states", "actions", "gt_step_rewards", "step_ranks", "source", "meta"]
    positions = [line.index(f'"{k}":') for k in keys]
    assert positions == sorted(positions)


def test_save_load_file(tmp_path):
    trajs = [make_traj(traj_id=f"t{i}", actions=a) for i, a in enumerate(["int", "float", None])]
    path = tmp_path / "trajs.jsonl"
    save_trajectories(path, trajs)
    loaded = load_trajectories(path)
    assert len(loaded) == 3
    assert all(trajectories_equal(a, b) for a, b in zip(trajs, loaded))
    # a second save produces identical bytes
    path2 = tmp_path / "again.jsonl"
    save_trajectories(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_failed_save_leaves_no_partial_file(tmp_path):
    """A trajectory that fails to serialize halfway through a save leaves the
    target absent, or as it was, and no temporary file beside it."""
    good = [make_traj(traj_id=f"t{i}", actions="float") for i in range(3)]
    bad = [make_traj(traj_id=f"t{i}", actions="float") for i in range(3)]
    bad[1].states[0, 0] = np.nan  # set after construction, so only the save sees it
    path = tmp_path / "trajs.jsonl"
    with pytest.raises(InvalidTrajectoryError):
        save_trajectories(path, bad)
    assert os.listdir(tmp_path) == []
    save_trajectories(path, good)
    before = path.read_bytes()
    with pytest.raises(InvalidTrajectoryError):
        save_trajectories(path, bad)
    assert os.listdir(tmp_path) == ["trajs.jsonl"]
    assert path.read_bytes() == before


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "gap.jsonl"
    line = dumps_trajectory(make_traj())
    path.write_text(line + "\n\n" + line + "\n")
    assert len(load_trajectories(path)) == 2


def test_trajectories_equal_detects_differences():
    a = make_traj()
    b = make_traj()
    assert trajectories_equal(a, b)
    c = make_traj()
    c.states = c.states.copy()
    c.states[0, 0] += 1e-12
    assert not trajectories_equal(a, c)
    d = make_traj(ranks=False)
    assert not trajectories_equal(a, d)
    e = make_traj()
    e.meta = {**e.meta, "extra": 1}
    assert not trajectories_equal(a, e)


finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e15, max_value=1e15
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), T=st.integers(1, 6), d=st.integers(1, 4))
def test_round_trip_property(data, T, d):
    states = np.array(
        data.draw(st.lists(st.lists(finite, min_size=d, max_size=d), min_size=T, max_size=T))
    )
    rewards = np.array(data.draw(st.lists(finite, min_size=T, max_size=T)))
    traj = Trajectory(
        id="p",
        env="GridNav",
        states=states,
        actions=None,
        gt_step_rewards=rewards,
        step_ranks=None,
        source="offspring",
        meta={},
    )
    back = loads_trajectory(dumps_trajectory(traj))
    assert trajectories_equal(traj, back)
