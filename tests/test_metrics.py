"""Extrapolation report math against hand-computed values and a
brute-force rank-correlation oracle, the correlations against scipy bit
for bit, plus exact CSV golden strings."""

import numpy as np
import pytest
from scipy import stats

from genil.errors import ConfigError, DegenerateEvalError, DivergenceError
from genil.metrics import (
    ACCURACY_GT_NORM_FLOOR,
    ExtrapolationReport,
    PolicyTableRow,
    ReportRow,
    extrapolation_report,
    fmt9,
    pearson_r,
    policy_table_row,
    predicted_returns_report,
    spearman,
    write_extrapolation_csv,
    write_loss_csv,
    write_policy_table_csv,
    write_summary_csv,
    write_sweep_csv,
)
from genil.trajectory import Trajectory


def traj_point(i, gt, x, quality=None):
    """Length-1 trajectory: ground-truth return gt, model input [x, 1]."""
    meta = {} if quality is None else {"quality": quality}
    return Trajectory(
        id=f"t{i}",
        env="GridNav",
        states=np.array([[x, 1.0]]),
        actions=np.array([0]),
        gt_step_rewards=np.array([float(gt)]),
        step_ranks=None,
        source="eval",
        meta=meta,
    )


def identity_reward(scale=1.0, shift=0.0):
    """The reward scale * x + shift of each state [x, 1] in a batch."""
    return lambda states: scale * states[:, 0] + shift


def spearman_bruteforce(a, b):
    """Tie-free Spearman via the squared rank-difference formula."""
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    n = len(a)
    d = (ra - rb).astype(float)
    return 1.0 - 6.0 * float((d * d).sum()) / (n * (n * n - 1))


# ---------------------------------------------------------------------------
# extrapolation_report


def test_affine_predictions_score_perfectly():
    gts = [0.0, 1.0, 2.0, 5.0]
    evs = [traj_point(i, g, g) for i, g in enumerate(gts)]
    rep = extrapolation_report(identity_reward(scale=3.0, shift=-1.0), evs, 0.9)
    assert rep.spearman_rho == pytest.approx(1.0)
    assert rep.pearson_r == pytest.approx(1.0)
    assert rep.accuracy_ratio == pytest.approx(1.0)
    assert not rep.pred_degenerate


def test_spearman_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    gts = rng.uniform(-5, 5, size=25)
    xs = rng.uniform(-5, 5, size=25)
    evs = [traj_point(i, g, x) for i, (g, x) in enumerate(zip(gts, xs))]
    rep = extrapolation_report(identity_reward(), evs, 0.9)
    assert rep.spearman_rho == pytest.approx(
        spearman_bruteforce(gts, xs), abs=1e-12
    )
    gt_arr, x_arr = np.asarray(gts), np.asarray(xs)
    pearson_oracle = float(
        ((gt_arr - gt_arr.mean()) * (x_arr - x_arr.mean())).mean()
        / (gt_arr.std() * x_arr.std())
    )
    assert rep.pearson_r == pytest.approx(pearson_oracle, abs=1e-12)


def correlation_cases():
    rng = np.random.default_rng(23)
    line = np.arange(10.0)
    cases = [
        ([1.0, 2.0], [3.0, 5.0]),
        ([1.0, 2.0], [5.0, 3.0]),
        ([0.1, 0.7], [-1e-9, 3e-9]),
        ([1.0, 1.0, 2.0, 2.0, 3.0], [5.0, 4.0, 4.0, 4.0, 1.0]),
        ([3.0, 1.0, 3.0, 3.0, 2.0, 1.0], [0.0, 0.0, 1.0, 0.0, 1.0, 1.0]),
        (line, 3.0 * line + 2.0),
        (line, -0.7 * line + 1e3),
        (1e6 + 1e-3 * rng.standard_normal(20), rng.standard_normal(20)),
        (1e6 + 1e-3 * rng.standard_normal(20), 1e6 + 1e-3 * rng.standard_normal(20)),
    ]
    for n in (2, 3, 4, 7, 12, 35, 70):
        for _ in range(40):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            y = 0.5 * x + rng.standard_normal(n)
            cases.append((x, y))
            cases.append((np.round(x), np.round(2 * y) / 2))  # ties
    return [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in cases]


def same_float(a, b):
    return (a == b and np.signbit(a) == np.signbit(b)) or (np.isnan(a) and np.isnan(b))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's near-constant warning
def test_correlations_match_scipy_bit_for_bit():
    n_checked = 0
    for x, y in correlation_cases():
        if (x == x[0]).all() or (y == y[0]).all():
            continue
        ours, theirs = spearman(x, y), float(stats.spearmanr(x, y).statistic)
        assert same_float(ours, theirs), (x, y, ours, theirs)
        ours, theirs = pearson_r(x, y), float(stats.pearsonr(x, y).statistic)
        assert same_float(ours, theirs), (x, y, ours, theirs)
        n_checked += 1
    assert n_checked > 400


def test_pearson_exact_at_two_points():
    # scipy rounds Pearson's r at n == 2, but not Spearman's rho (1 - 2**-53
    # there, and on perfect lines too; those cases are compared above)
    for x, y, r in (([1.0, 2.0], [3.0, 5.0], 1.0), ([0.1, 0.7], [5.0, -3e-9], -1.0)):
        assert pearson_r(np.array(x), np.array(y)) == r


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's constant-input warning
def test_correlations_nan_like_scipy():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    for y in (np.array([1.0, np.nan, 2.0, 0.5]), np.full(4, 2.0)):
        assert np.isnan(spearman(x, y)) and np.isnan(stats.spearmanr(x, y).statistic)
        assert np.isnan(pearson_r(x, y)) and np.isnan(stats.pearsonr(x, y).statistic)


def test_report_invariant_under_positive_affine_rescale():
    rng = np.random.default_rng(3)
    gts = rng.uniform(0, 10, size=12)
    xs = gts + rng.normal(0, 1, size=12)
    evs = [traj_point(i, g, x) for i, (g, x) in enumerate(zip(gts, xs))]
    base = extrapolation_report(identity_reward(), evs, 0.9)
    scaled = extrapolation_report(identity_reward(scale=7.0, shift=-4.0), evs, 0.9)
    assert scaled.accuracy_ratio == pytest.approx(base.accuracy_ratio, abs=1e-9)
    assert scaled.spearman_rho == pytest.approx(base.spearman_rho, abs=1e-12)
    assert scaled.pearson_r == pytest.approx(base.pearson_r, abs=1e-12)
    assert scaled.mean_bin_std == pytest.approx(base.mean_bin_std, abs=1e-9)
    for a, b in zip(scaled.rows, base.rows):
        assert a.pred_norm == pytest.approx(b.pred_norm, abs=1e-9)
        assert a.bin == b.bin


def test_hand_computed_report():
    # gt [0, 0.5, 10] -> gt_norm [0, 0.05, 1]; pred [0, 9, 10] -> pred_norm
    # [0, 0.9, 1]; the 0.05 row sits below the accuracy floor
    evs = [traj_point(0, 0.0, 0.0), traj_point(1, 0.5, 9.0), traj_point(2, 10.0, 10.0)]
    rep = extrapolation_report(identity_reward(), evs, 0.9, n_bins=8)
    assert rep.accuracy_ratio == 1.0
    assert [r.bin for r in rep.rows] == [0, 0, 7]
    # the mean of the two non-empty bins' stds, 0.45 and 0.0
    assert rep.mean_bin_std == pytest.approx(0.225, abs=1e-15)
    assert rep.rows[1].gt_norm == pytest.approx(0.05)
    assert rep.rows[1].gt_norm < ACCURACY_GT_NORM_FLOOR


def test_quality_carried_from_meta():
    evs = [traj_point(0, 0.0, 0.0, quality=0.3), traj_point(1, 1.0, 1.0)]
    rep = extrapolation_report(identity_reward(), evs, 0.9)
    assert rep.rows[0].quality == 0.3
    assert rep.rows[1].quality is None


def test_constant_predictions_flagged_degenerate():
    evs = [traj_point(i, float(i), 4.0) for i in range(5)]
    rep = extrapolation_report(identity_reward(), evs, 0.9)
    assert rep.pred_degenerate
    assert rep.spearman_rho == 0.0
    assert rep.pearson_r == 0.0
    assert all(r.pred_norm == 0.5 for r in rep.rows)


def test_report_validation():
    evs = [traj_point(i, float(i), float(i)) for i in range(4)]
    with pytest.raises(ConfigError):
        extrapolation_report(identity_reward(), evs, 0.9, n_bins=1)
    with pytest.raises(DegenerateEvalError):
        extrapolation_report(identity_reward(), evs[:1], 0.9)
    flat = [traj_point(i, 2.0, float(i)) for i in range(4)]
    with pytest.raises(DegenerateEvalError):
        extrapolation_report(identity_reward(), flat, 0.9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_report_refuses_a_non_finite_predicted_return(bad):
    """A diverged reward model's predictions make no table of NaNs."""
    evs = [traj_point(i, float(i), float(i)) for i in range(4)]
    pred = [0.0, 1.0, bad, 3.0]
    with pytest.raises(DivergenceError, match=f"non-finite predicted return {bad} of eval "
                       "trajectory 't2'"):
        predicted_returns_report(pred, evs, 0.9)


# ---------------------------------------------------------------------------
# policy table


def test_policy_table_row_hand_grid():
    row = policy_table_row("genil", np.array([[1.0, 3.0], [5.0, 7.0]]))
    assert row.avg == 4.0
    assert row.std == pytest.approx(np.sqrt(5.0))
    assert (row.n_trials, row.n_models) == (2, 2)
    assert row.per_trial_std == [1.0, 1.0]
    assert row.per_trial_std_mean == 1.0


def test_policy_table_row_promotes_1d():
    row = policy_table_row("bc", np.array([1.0, 2.0, 3.0]))
    assert (row.n_trials, row.n_models) == (1, 3)
    assert row.per_trial_std == [pytest.approx(np.sqrt(2.0 / 3.0))]


def test_policy_table_row_rejects_empty():
    with pytest.raises(ConfigError):
        policy_table_row("genil", np.empty((0, 2)))


# ---------------------------------------------------------------------------
# formatting and CSV goldens


def test_fmt9():
    assert fmt9(None) == ""
    assert fmt9(0.5) == "0.5"
    assert fmt9(4.0) == "4"
    assert fmt9(1.0 / 3.0) == "0.333333333"
    assert fmt9(1e300) == "1e+300"
    assert fmt9(-0.25) == "-0.25"


def test_extrapolation_csv_golden(tmp_path):
    rep = ExtrapolationReport(
        rows=[
            ReportRow("t0", None, 1.0, 0.5, 0.0, 0.25, 0),
            ReportRow("t1", 0.3, 2.0, 1.5, 1.0, 1.0, 7),
        ],
        accuracy_ratio=1.0,
        spearman_rho=1.0,
        pearson_r=1.0,
        mean_bin_std=0.0,
        pred_degenerate=False,
    )
    path = tmp_path / "e.csv"
    write_extrapolation_csv(path, rep)
    assert path.read_text() == (
        "traj_id,quality,gt_return,pred_return,gt_norm,pred_norm,bin\n"
        "t0,,1,0.5,0,0.25,0\n"
        "t1,0.3,2,1.5,1,1,7\n"
    )


def test_extrapolation_csv_writes_a_quality_as_a_float(tmp_path):
    """A hand-placed eval file may give a trajectory's quality as an int;
    the quality column formats it as the float it stands for."""
    evs = [traj_point(i, float(i), float(i), quality=q) for i, q in enumerate([0, 10**10, 0.3])]
    rep = extrapolation_report(identity_reward(), evs, 0.9)
    assert [r.quality for r in rep.rows] == [0.0, 1e10, 0.3]
    assert all(type(r.quality) is float for r in rep.rows)
    path = tmp_path / "e.csv"
    write_extrapolation_csv(path, rep)
    assert [line.split(",")[1] for line in path.read_text().splitlines()] == [
        "quality", "0", "1e+10", "0.3"
    ]


def test_summary_csv_golden(tmp_path):
    rep = ExtrapolationReport(
        rows=[],
        accuracy_ratio=0.5,
        spearman_rho=1.0,
        pearson_r=-0.25,
        mean_bin_std=0.125,
        pred_degenerate=False,
    )
    path = tmp_path / "s.csv"
    write_summary_csv(path, [("genil", rep)])
    assert path.read_text() == (
        "method,accuracy_ratio,spearman,pearson,mean_bin_std\n"
        "genil,0.5,1,-0.25,0.125\n"
    )


def test_summary_csv_golden_failed_row(tmp_path):
    path = tmp_path / "s.csv"
    write_summary_csv(path, [("GenIL", None)])
    assert path.read_text() == (
        "method,accuracy_ratio,spearman,pearson,mean_bin_std\n"
        "GenIL,,,,\n"
    )


def test_policy_table_csv_golden(tmp_path):
    row = PolicyTableRow(
        method="genil", avg=4.0, std=2.0, n_trials=2, n_models=2, per_trial_std=[1.0, 1.0]
    )
    path = tmp_path / "p.csv"
    write_policy_table_csv(path, [("genil", row)])
    assert path.read_text() == (
        "method,avg,std,n_trials,n_models,per_trial_std_mean\n"
        "genil,4,2,2,2,1\n"
    )


def test_policy_table_csv_golden_failed_row(tmp_path):
    row = PolicyTableRow(
        method="T-REX-2", avg=0.5, std=0.0, n_trials=1, n_models=1, per_trial_std=[0.0]
    )
    path = tmp_path / "p.csv"
    write_policy_table_csv(path, [("GenIL", None), ("T-REX-2", row)])
    assert path.read_text() == (
        "method,avg,std,n_trials,n_models,per_trial_std_mean\n"
        "GenIL,,,,,\n"
        "T-REX-2,0.5,0,1,1,0\n"
    )


def test_sweep_csv_golden(tmp_path):
    rec = {
        "step_size": 1,
        "trial": 0,
        "model": 0,
        "gt_return": 1.5,
        "trial_std": 0.0,
        "step_mean": 1.5,
    }
    path = tmp_path / "w.csv"
    write_sweep_csv(path, [rec])
    assert path.read_text() == (
        "step_size,trial,model,gt_return,trial_std,step_mean\n"
        "1,0,0,1.5,0,1.5\n"
    )


def test_loss_csv_golden(tmp_path):
    path = tmp_path / "l.csv"
    write_loss_csv(path, np.array([0.5, 0.25]))
    assert path.read_text() == "step,loss\n0,0.5\n1,0.25\n"
