"""Extrapolation quality, prediction compactness, and policy comparison.

Ground-truth and predicted returns are min-max normalized independently
over the evaluation set.  Accuracy is the mean of pred_norm/gt_norm over
trajectories away from the normalization minimum; rank correlation uses
the raw values; compactness is the per-bin spread of normalized
predictions among trajectories of similar ground-truth return.  All
standard deviations here are population (divide by n), so outputs are
reproducible constants for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import stats

from .errors import ConfigError, DegenerateEvalError
from .reward_net import predict_return
from .trajectory import Trajectory, gt_return

ACCURACY_GT_NORM_FLOOR = 0.1
DEFAULT_N_BINS = 8


@dataclass
class ReportRow:
    traj_id: str
    quality: float | None
    gt_return: float
    pred_return: float
    gt_norm: float
    pred_norm: float
    bin: int


@dataclass
class ExtrapolationReport:
    rows: list[ReportRow]
    accuracy_ratio: float
    spearman_rho: float
    pearson_r: float
    per_bin_std: list[float]  # NaN marks an empty bin
    mean_bin_std: float
    n_bins: int
    bin_edges: list[float]
    pred_degenerate: bool
    normalization: str = "min-max over eval set"


def _min_max(values: np.ndarray) -> tuple[np.ndarray, bool]:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.full(len(values), 0.5), True
    return (values - lo) / (hi - lo), False


def extrapolation_report(
    model,
    eval_set: Sequence[Trajectory],
    discount: float,
    n_bins: int = DEFAULT_N_BINS,
) -> ExtrapolationReport:
    """Score an evaluation set and summarize extrapolation quality.

    Degenerate predictions (zero spread) are flagged: normalized
    predictions fall back to 0.5 and both correlations are reported as 0.
    """
    if n_bins < 2:
        raise ConfigError(f"n_bins must be >= 2, got {n_bins}")
    if len(eval_set) < 2:
        raise DegenerateEvalError(f"need >= 2 eval trajectories, have {len(eval_set)}")
    gt = np.array([gt_return(t, discount) for t in eval_set])
    pred = np.array([predict_return(model, t) for t in eval_set])
    if float(gt.min()) == float(gt.max()):
        raise DegenerateEvalError("all ground-truth returns are identical")
    gt_norm, _ = _min_max(gt)
    pred_norm, pred_degenerate = _min_max(pred)
    if pred_degenerate:
        rho, pearson = 0.0, 0.0
    else:
        rho = float(stats.spearmanr(gt, pred).statistic)
        pearson = float(stats.pearsonr(gt, pred).statistic)
    keep = gt_norm >= ACCURACY_GT_NORM_FLOOR
    accuracy = float((pred_norm[keep] / gt_norm[keep]).mean())
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    bins = np.minimum((gt_norm * n_bins).astype(int), n_bins - 1)
    per_bin = [
        float(pred_norm[bins == b].std()) if np.any(bins == b) else float("nan")
        for b in range(n_bins)
    ]
    finite = [v for v in per_bin if not np.isnan(v)]
    rows = [
        ReportRow(
            traj_id=t.id,
            quality=t.meta.get("quality"),
            gt_return=float(gt[i]),
            pred_return=float(pred[i]),
            gt_norm=float(gt_norm[i]),
            pred_norm=float(pred_norm[i]),
            bin=int(bins[i]),
        )
        for i, t in enumerate(eval_set)
    ]
    return ExtrapolationReport(
        rows=rows,
        accuracy_ratio=accuracy,
        spearman_rho=rho,
        pearson_r=pearson,
        per_bin_std=per_bin,
        mean_bin_std=float(np.mean(finite)),
        n_bins=n_bins,
        bin_edges=[float(e) for e in edges],
        pred_degenerate=pred_degenerate,
    )


@dataclass
class PolicyTableRow:
    method: str
    avg: float
    std: float
    n_trials: int
    n_models: int
    per_trial_std: list[float] = field(default_factory=list)

    @property
    def per_trial_std_mean(self) -> float:
        return float(np.mean(self.per_trial_std))


def policy_table_row(method: str, returns: np.ndarray) -> PolicyTableRow:
    """Summarize a (n_trials, n_models) grid of ground-truth returns.

    avg and std are over all evaluations; per_trial_std holds each trial's
    spread across its models, whose mean is the stability measure used by
    the step-size sweep.
    """
    returns = np.atleast_2d(np.asarray(returns, dtype=np.float64))
    if returns.size == 0:
        raise ConfigError("policy_table_row needs at least one evaluation")
    return PolicyTableRow(
        method=method,
        avg=float(returns.mean()),
        std=float(returns.std()),
        n_trials=returns.shape[0],
        n_models=returns.shape[1],
        per_trial_std=[float(row.std()) for row in returns],
    )


# ---------------------------------------------------------------------------
# CSV emission: 9 significant digits, fixed column order, LF endings


def fmt9(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".9g")


def write_extrapolation_csv(path, report: ExtrapolationReport) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("traj_id,quality,gt_return,pred_return,gt_norm,pred_norm,bin\n")
        for r in report.rows:
            fh.write(
                f"{r.traj_id},{fmt9(r.quality)},{fmt9(r.gt_return)},{fmt9(r.pred_return)},"
                f"{fmt9(r.gt_norm)},{fmt9(r.pred_norm)},{r.bin}\n"
            )


def write_summary_csv(
    path, entries: Sequence[tuple[str, ExtrapolationReport | None]]
) -> None:
    """entries: (method, report); a None report is a failed method's row,
    written with empty cells so the schema never changes."""
    with open(path, "w", newline="\n") as fh:
        fh.write("method,accuracy_ratio,spearman,pearson,mean_bin_std\n")
        for method, rep in entries:
            if rep is None:
                fh.write(f"{method},,,,\n")
            else:
                fh.write(
                    f"{method},{fmt9(rep.accuracy_ratio)},{fmt9(rep.spearman_rho)},"
                    f"{fmt9(rep.pearson_r)},{fmt9(rep.mean_bin_std)}\n"
                )


def write_policy_table_csv(
    path, entries: Sequence[tuple[str, PolicyTableRow | None]]
) -> None:
    """entries: (method, row); a None row is a failed method's row,
    written with empty cells so the schema never changes."""
    with open(path, "w", newline="\n") as fh:
        fh.write("method,avg,std,n_trials,n_models,per_trial_std_mean\n")
        for method, r in entries:
            if r is None:
                fh.write(f"{method},,,,,\n")
            else:
                fh.write(
                    f"{method},{fmt9(r.avg)},{fmt9(r.std)},{r.n_trials},{r.n_models},"
                    f"{fmt9(r.per_trial_std_mean)}\n"
                )


def write_sweep_csv(path, records: Sequence[dict]) -> None:
    """records: step_size, trial, model, gt_return, trial_std, step_mean."""
    with open(path, "w", newline="\n") as fh:
        fh.write("step_size,trial,model,gt_return,trial_std,step_mean\n")
        for r in records:
            fh.write(
                f"{r['step_size']},{r['trial']},{r['model']},{fmt9(r['gt_return'])},"
                f"{fmt9(r['trial_std'])},{fmt9(r['step_mean'])}\n"
            )


def write_loss_csv(path, losses: np.ndarray) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(losses):
            fh.write(f"{step},{fmt9(loss)}\n")
