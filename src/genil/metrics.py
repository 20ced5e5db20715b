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

from .errors import ConfigError, DegenerateEvalError
from .fileio import atomic_write
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


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], len(x))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho of two 1-d float arrays, bit for bit what
    scipy.stats.spearmanr gives: Pearson's correlation of average ranks,
    through the same np.corrcoef call; NaN if either holds a NaN or is
    constant."""
    if np.isnan(x).any() or np.isnan(y).any() or (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    ranked = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r of two 1-d float arrays, bit for bit what
    scipy.stats.pearsonr gives: each centred vector is scaled by its
    largest magnitude before its norm is taken, r is clipped to [-1, 1]
    and, at n == 2, rounded to exactly -1 or 1; NaN if either is constant."""
    if (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    units = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for v in (x, y):
            centred = v - v.mean()
            scale = np.abs(centred).max()
            # with axis= the norm is sqrt(sum of squares), not sqrt(dot)
            units.append(centred / (scale * np.linalg.norm(centred / scale, axis=-1)))
        r = np.clip(np.dot(units[0], units[1]), -1.0, 1.0)
    return float(np.round(r) if len(x) == 2 else r)


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
        rho = spearman(gt, pred)
        pearson = pearson_r(gt, pred)
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
    with atomic_write(path) as fh:
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
    with atomic_write(path) as fh:
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
    with atomic_write(path) as fh:
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
    with atomic_write(path) as fh:
        fh.write("step_size,trial,model,gt_return,trial_std,step_mean\n")
        for r in records:
            fh.write(
                f"{r['step_size']},{r['trial']},{r['model']},{fmt9(r['gt_return'])},"
                f"{fmt9(r['trial_std'])},{fmt9(r['step_mean'])}\n"
            )


def write_loss_csv(path, losses: np.ndarray) -> None:
    with atomic_write(path) as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(losses):
            fh.write(f"{step},{fmt9(loss)}\n")
