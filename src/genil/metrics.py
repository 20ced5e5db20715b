"""Extrapolation quality, prediction compactness, and policy comparison.

A reward reaches this module as a function from a state batch to its
rewards, or as predicted returns already summed.  Ground-truth and
predicted returns are min-max normalized independently over the
evaluation set.  Accuracy is the mean of pred_norm/gt_norm over
trajectories away from the normalization minimum; rank correlation uses
the raw values; compactness is the per-bin spread of normalized
predictions among trajectories of similar ground-truth return.  All
standard deviations here are population (divide by n), so outputs are
reproducible constants for fixed inputs.  Every table goes out through
write_table, which formats each CSV cell by one rule (see _cell) and hands
the lines to fileio.write_lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DegenerateEvalError, DivergenceError
from .fileio import write_lines
from .trajectory import Trajectory, gt_return

ACCURACY_GT_NORM_FLOOR = 0.1
DEFAULT_N_BINS = 8


@dataclass
class ReportRow:
    traj_id: str
    quality: float | None  # the trajectory's meta quality, as a float
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
    mean_bin_std: float
    pred_degenerate: bool


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
    reward,
    eval_set: Sequence[Trajectory],
    discount: float,
    n_bins: int = DEFAULT_N_BINS,
) -> ExtrapolationReport:
    """Score an evaluation set with a reward function, from a state batch to
    its rewards, and summarize extrapolation quality (see
    predicted_returns_report).  A trajectory's predicted return is the
    undiscounted sum of its states' rewards."""
    pred = [float(reward(t.states).sum()) for t in eval_set]
    return predicted_returns_report(pred, eval_set, discount, n_bins=n_bins)


def predicted_returns_report(
    pred: Sequence[float],
    eval_set: Sequence[Trajectory],
    discount: float,
    n_bins: int = DEFAULT_N_BINS,
) -> ExtrapolationReport:
    """Summarize extrapolation quality from each eval trajectory's
    predicted return, in eval-set order.

    Degenerate predictions (zero spread) are flagged: normalized
    predictions fall back to 0.5 and both correlations are reported as 0.
    A non-finite predicted return, from a reward model that diverged, is
    refused with DivergenceError.
    """
    if n_bins < 2:
        raise ConfigError(f"n_bins must be >= 2, got {n_bins}")
    if len(eval_set) < 2:
        raise DegenerateEvalError(f"need >= 2 eval trajectories, have {len(eval_set)}")
    gt = np.array([gt_return(t, discount) for t in eval_set])
    pred = np.array(pred, dtype=np.float64)
    if float(gt.min()) == float(gt.max()):
        raise DegenerateEvalError("all ground-truth returns are identical")
    if not np.isfinite(pred).all():
        i = int(np.flatnonzero(~np.isfinite(pred))[0])
        raise DivergenceError(
            f"non-finite predicted return {pred[i]} of eval trajectory {eval_set[i].id!r}", step=0
        )
    gt_norm, _ = _min_max(gt)
    pred_norm, pred_degenerate = _min_max(pred)
    if pred_degenerate:
        rho, pearson = 0.0, 0.0
    else:
        rho = spearman(gt, pred)
        pearson = pearson_r(gt, pred)
    keep = gt_norm >= ACCURACY_GT_NORM_FLOOR
    accuracy = float((pred_norm[keep] / gt_norm[keep]).mean())
    bins = np.minimum((gt_norm * n_bins).astype(int), n_bins - 1)
    per_bin = [
        float(pred_norm[bins == b].std()) if np.any(bins == b) else float("nan")
        for b in range(n_bins)
    ]
    finite = [v for v in per_bin if not np.isnan(v)]
    qualities = [t.meta.get("quality") for t in eval_set]
    rows = [
        ReportRow(
            traj_id=t.id,
            quality=None if qualities[i] is None else float(qualities[i]),
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
        mean_bin_std=float(np.mean(finite)),
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
# CSV emission: a header, then one line per row in a fixed column order,
# written whole by fileio.write_lines.  _cell is the one cell rule: None is
# an empty cell (a failed method's row keeps the schema), a float has 9
# significant digits (fmt9) and anything else is its str.


def fmt9(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".9g")


def _cell(value) -> str:
    return fmt9(value) if value is None or isinstance(value, float) else str(value)


def write_table(path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV table of columns, one line per row of cells (see _cell)."""
    lines = (",".join(map(_cell, row)) for row in rows)
    write_lines(path, itertools.chain([",".join(columns)], lines))


def _by_method(entries, fields: Sequence[str]):
    """A (method, *result's fields) row per (method, result) entry; a
    failed method's None result gives a row of empty cells."""
    get = attrgetter(*fields)
    return ((m, *((None,) * len(fields) if r is None else get(r))) for m, r in entries)


def write_extrapolation_csv(path, report: ExtrapolationReport) -> None:
    columns = ("traj_id", "quality", "gt_return", "pred_return", "gt_norm", "pred_norm", "bin")
    write_table(path, columns, map(attrgetter(*columns), report.rows))


def write_summary_csv(path, entries: Sequence[tuple[str, ExtrapolationReport | None]]) -> None:
    """entries: (method, report), a failed method's report None."""
    write_table(
        path,
        ("method", "accuracy_ratio", "spearman", "pearson", "mean_bin_std"),
        _by_method(entries, ("accuracy_ratio", "spearman_rho", "pearson_r", "mean_bin_std")),
    )


def write_policy_table_csv(path, entries: Sequence[tuple[str, PolicyTableRow | None]]) -> None:
    """entries: (method, row), a failed method's row None."""
    fields = ("avg", "std", "n_trials", "n_models", "per_trial_std_mean")
    write_table(path, ("method", *fields), _by_method(entries, fields))


def write_sweep_csv(path, records: Sequence[dict]) -> None:
    """records: dicts of the columns, the last three floats."""
    columns = ("step_size", "trial", "model", "gt_return", "trial_std", "step_mean")
    write_table(path, columns, map(itemgetter(*columns), records))


def write_loss_csv(path, losses: np.ndarray) -> None:
    write_table(path, ("step", "loss"), enumerate(np.asarray(losses, dtype=np.float64).tolist()))
