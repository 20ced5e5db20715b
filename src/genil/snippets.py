"""Snippet subsampling and pairwise training-pair construction.

A ranked dataset is cut into short contiguous windows; each window's label
is the mean of the parent's per-step ranks over the window.  Training
pairs are drawn uniformly from the set of snippet pairs whose label gap
meets a margin, oriented so the higher-labeled snippet is always `hi`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyPairError, InvalidTrajectoryError
from .fileio import atomic_write
from .genetics import RankedDataset
from .seeding import derive_seed


@dataclass
class Snippet:
    """Contiguous slice of a trajectory with its mean-rank label."""

    parent_id: str
    start: int
    length: int
    states: np.ndarray  # (length, feature_dim) view into the parent
    rank_label: float

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ConfigError(f"snippet length must be >= 1, got {self.length}")
        if self.states.shape[0] != self.length:
            raise InvalidTrajectoryError(
                f"snippet states have {self.states.shape[0]} rows, expected {self.length}"
            )

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.parent_id, self.start, self.length)


@dataclass
class SnippetPair:
    """Oriented pair: hi strictly outranks lo."""

    lo: Snippet
    hi: Snippet

    def __post_init__(self) -> None:
        if not self.hi.rank_label > self.lo.rank_label:
            raise EmptyPairError(
                f"pair is not strictly ordered: hi label {self.hi.rank_label} "
                f"vs lo label {self.lo.rank_label}"
            )

    @property
    def margin(self) -> float:
        return self.hi.rank_label - self.lo.rank_label


def subsample(
    dataset: RankedDataset,
    n_snippets: int,
    min_len: int,
    max_len: int,
    seed: int,
) -> list[Snippet]:
    """n_snippets windows: parent uniform, length uniform in [min_len,
    max_len], start uniform over valid offsets."""
    if n_snippets < 2:
        raise ConfigError(f"n_snippets must be >= 2, got {n_snippets}")
    if not 1 <= min_len <= max_len:
        raise ConfigError(f"need 1 <= min_len <= max_len, got [{min_len}, {max_len}]")
    for traj in dataset.trajectories:
        if len(traj) < max_len:
            raise ConfigError(
                f"max_len {max_len} exceeds trajectory {traj.id!r} length {len(traj)}"
            )
        if traj.step_ranks is None:
            raise InvalidTrajectoryError(f"trajectory {traj.id!r} has no step ranks")
    rng = np.random.default_rng(derive_seed(seed, "subsample"))
    trajs = dataset.trajectories
    out: list[Snippet] = []
    for _ in range(n_snippets):
        traj = trajs[int(rng.integers(len(trajs)))]
        length = int(rng.integers(min_len, max_len + 1))
        start = int(rng.integers(0, len(traj) - length + 1))
        out.append(
            Snippet(
                parent_id=traj.id,
                start=start,
                length=length,
                states=traj.states[start : start + length],
                rank_label=float(traj.step_ranks[start : start + length].mean()),
            )
        )
    return out


def make_pairs(
    snippets: Sequence[Snippet],
    n_pairs: int,
    min_margin: float = 0.5,
    seed: int = 0,
) -> list[SnippetPair]:
    """n_pairs pairs, uniform with replacement over all qualifying pairs.

    A pair (lo, hi) qualifies when hi.rank_label - lo.rank_label is both
    strictly positive and >= min_margin.  Sampling sorts snippets by label
    and counts qualifying partners per snippet, so the draw is exactly
    uniform without materializing the pair set.
    """
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be >= 1, got {n_pairs}")
    if min_margin < 0:
        raise ConfigError(f"min_margin must be >= 0, got {min_margin}")
    if len(snippets) < 2:
        raise EmptyPairError(f"need >= 2 snippets, have {len(snippets)}")
    labels = np.asarray([s.rank_label for s in snippets])
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    first_hi = np.searchsorted(sorted_labels, sorted_labels, side="right")
    if min_margin > 0:
        # maximum() keeps strict ordering when adding a tiny margin rounds
        # back to the label itself
        at_margin = np.searchsorted(
            sorted_labels, sorted_labels + min_margin, side="left"
        )
        first_hi = np.maximum(first_hi, at_margin)
    counts = len(snippets) - first_hi
    total = int(counts.sum())
    if total == 0:
        raise EmptyPairError(
            f"no snippet pair has margin >= {min_margin} "
            f"(label spread {sorted_labels[-1] - sorted_labels[0]:g})"
        )
    cumulative = np.cumsum(counts)
    rng = np.random.default_rng(derive_seed(seed, "make-pairs"))
    draws = rng.integers(total, size=n_pairs)
    lo_pos = np.searchsorted(cumulative, draws, side="right")
    hi_pos = first_hi[lo_pos] + (draws - (cumulative[lo_pos] - counts[lo_pos]))
    return [
        SnippetPair(lo=snippets[order[i]], hi=snippets[order[j]])
        for i, j in zip(lo_pos, hi_pos)
    ]


def save_pairs(path, pairs: Sequence[SnippetPair]) -> None:
    """Line-delimited JSON; snippets stored by reference, not by states."""
    with atomic_write(path) as fh:
        for pair in pairs:
            record = {
                "lo": _snippet_ref(pair.lo),
                "hi": _snippet_ref(pair.hi),
            }
            fh.write(json.dumps(record) + "\n")


def load_pairs(path, dataset: RankedDataset) -> list[SnippetPair]:
    """Rebuild pairs by slicing the dataset; labels are recomputed and
    checked against the stored values."""
    pairs = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            record = json.loads(line)
            pairs.append(
                SnippetPair(
                    lo=_resolve_ref(record["lo"], dataset, path, line_no),
                    hi=_resolve_ref(record["hi"], dataset, path, line_no),
                )
            )
    return pairs


def _snippet_ref(snip: Snippet) -> dict:
    return {
        "parent_id": snip.parent_id,
        "start": snip.start,
        "length": snip.length,
        "rank": snip.rank_label,
    }


def _resolve_ref(ref: dict, dataset: RankedDataset, path, line_no: int) -> Snippet:
    traj = dataset.get(ref["parent_id"])
    start, length = int(ref["start"]), int(ref["length"])
    label = float(traj.step_ranks[start : start + length].mean())
    if label != float(ref["rank"]):
        raise InvalidTrajectoryError(
            f"{path}:{line_no}: stored rank {ref['rank']} does not match "
            f"recomputed label {label} for {ref['parent_id']}[{start}:{start + length}]"
        )
    return Snippet(
        parent_id=ref["parent_id"],
        start=start,
        length=length,
        states=traj.states[start : start + length],
        rank_label=label,
    )
