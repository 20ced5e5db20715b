"""Learned state-reward model trained with a pairwise ranking loss.

The model scores single states; a snippet's score is the undiscounted sum
of its per-state predictions.  For an ordered pair the loss is
log(1 + exp(S_lo - S_hi)), the two-alternative ranking likelihood, and is
evaluated in log-sum-exp form so extreme margins neither overflow nor
produce NaN.  Gradients are analytic: dL/dS_hi = -sigmoid(S_lo - S_hi),
dL/dS_lo = +sigmoid(S_lo - S_hi), back-propagated through the state sums.

Training compiles the pair set once, without Python loops over states,
into a unique-state table and one CSR row of state multiplicities per
snippet.  Every snippet is a window of a parent trajectory, so the table
comes from each parent's rows, laid out once from its snippets (which
must agree with them) and byte-deduplicated, then sorted by value; no
copy of every snippet row is ever held.  Batches are drawn and gathered
BATCH_BLOCK steps at a time: one repeat-and-offset index collects every
snippet's rows, a (steps, table rows) mask marks the rows each step
touches, and one running count over it ranks them.  Each step then
forwards only its own touched rows, and checks its loss, before the next
step's parameters exist.  On the grid environment this collapses
thousands of snippet states to at most 64 rows per step.  The draws, the
forwarded rows, their order and the order of every sum are those of a
per-step, per-snippet np.unique build, so training is bit-identical to it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    EmptyPairError,
    InvalidTrajectoryError,
)
from .fileio import atomic_write
from .mlp import MLP
from .seeding import derive_seed
from .snippets import SnippetPair
from .trajectory import Trajectory

CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    """Minibatch gradient-descent settings for ranking-loss training."""

    learning_rate: float = 1e-4
    steps: int = 5000
    batch_size: int = 16
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be >= 0, got {self.l2}")


@dataclass
class RewardModel:
    """MLP over state features; output is a scalar reward."""

    net: MLP

    def __post_init__(self) -> None:
        if self.net.out_dim != 1:
            raise ConfigError(f"reward net must have 1 output, got {self.net.out_dim}")

    @property
    def feature_dim(self) -> int:
        return self.net.in_dim

    def copy(self) -> "RewardModel":
        return RewardModel(net=self.net.copy())


@dataclass
class RewardEnsemble:
    """Uniform average of several reward models.

    Scores are the mean of the members' per-state predictions, so any
    place that accepts a RewardModel for prediction also accepts an
    ensemble.  Averaging independently trained members damps the
    per-model scatter that pairwise training leaves in the reward.
    """

    members: Sequence[RewardModel]

    def __post_init__(self) -> None:
        if len(self.members) == 0:
            raise ConfigError("ensemble needs at least one member")
        dims = {m.feature_dim for m in self.members}
        if len(dims) != 1:
            raise ConfigError(f"ensemble members disagree on feature_dim: {sorted(dims)}")

    @property
    def feature_dim(self) -> int:
        return self.members[0].feature_dim


def make_reward_model(
    feature_dim: int, hidden_width: int = 64, n_hidden: int = 3, seed: int = 0
) -> RewardModel:
    if n_hidden < 1:
        raise ConfigError(f"n_hidden must be >= 1, got {n_hidden}")
    widths = [feature_dim] + [hidden_width] * n_hidden + [1]
    return RewardModel(net=MLP.create(widths, seed=derive_seed(seed, "reward-model")))


def predict_states(model, states: np.ndarray) -> np.ndarray:
    """Per-state rewards for a (n, feature_dim) batch.

    Accepts a RewardModel or a RewardEnsemble.
    """
    if isinstance(model, RewardEnsemble):
        return np.mean([predict_states(m, states) for m in model.members], axis=0)
    return model.net.predict(states)[:, 0]


def predict_state(model, state: np.ndarray) -> float:
    state = np.asarray(state, dtype=np.float64)
    if state.ndim != 1 or state.shape[0] != model.feature_dim:
        raise ValueError(
            f"state must be a length-{model.feature_dim} vector, got shape {state.shape}"
        )
    return float(predict_states(model, state[None, :])[0])


def _states_of(item) -> np.ndarray:
    if isinstance(item, Trajectory):
        return item.states
    states = getattr(item, "states", None)
    if states is None:
        states = np.asarray(item, dtype=np.float64)
    return states


def predict_return(model, item) -> float:
    """Undiscounted sum of per-state predictions over a snippet, a
    trajectory, or a raw (n, feature_dim) array."""
    states = _states_of(item)
    if states.ndim != 2 or states.shape[0] == 0:
        raise ValueError(f"need a non-empty (n, d) state sequence, got shape {states.shape}")
    return float(predict_states(model, states).sum())


def _logistic(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # C's exp returns inf here, and 1 / inf is 0.0
        return 0.0


def _expit(z) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-z)), bit for bit what scipy.special.expit
    gives: both use the C library's exp, which numpy's SIMD exp does not
    match in the last bit on every input.  Only an input below about -709.78
    overflows math.exp; a batch holding one takes the per-element path."""
    z = np.asarray(z, dtype=np.float64)
    values = z.ravel().tolist()
    exp = math.exp
    try:
        out = [1.0 / (1.0 + exp(-v)) for v in values]
    except OverflowError:
        out = [_logistic(v) for v in values]
    return np.array(out).reshape(z.shape)


def pair_loss(model: RewardModel, pair: SnippetPair) -> float:
    """log(1 + exp(S_lo - S_hi)), stable for any margin."""
    z = predict_return(model, pair.lo) - predict_return(model, pair.hi)
    return float(np.logaddexp(0.0, z))


def pair_grad(model: RewardModel, pair: SnippetPair) -> np.ndarray:
    """Analytic parameter gradient of pair_loss, laid out like net.params
    (in the net's gradient buffer, which its next backward overwrites)."""
    states = np.concatenate([pair.lo.states, pair.hi.states], axis=0)
    out, cache = model.net.forward(states)
    n_lo = pair.lo.states.shape[0]
    z = float(out[:n_lo, 0].sum() - out[n_lo:, 0].sum())
    g = float(_expit(z))
    d_out = np.empty((states.shape[0], 1))
    d_out[:n_lo, 0] = g
    d_out[n_lo:, 0] = -g
    return model.net.backward(cache, d_out)


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """A contiguous 2-d array's rows as one raw-byte (void) value each."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


@dataclass
class TrainResult:
    model: RewardModel
    losses: np.ndarray  # per-step mean batch loss (data term only)
    config: TrainConfig


class CompiledPairs(Sequence):
    """Pair set re-indexed over globally unique states.

    It is still the sequence of its pairs, so every model trained on one
    pair set can share one compilation: ``train`` accepts it in place of
    the pairs.

    Snippets are deduplicated by (parent_id, start, length).  Every snippet
    is a window of a parent trajectory, so each parent's rows are laid out
    once, over [0, max(start + length)), from its snippets, and a snippet
    object whose states differ from those rows, by value, is refused: a
    key, and an overlap of windows, stands for one content (where windows
    differ only in the sign of a zero, the rows hold the last window's
    bytes).  Only the covered rows are
    deduplicated, never a stacked copy of every snippet row.  Viewed as raw
    bytes they are byte-uniqued, and only the distinct rows (no more than
    the demos hold, because the GA copies states rather than creating them)
    are sorted by value with ``np.unique(axis=0)``.  That is what one
    ``np.unique(axis=0)`` over every snippet state gives: the same table in
    the same order, rows that differ only in the sign of a zero merged.
    Each snippet is a CSR row (``indptr``, ``indices`` ascending,
    ``counts``) of multiplicities over the table, decoded from one
    ``np.unique`` over (snippet, state) keys.
    """

    def __init__(self, pairs: Sequence[SnippetPair]):
        if len(pairs) == 0:
            raise EmptyPairError("no training pairs given")
        self.pairs = list(pairs)
        snippet_index: dict[tuple, int] = {}
        snippets, objects = [], {}
        lo_idx, hi_idx = [], []
        for pair in pairs:
            for snip, acc in ((pair.lo, lo_idx), (pair.hi, hi_idx)):
                pos = snippet_index.setdefault(snip.key, len(snippets))
                if pos == len(snippets):
                    snippets.append(snip)
                objects[id(snip)] = snip
                acc.append(pos)
        self.lo_idx = np.asarray(lo_idx)
        self.hi_idx = np.asarray(hi_idx)
        # every parent's rows [0, max(start + length)), one parent after another
        offset: dict[str, int] = {}
        for snip in snippets:
            if snip.start < 0:
                raise InvalidTrajectoryError(f"snippet {snip.key} starts before its parent")
            offset[snip.parent_id] = max(offset.get(snip.parent_id, 0), snip.start + snip.length)
        n_rows = 0
        for parent, extent in offset.items():
            offset[parent], n_rows = n_rows, n_rows + extent
        rows = np.empty((n_rows, snippets[0].states.shape[1]))
        covered = np.zeros(n_rows, dtype=bool)
        starts = np.array([offset[s.parent_id] + s.start for s in snippets])
        for snip, a in zip(snippets, starts.tolist()):
            rows[a : a + snip.length] = snip.states
            covered[a : a + snip.length] = True
        for snip in objects.values():
            a = offset[snip.parent_id] + snip.start
            if not np.array_equal(rows[a : a + snip.length], snip.states):
                raise InvalidTrajectoryError(
                    f"snippet {snip.key} carries states that differ from its parent's rows "
                    "(or are NaN); snippets must agree wherever their windows meet"
                )
        distinct, byte_inverse = np.unique(_row_bytes(rows[covered]), return_inverse=True)
        self.unique_states, value_inverse = np.unique(
            distinct.view(np.float64).reshape(len(distinct), -1), axis=0, return_inverse=True
        )
        table_row = np.zeros(n_rows, dtype=np.intp)
        table_row[covered] = value_inverse.ravel()[byte_inverse]
        lengths = np.array([s.length for s in snippets])
        ends = np.cumsum(lengths)
        inverse = table_row[np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)]
        n_unique = len(self.unique_states)
        owner = np.repeat(np.arange(len(snippets)), lengths)
        keys, counts = np.unique(owner * n_unique + inverse, return_counts=True)
        self.indices = keys % n_unique
        self.counts = counts.astype(np.float64)
        per_snippet = np.bincount(keys // n_unique, minlength=len(snippets))
        self.indptr = np.concatenate([[0], np.cumsum(per_snippet)])

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def block_arrays(self, batches: np.ndarray) -> "_BatchBlock":
        """Everything a block of training steps needs from their (k, B)
        pair-index batches, gathered at once: per step, the table rows its
        snippets touch (ascending) and per side of its pairs, lo sides first,
        the positions of their states among those rows, the multiplicities
        and segment ids.  A step's touched rows are marked in a (k, n_unique)
        mask whose one running count ranks them within and across steps."""
        k, size = batches.shape
        n_segs = 2 * size
        n_unique = len(self.unique_states)
        sids = np.concatenate([self.lo_idx[batches], self.hi_idx[batches]], axis=1).ravel()
        starts = self.indptr[sids]
        sizes = self.indptr[sids + 1] - starts
        ends = np.cumsum(sizes)
        gather = np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)
        seg_ids = np.repeat(np.tile(np.arange(n_segs), k), sizes)
        entry_ptr = np.concatenate([[0], ends[n_segs - 1 :: n_segs]])
        step_of = np.repeat(np.arange(k), np.diff(entry_ptr))
        flat_idx = step_of * n_unique + self.indices[gather]
        touched = np.zeros(k * n_unique, dtype=bool)
        touched[flat_idx] = True
        rank = np.cumsum(touched)
        row_ptr = np.concatenate([[0], rank[n_unique - 1 :: n_unique]])
        return _BatchBlock(
            rows=np.flatnonzero(touched) % n_unique,
            row_ptr=row_ptr.tolist(),
            pos=rank[flat_idx] - 1 - row_ptr[step_of],
            counts=self.counts[gather],
            seg_ids=seg_ids,
            entry_ptr=entry_ptr.tolist(),
        )


@dataclass
class _BatchBlock:
    """Batch arrays of consecutive training steps, step j's entries at
    [entry_ptr[j], entry_ptr[j + 1]) and its rows at [row_ptr[j], row_ptr[j + 1])."""

    rows: np.ndarray
    row_ptr: list[int]
    pos: np.ndarray
    counts: np.ndarray
    seg_ids: np.ndarray
    entry_ptr: list[int]


# Training steps whose batches are drawn and gathered together; the batches
# and every result are those of drawing and gathering them one step at a time.
BATCH_BLOCK = 64


def train(model: RewardModel, pairs: Sequence[SnippetPair], cfg: TrainConfig) -> TrainResult:
    """Minibatch gradient descent on the ranking loss.

    The input model is left untouched; a trained copy is returned together
    with the per-step mean batch loss (data term only).  Batches are drawn
    with replacement from a generator seeded by cfg.seed, so a fixed seed
    reproduces parameters bit-exactly.  pairs may be a CompiledPairs, which
    skips compiling them again.
    """
    if len(pairs) == 0:
        raise EmptyPairError("no training pairs given")
    trained = model.copy()
    if cfg.steps == 0:
        return TrainResult(model=trained, losses=np.empty(0), config=cfg)
    compiled = pairs if isinstance(pairs, CompiledPairs) else CompiledPairs(pairs)
    rng = np.random.default_rng(derive_seed(cfg.seed, "train-batches"))
    net = trained.net
    half = cfg.batch_size
    n_segs = 2 * half
    losses = np.empty(cfg.steps)
    for first in range(0, cfg.steps, BATCH_BLOCK):
        n_steps = min(BATCH_BLOCK, cfg.steps - first)
        block = compiled.block_arrays(rng.integers(len(compiled), size=(n_steps, half)))
        X_block = compiled.unique_states[block.rows]
        for j in range(n_steps):
            step = first + j
            r0, r1 = block.row_ptr[j], block.row_ptr[j + 1]
            e0, e1 = block.entry_ptr[j], block.entry_ptr[j + 1]
            pos, cnt, seg_ids = block.pos[e0:e1], block.counts[e0:e1], block.seg_ids[e0:e1]
            out, cache = net.forward(X_block[r0:r1])
            sums = np.bincount(seg_ids, weights=cnt * out[:, 0][pos], minlength=n_segs)
            z = sums[:half] - sums[half:]
            loss = float(np.add.reduce(np.logaddexp(0.0, z)) / half)
            losses[step] = loss
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite training loss {loss} at step {step}", step=step)
            g = _expit(z) / cfg.batch_size
            seg_grad = np.concatenate([g, -g])
            d_rewards = np.bincount(pos, weights=cnt * seg_grad[seg_ids], minlength=r1 - r0)
            net.apply_grads(net.backward(cache, d_rewards[:, None]), cfg.learning_rate, cfg.l2)
    return TrainResult(model=trained, losses=losses, config=cfg)


def ordering_fraction(model: RewardModel, pairs: Sequence[SnippetPair]) -> float:
    """Fraction of pairs the model scores in the labeled order."""
    if len(pairs) == 0:
        raise EmptyPairError("no pairs to score")
    correct = sum(
        1 for p in pairs if predict_return(model, p.hi) > predict_return(model, p.lo)
    )
    return correct / len(pairs)


def save_model(model: RewardModel, path, train_config: TrainConfig | None = None) -> None:
    """JSON checkpoint; float repr round-trips bit-exactly."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "reward_mlp",
        **model.net.to_dict(),
        "train_config": None if train_config is None else dataclasses.asdict(train_config),
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> RewardModel:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigError(
            f"unsupported checkpoint version {payload.get('format_version')!r} in {path}"
        )
    if payload.get("kind") != "reward_mlp":
        raise ConfigError(f"not a reward checkpoint: {path}")
    return RewardModel(net=MLP.from_dict(payload))
