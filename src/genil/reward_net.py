"""Learned state-reward model trained with a pairwise ranking loss.

The model scores single states; a snippet's score is the undiscounted sum
of its per-state predictions.  For an ordered pair the loss is
log(1 + exp(S_lo - S_hi)), the two-alternative ranking likelihood, and is
evaluated in log-sum-exp form so extreme margins neither overflow nor
produce NaN.  Gradients are analytic: dL/dS_hi = -sigmoid(S_lo - S_hi),
dL/dS_lo = +sigmoid(S_lo - S_hi), back-propagated through the state sums.

Training compiles the pair set once, without Python loops over snippets
or states, into a unique-state table (byte-deduplicated, then sorted by
value) and one CSR row of state multiplicities per snippet.  Each minibatch
gathers its snippets' rows with one repeat-and-offset index, marks the
table rows they touch, and forwards only those.  On the grid environment
this collapses thousands of snippet states to at most 64 rows per step.
The forwarded rows, their order and the order of every sum are those of a
per-snippet np.unique build, so training is bit-identical to it.
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
    match in the last bit on every input."""
    z = np.asarray(z, dtype=np.float64)
    return np.array([_logistic(v) for v in z.ravel().tolist()]).reshape(z.shape)


def pair_loss(model: RewardModel, pair: SnippetPair) -> float:
    """log(1 + exp(S_lo - S_hi)), stable for any margin."""
    z = predict_return(model, pair.lo) - predict_return(model, pair.hi)
    return float(np.logaddexp(0.0, z))


def pair_grad(model: RewardModel, pair: SnippetPair) -> list[tuple[np.ndarray, np.ndarray]]:
    """Analytic parameter gradient of pair_loss, same shapes as net params."""
    states = np.concatenate([pair.lo.states, pair.hi.states], axis=0)
    out, cache = model.net.forward(states)
    n_lo = pair.lo.states.shape[0]
    z = float(out[:n_lo, 0].sum() - out[n_lo:, 0].sum())
    g = float(_expit(z))
    d_out = np.empty((states.shape[0], 1))
    d_out[:n_lo, 0] = g
    d_out[n_lo:, 0] = -g
    return model.net.backward(cache, d_out)


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

    Snippets are deduplicated by (parent_id, start, length).  Their states
    are deduplicated in two passes: a 1-d sort of the rows viewed as raw
    bytes collapses exact copies, and only the distinct rows left (no more
    than the demos hold, because the GA copies states rather than creating
    them) are sorted by value with ``np.unique(axis=0)``.  Composing the
    two inverses gives what one ``np.unique(axis=0)`` over every state
    gives: the same table in the same order, rows that differ only in the
    sign of a zero merged.  Each snippet is a CSR row (``indptr``,
    ``indices`` ascending, ``counts``) of multiplicities over the table,
    decoded from one ``np.unique`` over (snippet, state) keys.
    """

    def __init__(self, pairs: Sequence[SnippetPair]):
        if len(pairs) == 0:
            raise EmptyPairError("no training pairs given")
        self.pairs = list(pairs)
        snippet_index: dict[tuple, int] = {}
        snippets = []
        lo_idx, hi_idx = [], []
        for pair in pairs:
            for snip, acc in ((pair.lo, lo_idx), (pair.hi, hi_idx)):
                pos = snippet_index.get(snip.key)
                if pos is None:
                    pos = len(snippets)
                    snippet_index[snip.key] = pos
                    snippets.append(snip)
                elif snippets[pos] is not snip and not np.array_equal(
                    snippets[pos].states, snip.states
                ):
                    raise InvalidTrajectoryError(
                        f"snippets sharing the key {snip.key} carry different "
                        "states; snippet keys must identify their content"
                    )
                acc.append(pos)
        self.lo_idx = np.asarray(lo_idx)
        self.hi_idx = np.asarray(hi_idx)
        stacked = np.concatenate([s.states for s in snippets], axis=0)
        row_bytes = stacked.view(np.dtype((np.void, stacked.itemsize * stacked.shape[1])))
        _, first, byte_inverse = np.unique(
            row_bytes.ravel(), return_index=True, return_inverse=True
        )
        self.unique_states, value_inverse = np.unique(
            stacked[first], axis=0, return_inverse=True
        )
        inverse = value_inverse.ravel()[byte_inverse]
        n_unique = len(self.unique_states)
        lengths = [s.length for s in snippets]
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

    def batch_arrays(self, batch: np.ndarray):
        """For a batch of pair indices: local unique-state rows, and per-side
        (row positions, multiplicities, segment ids), lo sides first."""
        sids = np.concatenate([self.lo_idx[batch], self.hi_idx[batch]])
        starts = self.indptr[sids]
        sizes = self.indptr[sids + 1] - starts
        seg_ids = np.repeat(np.arange(len(sids)), sizes)
        ends = np.cumsum(sizes)
        gather = np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)
        all_idx = self.indices[gather]
        all_cnt = self.counts[gather]
        touched = np.zeros(len(self.unique_states), dtype=bool)
        touched[all_idx] = True
        local_rows = np.flatnonzero(touched)
        local_pos = (np.cumsum(touched) - 1)[all_idx]
        return local_rows, local_pos, all_cnt, seg_ids, len(sids)


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
    n_pairs = len(compiled)
    half = cfg.batch_size
    losses = np.empty(cfg.steps)
    for step in range(cfg.steps):
        batch = rng.integers(n_pairs, size=cfg.batch_size)
        local_rows, local_pos, cnt, seg_ids, n_segs = compiled.batch_arrays(batch)
        X = compiled.unique_states[local_rows]
        out, cache = trained.net.forward(X)
        rewards = out[:, 0]
        sums = np.bincount(seg_ids, weights=cnt * rewards[local_pos], minlength=n_segs)
        z = sums[:half] - sums[half:]
        losses[step] = float(np.logaddexp(0.0, z).mean())
        if not np.isfinite(losses[step]):
            raise DivergenceError(
                f"non-finite training loss {losses[step]} at step {step}", step=step
            )
        g = _expit(z) / cfg.batch_size
        seg_grad = np.concatenate([g, -g])
        d_rewards = np.bincount(
            local_pos, weights=cnt * seg_grad[seg_ids], minlength=len(local_rows)
        )
        grads = trained.net.backward(cache, d_rewards[:, None])
        trained.net.apply_grads(grads, cfg.learning_rate, cfg.l2)
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
    with open(path, "w", newline="\n") as fh:
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
