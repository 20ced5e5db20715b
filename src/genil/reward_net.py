"""Learned state-reward model trained with a pairwise ranking loss.

The model scores single states; a snippet's score is the undiscounted sum
of its per-state predictions.  Outside training a reward is a function
from an (n, d) state batch to n rewards: functools.partial(predict_states,
model) is a model's, and policy derivation and the extrapolation metrics
take nothing else.  For an ordered pair the loss is
log(1 + exp(S_lo - S_hi)), the two-alternative ranking likelihood, and is
evaluated in log-sum-exp form so extreme margins neither overflow nor
produce NaN.  Gradients are analytic: dL/dS_hi = -sigmoid(S_lo - S_hi),
dL/dS_lo = +sigmoid(S_lo - S_hi), back-propagated through the state sums.
The loss, its gradient and the divergence check live in _ranking_loss
only, the batch stream in _batch_blocks, and the one training loop in
_train_loop, which steps one model or a stack of K; train is its one
entry.  Acceptance criterion 03 checks the loss through train: a one-step
train on one pair at learning rate 1 gives that pair's loss, and its
gradient as the parameters' change.

Training compiles the pair set once, without Python loops over states,
into a unique-state table and one CSR row of state multiplicities per
snippet.  Every snippet is a window of a parent trajectory, so the table
comes from each parent's rows, laid out once from its snippets (which
must agree with them) and byte-deduplicated, then sorted by value; no
copy of every snippet row is ever held.  The CSR rows come from one
(snippet, table row) key per snippet row, sorted in place, whose runs of
equal keys are the entries and run lengths the multiplicities.  Batches
are drawn and gathered BATCH_BLOCK (16) steps at a time: one
repeat-and-offset index collects every snippet's rows, a (steps, table
rows) mask marks the rows each step touches, and one running count over
it ranks them.  A block's arrays hold about 16 x 720 entries on
PointChase, so what training holds does not grow with the step count.
Each step then forwards only its own touched rows, and checks its loss,
before the next step's parameters exist.  On the grid environment this
collapses thousands of snippet states to at most 64 rows per step.  The
draws, the forwarded rows, their order and the order of every sum are
those of a per-step, per-snippet np.unique build, so training is
bit-identical to it.

train takes a list of models and their seeds: run-all's one model, or
the models of one compare or sweep unit on one pair set.  Where a step's
snippets cover the unique-state table several times over (lockstep_pays:
GridNav's few cells), two or more step as one stacked MLP that forwards
the whole table.  Each member's sums are the same np.bincounts over its
own entries as a lone model's, so a stacked member differs from one
trained alone only in the rows it forwards, and its parameters in the
last place.  Otherwise each model trains alone.
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
    CorruptArtifactError,
    DivergenceError,
    EmptyPairError,
    InvalidTrajectoryError,
)
from .fileio import parsing, write_lines
from .mlp import MLP
from .seeding import derive_seed
from .snippets import SnippetPair

CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    """Minibatch gradient-descent settings for ranking-loss training; the
    defaults are the desk [train] section."""

    learning_rate: float = 3e-4
    steps: int = 6000
    batch_size: int = 16

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


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


def make_reward_model(
    feature_dim: int, hidden_width: int = 64, n_hidden: int = 3, seed: int = 0
) -> RewardModel:
    if n_hidden < 1:
        raise ConfigError(f"n_hidden must be >= 1, got {n_hidden}")
    widths = [feature_dim] + [hidden_width] * n_hidden + [1]
    return RewardModel(net=MLP.create(widths, seed=derive_seed(seed, "reward-model")))


def predict_states(model: RewardModel, states: np.ndarray) -> np.ndarray:
    """Per-state rewards for a (n, feature_dim) batch.

    functools.partial(predict_states, model) is the model's reward
    function, the form every consumer of a reward takes.  As in training,
    numpy's overflow and invalid-value warnings are silenced: a diverged
    model's non-finite rewards are refused by value iteration, CEM or the
    extrapolation report."""
    with np.errstate(over="ignore", invalid="ignore"):
        return model.net.predict(states)[:, 0]


def _expit(z: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-z)) over a 1-d float64 array, bit for bit
    what scipy.special.expit gives: both use the C library's exp, which
    numpy's SIMD exp does not match in the last bit on every input.  Only an
    input below about -709.78 overflows math.exp; a batch holding one takes
    the per-element path."""
    exp = math.exp
    try:
        return np.array([1.0 / (1.0 + exp(-v)) for v in z.tolist()])
    except OverflowError:
        out = []
        for v in z.tolist():
            try:
                out.append(1.0 / (1.0 + exp(-v)))
            except OverflowError:  # C's exp returns inf here, and 1 / inf is 0.0
                out.append(0.0)
        return np.array(out)


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """A contiguous 2-d array's rows as one raw-byte (void) value each."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


@dataclass
class TrainResult:
    model: RewardModel
    losses: np.ndarray  # per-step mean batch loss (data term only)


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
    ``counts``) of multiplicities over the table.  Its entries are the runs
    of one (snippet, table row) key array sorted in place, the same entries
    and counts that ``np.unique(keys, return_counts=True)`` gives without
    that call's sorted copy, mask and index temporaries.
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
        # one (snippet, table row) key per snippet row, sorted in place: a
        # run of equal keys is one CSR entry, and its length the multiplicity
        n_unique = len(self.unique_states)
        lengths = np.array([s.length for s in snippets])
        ends = np.cumsum(lengths)
        keys = np.repeat(starts - (ends - lengths), lengths)
        keys += np.arange(ends[-1])
        keys = table_row[keys]
        keys += np.repeat(np.arange(len(snippets)) * n_unique, lengths)
        keys.sort()
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        run_starts = np.flatnonzero(first)
        self.indices = keys[run_starts]
        del first, keys
        self.counts = np.empty(len(run_starts))
        np.subtract(run_starts[1:], run_starts[:-1], out=self.counts[:-1])
        self.counts[-1] = ends[-1] - run_starts[-1]
        self.indptr = np.searchsorted(self.indices, np.arange(len(snippets) + 1) * n_unique)
        self.indices %= n_unique

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def block_arrays(self, batches: np.ndarray) -> "_BatchBlock":
        """Everything a block of training steps needs from the (steps, K, B)
        pair-index batches of K members, gathered at once from the CSR rows:
        per step the rows it forwards, and per entry (member by member, lo
        sides first) its multiplicity, flat (member, segment) id and flat
        position among the outputs.  One member forwards the rows its step
        touches, ranked by one running count over a (steps, n_unique) mask;
        a stack forwards the whole table, member k's row r at k * n_unique + r."""
        steps, n_members, size = batches.shape
        n_segs = 2 * size * n_members
        n_unique = len(self.unique_states)
        sids = np.concatenate([self.lo_idx[batches], self.hi_idx[batches]], axis=2).ravel()
        starts = self.indptr[sids]
        sizes = self.indptr[sids + 1] - starts
        ends = np.cumsum(sizes)
        gather = np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)
        seg_ids = np.repeat(np.tile(np.arange(n_segs), steps), sizes)
        entry_ptr = np.concatenate([[0], ends[n_segs - 1 :: n_segs]])
        table_rows = self.indices[gather]
        if n_members > 1:
            inputs = [self.unique_states] * steps
            pos = seg_ids // (2 * size) * n_unique + table_rows
        else:
            step_of = np.repeat(np.arange(steps), np.diff(entry_ptr))
            flat_idx = step_of * n_unique + table_rows
            touched = np.zeros(steps * n_unique, dtype=bool)
            touched[flat_idx] = True
            rank = np.cumsum(touched)
            row_ptr = np.concatenate([[0], rank[n_unique - 1 :: n_unique]])
            X = self.unique_states[np.flatnonzero(touched) % n_unique]
            inputs = [X[a:b] for a, b in zip(row_ptr.tolist(), row_ptr[1:].tolist())]
            pos = rank[flat_idx] - 1 - row_ptr[step_of]
        return _BatchBlock(inputs, pos, self.counts[gather], seg_ids, entry_ptr.tolist())


@dataclass
class _BatchBlock:
    """Batch arrays of consecutive training steps: step j forwards
    inputs[j], and its entries are at [entry_ptr[j], entry_ptr[j + 1])."""

    inputs: list[np.ndarray]
    pos: np.ndarray
    counts: np.ndarray
    seg_ids: np.ndarray
    entry_ptr: list[int]


# Training steps whose batches are drawn and gathered together; the batches
# and every result are those of drawing and gathering them one step at a time.
# A block's arrays are what training holds beyond the compiled pairs, and at
# 16 steps a step costs no more than at 64.
BATCH_BLOCK = 16


def _batch_blocks(n_pairs: int, cfg: TrainConfig, seeds: Sequence[int], label="train-batches"):
    """(first step, (steps, models, B) pair indices) for each BATCH_BLOCK
    block of cfg.steps, model k's batches drawn with replacement from a
    generator seeded by derive_seed(seeds[k], label); baselines.train_bc
    draws its demo rows here under its own label.  The draws are those
    of drawing each step's batches in turn: numpy's bounded integers do not
    depend on how a stream's draws are split into calls."""
    rngs = [np.random.default_rng(derive_seed(seed, label)) for seed in seeds]
    for first in range(0, cfg.steps, BATCH_BLOCK):
        size = (min(BATCH_BLOCK, cfg.steps - first), cfg.batch_size)
        yield first, np.stack([rng.integers(n_pairs, size=size) for rng in rngs], 1)


def _ranking_loss(sums: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean ranking loss of each of K models' B pairs, and its gradient with
    respect to their snippet sums, from their (K, 2B) sums, lo sides first.
    A non-finite loss raises DivergenceError naming the step, and among two
    or more models the first that diverged."""
    half = sums.shape[-1] // 2
    z = sums[:, :half] - sums[:, half:]
    loss = np.add.reduce(np.logaddexp(0.0, z), -1) / half
    if not np.isfinite(loss).all():
        k = int(np.flatnonzero(~np.isfinite(loss))[0])
        where = f" of model {k}" if len(loss) > 1 else ""
        raise DivergenceError(
            f"non-finite training loss {loss[k]} at step {step}{where}", step=step
        )
    g = _expit(z.ravel()).reshape(z.shape) / half
    return loss, np.concatenate([g, -g], -1)


def train(
    models: Sequence[RewardModel],
    pairs: Sequence[SnippetPair],
    cfg: TrainConfig,
    seeds: Sequence[int],
) -> list[TrainResult]:
    """Minibatch gradient descent on the ranking loss: model k trained on
    pairs with its batches drawn from seeds[k], as one stack where there
    are two or more and lockstep_pays, else one at a time.

    The input models are left untouched; each result holds a trained copy
    and its per-step mean batch loss (data term only), bit-exact for fixed
    seeds.  pairs may be a CompiledPairs, compiled once.
    """
    compiled = pairs if isinstance(pairs, CompiledPairs) else CompiledPairs(pairs)
    if len(models) > 1 and lockstep_pays(compiled, cfg.batch_size):
        return _train_loop(models, compiled, cfg, seeds)
    return [_train_loop([m], compiled, cfg, [s])[0] for m, s in zip(models, seeds)]


def _train_loop(
    models: Sequence[RewardModel], compiled: CompiledPairs, cfg: TrainConfig, seeds: Sequence[int]
) -> list[TrainResult]:
    """The training loop, for one model or a stack of K.

    Model k trains with its batches drawn from seeds[k] (_batch_blocks)
    and its loss, gradient and divergence check from _ranking_loss.  One
    model forwards the rows its step touches; two or more step as one
    stacked MLP over the whole table (CompiledPairs.block_arrays).  A
    member's snippet sums and row gradients are np.bincounts over its own
    entries in a lone model's order, so a stacked member differs from one
    trained alone only in the rows it forwards, and its parameters in the
    last place.  A row with a non-finite layer input makes its member's
    gradient NaN, drawn or not, so a stack can diverge at another step
    than a lone model.  numpy's overflow and invalid-value warnings are
    silenced: a diverging model is refused by _ranking_loss's
    DivergenceError or, where only its last update is not finite, by value
    iteration, CEM or load_model."""
    stacked = len(models) > 1
    net = MLP.stack([m.net for m in models]) if stacked else models[0].net.copy()
    n_segs = 2 * cfg.batch_size
    losses = np.empty((len(models), cfg.steps))
    with np.errstate(over="ignore", invalid="ignore"):
        for first, batches in _batch_blocks(len(compiled), cfg, seeds):
            block = compiled.block_arrays(batches)
            for j, X in enumerate(block.inputs):
                e0, e1 = block.entry_ptr[j], block.entry_ptr[j + 1]
                pos, cnt, seg_ids = block.pos[e0:e1], block.counts[e0:e1], block.seg_ids[e0:e1]
                out, cache = net.forward(X)
                sums = np.bincount(seg_ids, cnt * out.ravel()[pos], len(models) * n_segs)
                losses[:, first + j], seg_grad = _ranking_loss(sums.reshape(-1, n_segs), first + j)
                d_rewards = np.bincount(pos, cnt * seg_grad.ravel()[seg_ids], out.size)
                grads = net.backward(cache, d_rewards.reshape(out.shape))
                net.apply_grads(grads, cfg.learning_rate)
    return [
        TrainResult(model=RewardModel(net=member), losses=member_losses)
        for member, member_losses in zip(net.unstack() if stacked else [net], losses)
    ]


# A stack forwards the whole unique-state table every step, where a lone
# model forwards only the rows the step's snippets touch.  A step's 2B
# snippets name about 2B times a snippet's mean number of distinct table
# rows (its CSR entries), a row counted once per snippet that holds it; a
# stack is chosen where that covers the table at least LOCKSTEP_COVER
# times, so that a step touches nearly every row anyway.  Three models as
# one stack took, against three lone models' CPU: 0.57-0.68x on GridNav's
# desk tables (17-26 rows, covered 11-14 times), 0.87-0.95x on its
# T-REX-multi tables (48-57 rows, 3.8-4.3), 0.92-1.03x on PointChase's desk
# tables (191-194 rows, 3.7-3.8) and about 10x on its T-REX-multi ones
# (5457 rows, 0.1).
LOCKSTEP_COVER = 4


def lockstep_pays(pairs: CompiledPairs, batch_size: int) -> bool:
    """Whether a step's snippets cover pairs' unique-state table at least
    LOCKSTEP_COVER times (see there)."""
    n_snippets = len(pairs.indptr) - 1
    table_rows = len(pairs.unique_states)
    return LOCKSTEP_COVER * table_rows * n_snippets <= 2 * batch_size * len(pairs.indices)


def save_model(model: RewardModel, path, train_config: TrainConfig | None = None) -> None:
    """JSON checkpoint; float repr round-trips bit-exactly."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "reward_mlp",
        **model.net.to_dict(),
        "train_config": None if train_config is None else dataclasses.asdict(train_config),
    }
    write_lines(path, [json.dumps(payload)])


def load_model(path) -> RewardModel:
    """The reward model at path, refused with a CorruptArtifactError naming
    path unless it is a reward checkpoint of this version whose network
    parses and whose parameters are finite."""
    with open(path) as fh, parsing(path):
        payload = json.load(fh)
        if payload.get("format_version") != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {payload.get('format_version')!r}")
        if payload.get("kind") != "reward_mlp":
            raise ConfigError(f"not a reward checkpoint (kind {payload.get('kind')!r})")
        model = RewardModel(net=MLP.from_dict(payload))
    if not np.all(np.isfinite(model.net.params)):
        raise CorruptArtifactError(f"malformed artifact {path}: non-finite parameters")
    return model
