"""Reference copies of the training code that genil's faster paths must
match bit for bit.

ReferenceMLP is MLP as it was when each layer held its own weight and bias
arrays: out-of-place forward, one gemm per layer in backward (also for a
one-column layer) and a per-layer update.  batch_arrays is the per-step
batch gather of reward training, before batches were gathered a block of
steps at a time.  reference_train and reference_train_bc are the training
loops of reward_net.train and baselines.train_bc (over batch rows) over
these copies, one model at a time.  reference_train_whole_table and
reference_train_bc_distinct are plain one-model loops of the algorithms
that models trained together use: the whole-table steps of a
reward_net.train_stacked stack, and baselines.train_bc over distinct demo
rows.
"""

import numpy as np
from scipy.special import expit

from genil.envs import ENV_GRIDNAV, GRID_N_ACTIONS
from genil.errors import DivergenceError
from genil.mlp import MLP
from genil.reward_net import CompiledPairs
from genil.seeding import derive_seed


class ReferenceMLP:
    """Per-layer parameter arrays copied from an MLP.  ``transpose`` gives
    the W.T of backward; a contiguous copy there is a known bit-moving
    variant, used to show that the comparisons can fail."""

    def __init__(self, net, transpose=np.transpose):
        self.weights = [w.copy() for w in net.weights]
        self.biases = [b.copy() for b in net.biases]
        self.transpose = transpose

    def forward(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        activations = [X]
        h = X
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                h = np.maximum(h, 0.0)
            activations.append(h)
        return h, activations

    def backward(self, activations, d_out):
        grads = [None] * len(self.weights)
        delta = np.asarray(d_out, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            grads[i] = (activations[i].T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = delta @ self.transpose(self.weights[i])
                delta = delta * (activations[i] > 0.0)
        return grads

    def apply_grads(self, grads, learning_rate):
        for i, (dw, db) in enumerate(grads):
            self.weights[i] = self.weights[i] - learning_rate * dw
            self.biases[i] = self.biases[i] - learning_rate * db

    def get_flat(self):
        return np.concatenate([p.ravel() for wb in zip(self.weights, self.biases) for p in wb])


def batch_arrays(compiled: CompiledPairs, batch):
    """For a batch of pair indices: local unique-state rows, and per side
    (row positions, multiplicities, segment ids), lo sides first."""
    sids = np.concatenate([compiled.lo_idx[batch], compiled.hi_idx[batch]])
    starts = compiled.indptr[sids]
    sizes = compiled.indptr[sids + 1] - starts
    seg_ids = np.repeat(np.arange(len(sids)), sizes)
    ends = np.cumsum(sizes)
    gather = np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)
    all_idx = compiled.indices[gather]
    all_cnt = compiled.counts[gather]
    touched = np.zeros(len(compiled.unique_states), dtype=bool)
    touched[all_idx] = True
    local_rows = np.flatnonzero(touched)
    local_pos = (np.cumsum(touched) - 1)[all_idx]
    return local_rows, local_pos, all_cnt, seg_ids, len(sids)


def block_step(block, j):
    """Step j of a one-member CompiledPairs.block_arrays block, as the first
    four arrays batch_arrays returns, its forwarded rows as their states."""
    e0, e1 = block.entry_ptr[j], block.entry_ptr[j + 1]
    return block.inputs[j], block.pos[e0:e1], block.counts[e0:e1], block.seg_ids[e0:e1]


def reference_train(model, pairs, cfg, seed, transpose=np.transpose):
    """reward_net.train, one batch gather per step; returns (net, losses)."""
    net = ReferenceMLP(model.net, transpose)
    compiled = CompiledPairs(pairs)
    rng = np.random.default_rng(derive_seed(seed, "train-batches"))
    half = cfg.batch_size
    losses = np.empty(cfg.steps)
    for step in range(cfg.steps):
        batch = rng.integers(len(compiled), size=cfg.batch_size)
        local_rows, local_pos, cnt, seg_ids, n_segs = batch_arrays(compiled, batch)
        out, cache = net.forward(compiled.unique_states[local_rows])
        rewards = out[:, 0]
        sums = np.bincount(seg_ids, weights=cnt * rewards[local_pos], minlength=n_segs)
        z = sums[:half] - sums[half:]
        losses[step] = float(np.logaddexp(0.0, z).mean())
        if not np.isfinite(losses[step]):
            raise DivergenceError(f"non-finite training loss at step {step}", step=step)
        g = expit(z) / cfg.batch_size
        seg_grad = np.concatenate([g, -g])
        d_rewards = np.bincount(
            local_pos, weights=cnt * seg_grad[seg_ids], minlength=len(local_rows)
        )
        grads = net.backward(cache, d_rewards[:, None])
        net.apply_grads(grads, cfg.learning_rate)
    return net, losses


def bc_grad(classify, out, actions):
    """train_bc's gradient of the batch-mean loss at each batch row's outputs."""
    if not classify:
        return 2.0 * (out - actions[:, None]) / len(actions)
    shifted = out - out.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(len(actions)), actions.astype(int)] -= 1.0
    probs /= len(actions)
    return probs


def reference_train_bc(demos, spec, seed):
    """baselines.train_bc, validation left out: two hidden layers of 64,
    2000 steps of batch 64 at learning rate 1e-2; returns the net."""
    X = np.concatenate([t.states for t in demos], axis=0)
    y = np.concatenate([t.actions for t in demos], axis=0)
    classify = spec.name == ENV_GRIDNAV
    out_dim = GRID_N_ACTIONS if classify else 1
    widths = [spec.feature_dim, 64, 64, out_dim]
    net = ReferenceMLP(MLP.create(widths, seed=derive_seed(seed, "bc-init")))
    rng = np.random.default_rng(derive_seed(seed, "bc-batches"))
    n = X.shape[0]
    for _ in range(2000):
        batch = rng.integers(n, size=min(64, n))
        out, cache = net.forward(X[batch])
        net.apply_grads(net.backward(cache, bc_grad(classify, out, y[batch])), 1e-2)
    return net


def reference_train_whole_table(model, pairs, cfg, seed):
    """One member of a reward_net.train_stacked stack: each step forwards
    the whole unique-state table, and the snippet sums and the table rows'
    gradients are train's bincounts over the batch's (segment, table row)
    entries; returns (net, losses)."""
    net = ReferenceMLP(model.net)
    compiled = CompiledPairs(pairs)
    rng = np.random.default_rng(derive_seed(seed, "train-batches"))
    half = cfg.batch_size
    losses = np.empty(cfg.steps)
    for step in range(cfg.steps):
        batch = rng.integers(len(compiled), size=half)
        local_rows, local_pos, cnt, seg_ids, n_segs = batch_arrays(compiled, batch)
        rows = local_rows[local_pos]
        out, cache = net.forward(compiled.unique_states)
        sums = np.bincount(seg_ids, weights=cnt * out[:, 0][rows], minlength=n_segs)
        z = sums[:half] - sums[half:]
        losses[step] = float(np.logaddexp(0.0, z).mean())
        if not np.isfinite(losses[step]):
            raise DivergenceError(f"non-finite training loss at step {step}", step=step)
        g = expit(z) / half
        seg_grad = np.concatenate([g, -g])
        d_rewards = np.bincount(rows, weights=cnt * seg_grad[seg_ids], minlength=len(out))
        net.apply_grads(net.backward(cache, d_rewards[:, None]), cfg.learning_rate)
    return net, losses


def reference_train_bc_distinct(demos, spec, seed):
    """One GridNav clone of baselines.train_bc when the demos hold fewer
    distinct rows than a batch: each step forwards the distinct rows, and
    each batch row's gradient, taken at its distinct row's outputs, is
    added to that row, in batch order."""
    X = np.concatenate([t.states for t in demos], axis=0)
    y = np.concatenate([t.actions for t in demos], axis=0)
    distinct, row_of = np.unique(X, axis=0, return_inverse=True)
    row_of = row_of.ravel()
    widths = [spec.feature_dim, 64, 64, GRID_N_ACTIONS]
    net = ReferenceMLP(MLP.create(widths, seed=derive_seed(seed, "bc-init")))
    rng = np.random.default_rng(derive_seed(seed, "bc-batches"))
    n = X.shape[0]
    assert len(distinct) < min(64, n)
    for _ in range(2000):
        batch = rng.integers(n, size=min(64, n))
        out, cache = net.forward(distinct)
        per_row = bc_grad(True, out[row_of[batch]], y[batch])
        d_out = np.zeros_like(out)
        for i, g in zip(batch.tolist(), per_row):
            d_out[row_of[i]] += g
        net.apply_grads(net.backward(cache, d_out), 1e-2)
    return net
