"""Small dense network with rectifier hiddens and hand-written backprop.

Gradients are computed analytically layer by layer so they can be checked
against finite differences; no autodiff dependency.

All parameters live in one vector, ``params``, laid out row-major per
layer (W0, b0, W1, b1, ...); ``weights`` and ``biases`` are tuples of
views into it, so an update to ``params`` shows through them and an
attempt to rebind an entry fails instead of leaving it out of step.
``backward`` writes one gradient vector in the same layout, so a
gradient-descent step is a single vector update.  Forward and backward
work in place where they can, with the floating-point operations, and
their order, of the plain per-layer expressions (``h @ w + b``, a
transposed gemm per layer): training is bit-identical to them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .seeding import derive_seed


class MLP:
    """widths[0] inputs -> rectifier hiddens -> widths[-1] linear outputs."""

    def __init__(self, widths: list[int], weights: list[np.ndarray], biases: list[np.ndarray]):
        self.widths = list(int(w) for w in widths)
        if len(self.widths) < 2:
            raise ConfigError("MLP needs at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"all layer widths must be >= 1, got {self.widths}")
        if len(weights) != len(self.widths) - 1 or len(biases) != len(weights):
            raise ConfigError("parameter count does not match widths")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (self.widths[i], self.widths[i + 1]) or b.shape != (self.widths[i + 1],):
                raise ConfigError(f"layer {i} parameter shapes do not match widths")
        self.params = np.concatenate(
            [np.ravel(p) for layer in zip(weights, biases) for p in layer], dtype=np.float64
        )
        self.weights, self.biases = self._layer_views(self.params)
        self._grads = np.empty_like(self.params)
        self._grad_weights, self._grad_biases = self._layer_views(self._grads)

    def _layer_views(self, flat: np.ndarray) -> tuple[tuple, tuple]:
        """Per-layer (weight, bias) views into a vector laid out like params."""
        weights, biases, offset = [], [], 0
        for fan_in, fan_out in zip(self.widths, self.widths[1:]):
            end = offset + fan_in * fan_out
            weights.append(flat[offset:end].reshape(fan_in, fan_out))
            biases.append(flat[end : end + fan_out])
            offset = end + fan_out
        return tuple(weights), tuple(biases)

    @classmethod
    def create(cls, widths: list[int], seed: int) -> "MLP":
        """Fan-in-scaled uniform weights in (-1/sqrt(fan_in), 1/sqrt(fan_in)),
        zero biases."""
        rng = np.random.default_rng(derive_seed(seed, "mlp-init"))
        weights, biases = [], []
        for fan_in, fan_out in zip(widths, widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(list(widths), weights, biases)

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    @property
    def n_params(self) -> int:
        return self.params.size

    def copy(self) -> "MLP":
        return MLP(self.widths, self.weights, self.biases)

    def __reduce__(self):
        # rebuilt through __init__, so the layers are views of params again
        return (type(self), (self.widths, self.weights, self.biases))

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (outputs (n, out_dim), layer input cache for backward)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.in_dim:
            raise ValueError(f"input has {X.shape[1]} features, model expects {self.in_dim}")
        activations = [X]
        h = X
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
            activations.append(h)
        return h, activations

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]

    def backward(self, activations: list[np.ndarray], d_out: np.ndarray) -> np.ndarray:
        """Parameter gradients for d(loss)/d(outputs) = d_out (n, out_dim),
        laid out like params.  The vector is the model's own buffer: the next
        backward overwrites it, so copy it to keep it."""
        delta = np.asarray(d_out, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[i].T, delta, out=self._grad_weights[i])
            np.add.reduce(delta, 0, out=self._grad_biases[i])  # delta.sum(axis=0)
            if i > 0:
                w = self.weights[i]
                # one output column makes delta @ w.T an outer product, which a
                # gemm of inner dimension 1 computes to the same bits, slowly
                delta = delta * w[:, 0] if w.shape[1] == 1 else delta @ w.T
                # rectifier mask: post-activation is zero exactly where it was clipped
                delta *= activations[i] > 0.0
        return self._grads

    def get_flat(self) -> np.ndarray:
        return self.params.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != self.params.shape:
            raise ConfigError(f"expected {self.n_params} parameters, got {vec.shape}")
        self.params[...] = vec

    def apply_grads(self, grads: np.ndarray, learning_rate: float, l2: float = 0.0) -> None:
        """One gradient-descent step on a gradient vector laid out like
        params; l2 penalizes weights only."""
        if l2 != 0.0:
            grads = grads.copy()
            for dw, w in zip(self._layer_views(grads)[0], self.weights):
                dw += l2 * w
        self.params -= learning_rate * grads

    def to_dict(self) -> dict:
        return {
            "widths": list(self.widths),
            "activation": "relu",
            "params": self.params.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MLP":
        if data.get("activation") != "relu":
            raise ConfigError(f"unsupported activation {data.get('activation')!r}")
        widths = [int(w) for w in data["widths"]]
        model = cls.create(widths, seed=0)
        model.set_flat(np.asarray(data["params"], dtype=np.float64))
        return model
