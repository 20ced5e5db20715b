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

``MLP.stack`` joins K networks of one shape into one whose ``params`` is
a (K, n_params) array, one member a row, with every layer view carrying
the leading K axis.  The same forward, backward and update then step all
K members at once: a shared (n, d) input, or one (K, n, d) batch per
member, meets the (K, d, h) weights as one stacked gemm per layer, and
every per-member slice is the gemm, reduction and update a lone network
makes on its own batch, to the bit.  ``unstack`` gives the members back.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .seeding import derive_seed


class MLP:
    """widths[0] inputs -> rectifier hiddens -> widths[-1] linear outputs."""

    def __init__(self, widths: list[int], weights: list[np.ndarray], biases: list[np.ndarray]):
        self.widths = _checked_widths(widths)
        if len(weights) != len(self.widths) - 1 or len(biases) != len(weights):
            raise ConfigError("parameter count does not match widths")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (self.widths[i], self.widths[i + 1]) or b.shape != (self.widths[i + 1],):
                raise ConfigError(f"layer {i} parameter shapes do not match widths")
        self._bind(
            np.concatenate(
                [np.ravel(p) for layer in zip(weights, biases) for p in layer], dtype=np.float64
            )
        )

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        self.weights, self.biases = _layer_views(self.widths, params)
        # views forward and backward take, made once: a bias as a row over
        # the batch rows, a weight transposed
        self._bias_rows = tuple(b[..., None, :] for b in self.biases)
        self._weights_t = tuple(w.swapaxes(-1, -2) for w in self.weights)
        self._grads = np.empty_like(params)
        self._grad_weights, self._grad_biases = _layer_views(self.widths, self._grads)

    @classmethod
    def stack(cls, nets: list["MLP"]) -> "MLP":
        """nets, all of one widths, as one network whose params rows are
        copies of theirs; see the module docstring."""
        stacked = cls.__new__(cls)
        stacked.widths = nets[0].widths
        stacked._bind(np.stack([net.params for net in nets]))
        return stacked

    def unstack(self) -> list["MLP"]:
        """The members of a stacked network, each a copy of its params row."""
        return [MLP(self.widths, *_layer_views(self.widths, row)) for row in self.params]

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

    def copy(self) -> "MLP":
        return MLP(self.widths, self.weights, self.biases)

    def __reduce__(self):
        # rebuilt through __init__, so the layers are views of params again
        return (type(self), (self.widths, self.weights, self.biases))

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (outputs (n, out_dim), layer input cache for backward);
        a stacked network's outputs are (K, n, out_dim)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[-1] != self.in_dim:
            raise ValueError(f"input has {X.shape[-1]} features, model expects {self.in_dim}")
        activations = [X]
        h = X
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self._bias_rows)):
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
            np.matmul(activations[i].swapaxes(-1, -2), delta, out=self._grad_weights[i])
            np.add.reduce(delta, -2, out=self._grad_biases[i])  # delta.sum(axis=-2)
            if i > 0:
                w_t = self._weights_t[i]
                # one output column makes delta @ w.T an outer product, which a
                # gemm of inner dimension 1 computes to the same bits, slowly
                delta = delta * w_t if w_t.shape[-2] == 1 else delta @ w_t
                # rectifier mask: post-activation is zero exactly where it was clipped
                delta *= activations[i] > 0.0
        return self._grads

    def apply_grads(self, grads: np.ndarray, learning_rate: float) -> None:
        """One plain gradient-descent step on a gradient vector laid out
        like params."""
        self.params -= learning_rate * grads

    def to_dict(self) -> dict:
        return {
            "widths": list(self.widths),
            "activation": "relu",
            "params": self.params.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MLP":
        """The network to_dict wrote, its widths checked before anything is
        allocated and its layers cut from the flat params."""
        if data.get("activation") != "relu":
            raise ConfigError(f"unsupported activation {data.get('activation')!r}")
        widths = _checked_widths(data["widths"])
        n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths, widths[1:]))
        params = np.asarray(data["params"], dtype=np.float64)
        if params.shape != (n_params,):
            raise ConfigError(f"expected {n_params} parameters, got shape {params.shape}")
        return cls(widths, *_layer_views(widths, params))


def _checked_widths(widths) -> list[int]:
    """widths as ints, refused unless they name an input and an output
    layer and every layer has at least one unit."""
    widths = [int(w) for w in widths]
    if len(widths) < 2:
        raise ConfigError("MLP needs at least input and output widths")
    if any(w < 1 for w in widths):
        raise ConfigError(f"all layer widths must be >= 1, got {widths}")
    return widths


def _layer_views(widths: list[int], flat: np.ndarray) -> tuple[tuple, tuple]:
    """Per-layer (weight, bias) views into a vector laid out like params,
    or into each row of a stack of them (the views then lead with its axis)."""
    lead = flat.shape[:-1]
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(widths, widths[1:]):
        end = offset + fan_in * fan_out
        weights.append(flat[..., offset:end].reshape(*lead, fan_in, fan_out))
        biases.append(flat[..., end : end + fan_out])
        offset = end + fan_out
    return tuple(weights), tuple(biases)
