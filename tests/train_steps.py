"""One pair's ranking loss and gradient, taken from reward training itself.

reward_net._ranking_loss is the only implementation of the ranking loss,
its gradient and its divergence check, and reward_net._train_loop, the
one training loop, steps through it for one model or a stack of K; a
stacked member differs from a lone model only in the rows it forwards.  Tests that need the loss and gradient for one pair run
one training step on that pair alone.
"""

import numpy as np

from genil.reward_net import TrainConfig, train

ONE_STEP = TrainConfig(learning_rate=1.0, steps=1, batch_size=1)


def first_step(model, pair) -> tuple[float, np.ndarray]:
    """(loss, gradient) of one training step on pair alone.  At learning
    rate 1 the step subtracts the gradient, so the gradient is the input
    parameters minus the trained ones; the input model is left untouched."""
    (result,) = train([model], [pair], ONE_STEP, [0])
    return float(result.losses[0]), model.net.params - result.model.net.params


def min_preactivation(net, pair):
    """Smallest |hidden pre-activation| over both snippets of a pair: the
    loss is non-differentiable on relu kinks, so a finite-difference check
    probes only where every pre-activation clears its step."""
    smallest = np.inf
    for snip in (pair.lo, pair.hi):
        x = snip.states
        for i, (W, b) in enumerate(zip(net.weights, net.biases)):
            x = x @ W + b
            if i < len(net.weights) - 1:
                smallest = min(smallest, float(np.abs(x).min()))
                x = np.maximum(x, 0.0)
    return smallest
