"""One pair's ranking loss and gradient, taken from reward training itself.

reward_net.train is the only implementation of the ranking loss and its
gradient, so tests that need them for one pair run one training step on
that pair alone.
"""

import numpy as np

from genil.reward_net import TrainConfig, train

ONE_STEP = TrainConfig(learning_rate=1.0, steps=1, batch_size=1)


def first_step(model, pair) -> tuple[float, np.ndarray]:
    """(loss, gradient) of one training step on pair alone.  At learning
    rate 1 the step subtracts the gradient, so the gradient is the input
    parameters minus the trained ones; the input model is left untouched."""
    result = train(model, [pair], ONE_STEP, 0)
    return float(result.losses[0]), model.net.params - result.model.net.params
