"""Reference copies of the two GridNav value-iteration loops that genil
once kept apart, so that the single loop now shared by the optimal
demonstrator and policy derivation is checked against code outside it.

reference_optimal_actions is the optimal-action oracle as it was: its own
sweep cap, a 1e-13 tolerance on the true reward, and an argmax over next-
cell values.  reference_value_iteration is the policy stage's loop as it
was: a max over the full Q table each sweep and an argmax over Q.
"""

import numpy as np

from genil.envs import GRID_N_STATES, gridnav_reward_field, gridnav_transitions


def reference_optimal_actions(discount, max_iters=1_000_000):
    nxt = gridnav_transitions()
    rew = gridnav_reward_field()
    values = np.zeros(GRID_N_STATES)
    for _ in range(max_iters):
        new = rew + discount * values[nxt].max(axis=1)
        if np.max(np.abs(new - values)) < 1e-13:
            values = new
            break
        values = new
    else:
        raise AssertionError(f"reference oracle did not converge at discount {discount}")
    return np.argmax(values[nxt], axis=1).astype(np.int64)


def reference_value_iteration(rewards, gamma, tol, max_iters=100000):
    transitions = gridnav_transitions()
    values = np.zeros(GRID_N_STATES)
    for _ in range(max_iters):
        q = rewards[:, None] + gamma * values[transitions]
        new_values = q.max(axis=1)
        residual = float(np.abs(new_values - values).max())
        values = new_values
        if residual < tol:
            break
    else:
        raise AssertionError(f"reference value iteration did not reach residual {tol}")
    greedy = np.argmax(rewards[:, None] + gamma * values[transitions], axis=1)
    return greedy.astype(np.int64)
