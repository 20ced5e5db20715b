"""MLP forward/backward correctness, parameter plumbing, serialization."""

import pickle

import numpy as np
import pytest

from genil.mlp import MLP


def test_create_shapes_and_determinism():
    net = MLP.create([3, 8, 8, 1], seed=5)
    assert net.in_dim == 3
    assert net.out_dim == 1
    assert net.params.size == 3 * 8 + 8 + 8 * 8 + 8 + 8 * 1 + 1
    again = MLP.create([3, 8, 8, 1], seed=5)
    assert np.array_equal(net.params, again.params)
    other = MLP.create([3, 8, 8, 1], seed=6)
    assert not np.array_equal(net.params, other.params)


def test_forward_hand_value():
    # single linear layer: y = x @ W + b
    W = np.array([[1.0], [2.0]])
    b = np.array([0.5])
    net = MLP([2, 1], [W], [b])
    out = net.predict(np.array([[3.0, 4.0], [1.0, -1.0]]))
    assert np.array_equal(out, [[11.5], [-0.5]])


def test_relu_applied_to_hidden_only():
    W1 = np.array([[1.0], [0.0]])
    b1 = np.array([-2.0])
    W2 = np.array([[1.0]])
    b2 = np.array([0.0])
    net = MLP([2, 1, 1], [W1, W2], [b1, b2])
    out = net.predict(np.array([[1.0, 0.0], [5.0, 0.0]]))
    # first input: relu(1 - 2) = 0; second: relu(5 - 2) = 3
    assert np.array_equal(out, [[0.0], [3.0]])


def test_copy_is_independent():
    net = MLP.create([2, 4, 1], seed=0)
    dup = net.copy()
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]


def test_flat_round_trip():
    net = MLP.create([3, 5, 1], seed=2)
    vec = net.params.copy()
    other = MLP.create([3, 5, 1], seed=9)
    other.params[...] = vec
    assert np.array_equal(other.params, vec)
    X = np.random.default_rng(0).normal(size=(6, 3))
    assert np.array_equal(net.predict(X), other.predict(X))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = MLP.create([4, 6, 6, 2], seed=3)
    X = rng.normal(size=(5, 4))

    def loss_at(vec):
        probe = net.copy()
        probe.params[...] = vec
        return float(probe.predict(X).sum())

    out, cache = net.forward(X)
    analytic = net.backward(cache, np.ones_like(out))
    base = net.params.copy()
    eps = 1e-6
    numeric = np.empty_like(base)
    for i in range(len(base)):
        hi = base.copy()
        hi[i] += eps
        lo = base.copy()
        lo[i] -= eps
        numeric[i] = (loss_at(hi) - loss_at(lo)) / (2 * eps)
    err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
    assert err < 1e-6


def test_apply_grads_descends():
    net = MLP.create([2, 4, 1], seed=1)
    X = np.array([[1.0, 2.0]])
    out, cache = net.forward(X)
    grads = net.backward(cache, np.ones_like(out))
    before = float(net.predict(X)[0, 0])
    net.apply_grads(grads, learning_rate=0.01)
    after = float(net.predict(X)[0, 0])
    assert after < before  # gradient on +output must push the output down


def test_dict_round_trip_bit_exact():
    net = MLP.create([3, 7, 1], seed=4)
    back = MLP.from_dict(net.to_dict())
    assert back.widths == net.widths
    assert np.array_equal(back.params, net.params)
    X = np.random.default_rng(1).normal(size=(4, 3))
    assert np.array_equal(back.predict(X), net.predict(X))


def test_layers_are_views_of_one_parameter_vector():
    net = MLP.create([3, 5, 2], seed=1)
    assert isinstance(net.weights, tuple) and isinstance(net.biases, tuple)
    net.params[:] = np.arange(net.params.size)
    # laid out W0 (15), b0 (5), W1 (10), b1 (2)
    assert np.array_equal(net.weights[0], np.arange(15).reshape(3, 5))
    assert np.array_equal(net.biases[1], [30.0, 31.0])
    net.weights[1][:] = -1.0
    assert np.array_equal(net.params[20:30], np.full(10, -1.0))
    # rebinding an entry would leave it out of step with params, so it fails
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((3, 5))
    with pytest.raises(TypeError):
        net.biases[1] = np.zeros(2)


def test_pickle_round_trip_keeps_views_and_size():
    net = MLP.create([66, 64, 64, 64, 1], seed=2)
    X = np.random.default_rng(2).normal(size=(4, 66))
    blob = pickle.dumps(net)
    back = pickle.loads(blob)
    assert back.params.tobytes() == net.params.tobytes()
    assert np.array_equal(back.predict(X), net.predict(X))
    assert all(np.shares_memory(back.params, p) for p in back.weights + back.biases)
    # an update to params moves the unpickled model's predictions
    back.params *= 0.5
    assert not np.array_equal(back.predict(X), net.predict(X))
    assert len(blob) < 2 * net.params.nbytes
