"""The flat parameter vector and the in-place passes.

The references below are the out-of-place formulas the passes replaced:
every layer's ``h @ W + b`` and activation as new arrays, one gradient
array per parameter, the two paths' gradients added parameter by
parameter, and the SGD step run one parameter at a time. The package must
give their bits exactly.
"""

import copy
import pickle

import numpy as np
import pytest

from codedsmooth import autodiff
from codedsmooth.coded import get_module
from codedsmooth.datasets import one_hot
from codedsmooth.modelio import model_bytes
from codedsmooth.models import MLP, MLPSpec
from codedsmooth.train import dual_path_terms


def _ref_activations(model, x):
    relu = model.spec.activation == "relu"
    hs = [x]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = hs[-1] @ w + b
        if i < last:
            h = np.maximum(h, 0.0) if relu else np.tanh(h)
        hs.append(h)
    return hs


def _ref_backprop(model, hs, g, input_grad):
    relu = model.spec.activation == "relu"
    out = []
    for i in range(len(model.weights) - 1, 0, -1):
        out += [g.sum(axis=0), hs[i].T @ g]
        g = g @ model.weights[i].T
        g = g * (hs[i] > 0.0) if relu else g * (1.0 - hs[i] * hs[i])
    out += [g.sum(axis=0), hs[0].T @ g, g @ model.weights[0].T if input_grad else None]
    return out[::-1]


def _ref_cross_entropy(z, tgt):
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.sum(np.exp(z - zmax), axis=1, keepdims=True))
    n = z.shape[0]
    softmax = np.exp(z - lse)
    return np.sum(tgt * (lse - z)) / n, lambda g: g * (softmax - tgt) / n


def _ref_dual_path(model, module, x, target, mu, task):
    loss = _ref_cross_entropy if task == "classification" else autodiff.mse
    hs = _ref_activations(model, x)
    main, main_rule = loss(hs[-1], target)
    if mu == 0.0:
        return float(main), None, _ref_backprop(model, hs, main_rule(1.0), False)[1:]
    hs_coded = _ref_activations(model, module.enc_op.T @ x)
    coded, coded_rule = loss(module.dec_op.T @ hs_coded[-1], target)
    grads = _ref_backprop(model, hs_coded, module.dec_op @ coded_rule(mu), False)[1:]
    if mu < 1.0:
        direct = _ref_backprop(model, hs, main_rule(1.0 - mu), False)[1:]
        grads = [a + b for a, b in zip(direct, grads)]
    return float(main), float(coded), grads


def _case(activation, task, rng):
    """(model, 16-row batch, target) with non-zero biases."""
    n_out = 2 if task == "classification" else 1
    model = MLP(MLPSpec(widths=(2, 8, 8, n_out), activation=activation), rng)
    for b in model.biases:
        b[:] = rng.uniform(-0.3, 0.3, b.shape)
    x = rng.uniform(-1, 1, (16, 2))
    if task == "classification":
        target = one_hot(rng.integers(0, 2, 16), 2)
    else:
        target = np.sin(np.pi * x[:, :1])
    return model, x, target


def _params(model):
    """W1, b1, W2, b2, ...: the order of theta."""
    return [p for wb in zip(model.weights, model.biases) for p in wb]


def _assert_views_of_theta(model):
    """Each parameter is the next stretch of theta, in W1, b1, W2, b2, ... order."""
    pos = 0
    for p in _params(model):
        assert p.flags.c_contiguous and p.dtype == np.float64
        assert p.ctypes.data == model.theta[pos:].ctypes.data
        pos += p.size
    assert pos == model.theta.size == model.spec.n_parameters
    saved = model.theta.copy()
    model.theta[:] = np.arange(model.theta.size)
    flat = np.concatenate([p.ravel() for p in _params(model)])
    assert flat.tobytes() == model.theta.tobytes()
    model.theta[:] = saved


@pytest.mark.parametrize("widths", [(2, 2), (2, 8, 2), (3, 5, 4, 1)])
def test_parameters_are_views_into_theta(widths):
    model = MLP(MLPSpec(widths=widths), np.random.default_rng(0))
    _assert_views_of_theta(model)
    model.weights[0][0, 0] = 7.0
    assert model.theta[0] == 7.0
    model.biases[-1][-1] = -3.0
    assert model.theta[-1] == -3.0


def test_model_file_parameter_block_is_theta():
    model = MLP(MLPSpec(widths=(2, 8, 8, 3), activation="tanh"), np.random.default_rng(1))
    blob = model_bytes(model, 0, "erm")
    assert blob.endswith(b"\n\n" + model.theta.astype("<f8").tobytes())


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("input_grad", [True, False])
def test_passes_equal_out_of_place_formulas(activation, task, input_grad):
    model, x, target = _case(activation, task, np.random.default_rng(3))
    hs = model.activations(x)
    want_hs = _ref_activations(model, x)
    assert [h.tobytes() for h in hs] == [h.tobytes() for h in want_hs]
    assert model.predict(x).tobytes() == want_hs[-1].tobytes()
    g = np.random.default_rng(4).normal(size=hs[-1].shape)
    got = model.backprop(hs, g, input_grad)
    want = _ref_backprop(model, want_hs, g, input_grad)
    assert (got[0] is None) == (not input_grad)
    if input_grad:
        assert got[0].tobytes() == want[0].tobytes()
    assert [a.tobytes() for a in got[1:]] == [b.tobytes() for b in want[1:]]


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
def test_dual_path_equals_out_of_place_formulas(activation, task, mu):
    model, x, target = _case(activation, task, np.random.default_rng(5))
    module = get_module(16, 24)
    want_main, want_coded, want = _ref_dual_path(model, module, x, target, mu, task)
    out = np.full(model.theta.shape, np.nan)
    main, coded, grads = dual_path_terms(model, module, x, target, mu, task, out)
    assert (main, coded) == (want_main, want_coded)
    assert [a.tobytes() for a in grads] == [b.tobytes() for b in want]
    assert out.tobytes() == np.concatenate([b.ravel() for b in want]).tobytes()
    # without ``out`` the gradients are views into a vector of their own
    _, _, fresh = dual_path_terms(model, module, x, target, mu, task)
    assert [a.tobytes() for a in fresh] == [b.tobytes() for b in want]


def test_flat_step_equals_per_parameter_step():
    rng = np.random.default_rng(6)
    model = MLP(MLPSpec(widths=(2, 8, 8, 2)), rng)
    params = [p.copy() for p in _params(model)]
    velocity = [np.zeros_like(p) for p in params]
    flat_velocity = np.zeros_like(model.theta)
    for lr in (0.05, 0.05, 0.005):
        grads = [rng.normal(size=p.shape) for p in params]
        for p, g, v in zip(params, grads, velocity):
            v *= 0.9
            v += g
            p -= lr * v
        flat_grad = np.concatenate([g.ravel() for g in grads])
        autodiff.sgd_momentum_step(model.theta, flat_grad, flat_velocity, lr, 0.9)
        assert model.theta.tobytes() == np.concatenate([p.ravel() for p in params]).tobytes()
        assert flat_velocity.tobytes() == np.concatenate([v.ravel() for v in velocity]).tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("input_grad", [True, False])
def test_backprop_leaves_its_arguments_alone(activation, input_grad):
    model, x, _ = _case(activation, "classification", np.random.default_rng(7))
    hs = model.activations(x)
    g = np.random.default_rng(8).normal(size=hs[-1].shape)
    before = [h.tobytes() for h in hs] + [g.tobytes()]
    model.backprop(hs, g, input_grad, np.empty_like(model.theta))
    assert [h.tobytes() for h in hs] + [g.tobytes()] == before


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
def test_copied_model_owns_its_theta(clone):
    model, _, _ = _case("tanh", "regression", np.random.default_rng(9))
    other = clone(model)
    assert other.spec == model.spec
    assert not np.shares_memory(other.theta, model.theta)
    assert other.theta.tobytes() == model.theta.tobytes()
    _assert_views_of_theta(other)
    other.weights[0][...] += 1.0
    assert other.theta.tobytes() != model.theta.tobytes()
