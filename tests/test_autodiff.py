import numpy as np
import numpy.testing as npt
import pytest

from codedsmooth import autodiff as ad
from codedsmooth.autodiff import Tensor
from codedsmooth.errors import ShapeError
from codedsmooth.models import MLP, MLPSpec

from conftest import add, fd_grad, loss_node, matmul, model_node, rel_err, scale, tsum


def test_fanout_accumulates_both_contributions():
    # y = x*x + 3x, with x feeding three edges  ->  dy/dx = 2x + 3
    x = Tensor([[1.5]], requires_grad=True)
    y = add(matmul(x, x), scale(x, 3.0))
    y.backward()
    npt.assert_allclose(x.grad, [[6.0]])


def test_repeated_backward_keeps_parent_gradients_apart():
    # add's rule hands one array to both parents, so storing it and then
    # adding in place would make the second pass count twice in each
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    b = Tensor(np.zeros((2, 2)), requires_grad=True)
    for _ in range(2):
        tsum(add(a, b)).backward()
    assert a.grad is not b.grad
    npt.assert_array_equal(a.grad, np.full((2, 2), 2.0))
    npt.assert_array_equal(b.grad, np.full((2, 2), 2.0))


def test_losses_trivial_values():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert loss_node(ad.mse, x, x.data).data.item() == 0.0
    loss = loss_node(ad.cross_entropy, Tensor([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
    npt.assert_allclose(loss.data.item(), np.log(2.0), rtol=1e-12)


def test_cross_entropy_grad_vs_fd():
    rng = np.random.default_rng(2)
    logits = rng.uniform(-1, 1, (4, 3))
    target = np.eye(3)[rng.integers(0, 3, 4)]

    def objective():
        return loss_node(ad.cross_entropy, Tensor(logits, requires_grad=True), target).data.item()

    lt = Tensor(logits, requires_grad=True)
    loss_node(ad.cross_entropy, lt, target).backward()
    assert rel_err(lt.grad, fd_grad(objective, logits)) <= 1e-6


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_mlp_grad_vs_fd(activation):
    rng = np.random.default_rng(4)
    model = MLP(MLPSpec(widths=(3, 5, 4, 2), activation=activation), rng)
    for b in model.biases:
        b[:] = rng.uniform(-0.5, 0.5, b.shape)
    x = rng.uniform(-1, 1, (6, 3))
    target = rng.uniform(-1, 1, (6, 2))

    if activation == "relu":
        # keep pre-activations away from the kink, so no finite-difference
        # step turns a unit on or off: each hidden bias puts the zero in the
        # middle of the widest gap between its column's values
        h = x
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            pre = np.sort(h @ w, axis=0)
            k = np.argmax(np.diff(pre, axis=0), axis=0)
            cols = np.arange(pre.shape[1])
            b[:] = -0.5 * (pre[k, cols] + pre[k + 1, cols])
            h = np.maximum(h @ w + b, 0.0)

    def objective():
        return loss_node(ad.mse, model(Tensor(x)), target).data.item()

    xt = Tensor(x, requires_grad=True)
    out = model(xt)
    npt.assert_array_equal(model.predict(x), out.data)
    loss_node(ad.mse, out, target).backward()
    assert rel_err(xt.grad, fd_grad(objective, x)) <= 1e-6
    # the parameters through a leaf on theta, checked one parameter at a time
    theta = Tensor(model.theta, requires_grad=True)
    loss_node(ad.mse, model_node(model, Tensor(x), theta), target).backward()
    numeric = fd_grad(objective, model.theta)
    for analytic, want in zip(model.split(theta.grad), model.split(numeric), strict=True):
        assert rel_err(analytic, want) <= 1e-6

    for call in (model.forward, model.predict):
        with pytest.raises(ShapeError):
            call(np.zeros((6, 2)))


def test_sgd_momentum_examples():
    p = np.array([5.0])
    ad.sgd_momentum_step(p, np.array([2.0]), np.zeros(1), lr=1.0, momentum=0.0)
    npt.assert_array_equal(p, [3.0])

    q = np.array([0.0])
    v = np.zeros(1)
    ad.sgd_momentum_step(q, np.array([1.0]), v, lr=1.0, momentum=0.9)
    ad.sgd_momentum_step(q, np.array([1.0]), v, lr=1.0, momentum=0.9)
    npt.assert_allclose(q, [-2.9])
    npt.assert_allclose(v, [1.9])

    ad.sgd_momentum_step(np.zeros(0), np.zeros(0), np.zeros(0), lr=1.0, momentum=0.9)  # no-op


def test_training_step_determinism():
    def run():
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        velocity = np.zeros_like(w.data)
        x = rng.normal(size=(5, 3))
        for _ in range(10):
            loss = loss_node(ad.mse, matmul(Tensor(x), w), np.zeros((5, 2)))
            loss.backward()
            ad.sgd_momentum_step(w.data, w.grad, velocity, lr=0.1, momentum=0.9)
            w.grad = None
        return w.data.copy()

    npt.assert_array_equal(run(), run())


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2)), requires_grad=True).backward()
