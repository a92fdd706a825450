import numpy as np
import numpy.testing as npt
import pytest

from codedsmooth import autodiff as ad
from codedsmooth.autodiff import Parameter, Tensor
from codedsmooth.errors import ShapeError
from codedsmooth.models import MLP, MLPSpec

from conftest import add, fd_grad, matmul, rel_err, scale, tsum


def test_apply_linear_operator_identity_and_sum_column():
    y = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = ad.apply_linear_operator(np.eye(3), Tensor(y))
    npt.assert_array_equal(out.data, y)
    ones_col = np.ones((3, 1))
    out = ad.apply_linear_operator(ones_col, Tensor([[1.0], [2.0], [3.0]]))
    npt.assert_array_equal(out.data, [[6.0]])


def test_apply_linear_operator_backward_vs_fd():
    rng = np.random.default_rng(1)
    mat = rng.uniform(-1, 1, (5, 4))
    y = rng.uniform(-1, 1, (5, 3))

    def objective():
        return tsum(ad.apply_linear_operator(mat, Tensor(y, requires_grad=True))).item()

    yt = Tensor(y, requires_grad=True)
    tsum(ad.apply_linear_operator(mat, yt)).backward()
    assert rel_err(yt.grad, fd_grad(objective, y)) <= 1e-6


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
    assert ad.mse_loss(x, x.data).item() == 0.0
    loss = ad.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
    npt.assert_allclose(loss.item(), np.log(2.0), rtol=1e-12)


def test_cross_entropy_grad_vs_fd():
    rng = np.random.default_rng(2)
    logits = rng.uniform(-1, 1, (4, 3))
    target = np.eye(3)[rng.integers(0, 3, 4)]

    def objective():
        return ad.softmax_cross_entropy(Tensor(logits, requires_grad=True), target).item()

    lt = Tensor(logits, requires_grad=True)
    ad.softmax_cross_entropy(lt, target).backward()
    assert rel_err(lt.grad, fd_grad(objective, logits)) <= 1e-6


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_mlp_grad_vs_fd(activation):
    rng = np.random.default_rng(4)
    model = MLP(MLPSpec(widths=(3, 5, 4, 2), activation=activation), rng)
    for b in model.biases:
        b.data[:] = rng.uniform(-0.5, 0.5, b.data.shape)
    x = rng.uniform(-1, 1, (6, 3))
    target = rng.uniform(-1, 1, (6, 2))

    if activation == "relu":
        # keep pre-activations away from the kink, so no finite-difference
        # step turns a unit on or off: each hidden bias puts the zero in the
        # middle of the widest gap between its column's values
        h = x
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            pre = np.sort(h @ w.data, axis=0)
            k = np.argmax(np.diff(pre, axis=0), axis=0)
            cols = np.arange(pre.shape[1])
            b.data[:] = -0.5 * (pre[k, cols] + pre[k + 1, cols])
            h = np.maximum(h @ w.data + b.data, 0.0)

    def objective():
        return ad.mse_loss(model(Tensor(x)), target).item()

    xt = Tensor(x, requires_grad=True)
    out = model(xt)
    npt.assert_array_equal(model.predict(x), out.data)
    ad.mse_loss(out, target).backward()
    assert rel_err(xt.grad, fd_grad(objective, x)) <= 1e-6
    for p in model.parameters():
        assert rel_err(p.grad, fd_grad(objective, p.data)) <= 1e-6

    for call in (model.forward, model.predict):
        with pytest.raises(ShapeError):
            call(np.zeros((6, 2)))


def test_sgd_momentum_examples():
    p = Parameter([5.0])
    ad.sgd_momentum_step([p], [np.array([2.0])], lr=1.0, momentum=0.0)
    npt.assert_array_equal(p.data, [3.0])

    q = Parameter([0.0])
    ad.sgd_momentum_step([q], [np.array([1.0])], lr=1.0, momentum=0.9)
    ad.sgd_momentum_step([q], [np.array([1.0])], lr=1.0, momentum=0.9)
    npt.assert_allclose(q.data, [-2.9])

    ad.sgd_momentum_step([], [], lr=1.0, momentum=0.9)  # no-op


def test_training_step_determinism():
    def run():
        rng = np.random.default_rng(7)
        w = Parameter(rng.normal(size=(3, 2)))
        x = rng.normal(size=(5, 3))
        for _ in range(10):
            loss = ad.mse_loss(matmul(Tensor(x), w), np.zeros((5, 2)))
            loss.backward()
            ad.sgd_momentum_step([w], [w.grad], lr=0.1, momentum=0.9)
            w.grad = None
        return w.data.copy()

    npt.assert_array_equal(run(), run())


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2)), requires_grad=True).backward()
