"""Shared fixtures: the canonical two-moons runs are expensive, so the five
paired (plain, coded) trainings are done once per session and reused by the
attack tests and the acceptance suite."""

from types import SimpleNamespace

import numpy as np
import pytest

from codedsmooth.autodiff import node
from codedsmooth.datasets import DatasetSpec, make_dataset
from codedsmooth.models import MLPSpec
from codedsmooth.train import Coded, ERM, TrainPlan, train

CANONICAL_DATA = DatasetSpec(kind="two_moons", n_train=1000, n_test=1000,
                             noise=0.15, seed=0)
CANONICAL_MODEL = MLPSpec(widths=(2, 64, 64, 2), activation="relu")


def canonical_plan(seed, method):
    return TrainPlan(dataset=CANONICAL_DATA, model=CANONICAL_MODEL, epochs=100,
                     batch_size=128, lr=0.05, momentum=0.9, seed=seed,
                     method=method)


@pytest.fixture(scope="session")
def moons_data():
    return make_dataset(CANONICAL_DATA)


@pytest.fixture(scope="session")
def moons_runs():
    """Five paired seeds of plain vs coded training on the canonical setup."""
    runs = {}
    for seed in range(5):
        erm_model, erm_metrics = train(canonical_plan(seed, ERM()))
        coded_model, coded_metrics = train(canonical_plan(seed, Coded(mu=0.5, gamma=1.5)))
        runs[seed] = SimpleNamespace(erm_model=erm_model, erm_metrics=erm_metrics,
                                     coded_model=coded_model, coded_metrics=coded_metrics)
    return runs


def fd_grad(objective, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a rebuild-the-graph objective wrt x.

    ``objective`` must recompute from scratch on each call and read ``x`` by
    reference (leaf tensors share the array's memory).
    """
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = objective()
        flat[i] = keep - h
        down = objective()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


# Small tape ops for tests that compose graphs by hand, each one
# ``autodiff.node``. The package keeps only the ops it composes itself.

def tsum(a):
    """Sum of all entries, as a scalar node."""
    return node(np.sum(a.data), (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def matmul(a, b):
    """Matrix product; backward yields g @ b.T and a.T @ g."""
    return node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def add(a, b):
    """Sum of two nodes of one shape; the rule hands one array to both."""
    return node(a.data + b.data, (a, b), lambda g: (g, g))


def scale(a, c):
    """Multiply by a constant float."""
    return node(a.data * c, (a,), lambda g: (g * c,))


def model_node(model, x, theta):
    """``model`` on the node ``x`` as one node over ``x`` and ``theta``, a leaf
    on ``model.theta`` (``Tensor(model.theta, requires_grad=True)`` shares
    its memory). The rule is ``model.backprop``, so ``theta.grad`` is the
    parameter gradient laid out as ``theta``; ``model.split`` views it per
    parameter. ``MLP.forward`` is the same node without the ``theta`` leaf."""
    hs = model.activations(x.data)

    def rule(g):
        grad = np.empty_like(model.theta)
        return model.backprop(hs, g, x.requires_grad, grad)[0], grad
    return node(hs[-1], (x, theta), rule)


def loss_node(rule, pred, target):
    """A loss of a node against constant targets, as a scalar node: ``rule``
    is ``autodiff.mse`` or ``autodiff.cross_entropy``, the array rules that
    training calls off the tape."""
    value, grad = rule(pred.data, target)
    return node(value, (pred,), lambda g: (grad(g),))
