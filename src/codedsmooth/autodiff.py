"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every op is built by ``node(data, parents, grads)``: ``data`` is the forward
value and ``grads(g)`` maps the gradient of that value to one gradient per
parent. ``Tensor.backward()`` walks the graph once in reverse topological
order and stores each returned gradient in its parent, or adds it to the
one already there, so the accumulation lives in one place.

The tape keeps only the ops something composes:

- ``node`` builds every op: ``MLP.forward`` the network as one node over its
  input, ``coded._apply`` the coded module's encode and decode of a
  ``Tensor``, and ``train.boundary_smoothness`` the summed logit margin;
- ``mse`` and ``cross_entropy`` are the losses' array-level rules, which
  training and the attacks call with ``MLP.backprop`` directly, off the tape;
  a network's parameters are constants of the graph, and the tests that put
  a loss or the parameters on the tape (acceptance criteria 4 and 5 among
  them) use ``loss_node`` and ``model_node`` in ``tests/conftest.py``;
- ``sgd_momentum_step`` is the training step's update of the flat
  parameter vector; the caller owns the velocity vector it updates.

A leaf that wants a gradient is a ``Tensor`` with ``requires_grad=True``;
the tape holds no optimizer state. Tensors are always float64. Nothing
checks the data for finiteness; the training loop's loss guard does that.
"""

import numpy as np

from .errors import ShapeError


class Tensor:
    """A dense array plus its position on the tape.

    ``data`` is the cached forward value, ``grad`` the gradient accumulator
    (None until a backward pass reaches it), ``_parents`` the node handles of
    the inputs and ``_grads`` the backward rule of the node that produced it.
    Leaf tensors have no parents and no backward rule.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grads")

    def __init__(self, data, requires_grad=False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._grads = None

    def backward(self) -> None:
        """Reverse pass from a scalar output; visits each node exactly once."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar output, got shape {self.data.shape}")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            for p in t._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for t in reversed(order):
            if t._grads is not None and t.requires_grad:
                for p, g in zip(t._parents, t._grads(t.grad)):
                    if p.requires_grad:
                        # never in place: a rule may hand one array to two parents
                        p.grad = g if p.grad is None else p.grad + g


def node(data, parents: tuple, grads) -> Tensor:
    """A tape node computed from ``parents``.

    ``grads(g)`` receives the gradient of ``data`` and returns one gradient
    per parent, in the order of ``parents``; ``Tensor.backward`` adds them
    into the parents that require one. The node requires a gradient when
    any parent does.
    """
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    out._parents = parents
    out._grads = grads
    return out


def mse(pred: np.ndarray, target) -> tuple:
    """Mean of squared entrywise differences: (value, rule).

    ``rule(g)`` is the gradient with respect to ``pred`` of ``g`` times the
    value.
    """
    tgt = np.asarray(target, dtype=np.float64)
    if pred.shape != tgt.shape:
        raise ShapeError(f"mse: {pred.shape} vs {tgt.shape}")
    diff = pred - tgt
    return np.mean(diff * diff), lambda g: g * (2.0 / diff.size) * diff


def cross_entropy(z: np.ndarray, target) -> tuple:
    """Mean cross-entropy between row-softmax of logits ``z`` and target rows:
    (value, rule), with ``rule`` as in ``mse``."""
    tgt = np.asarray(target, dtype=np.float64)
    if z.shape != tgt.shape:
        raise ShapeError(f"cross_entropy: {z.shape} vs {tgt.shape}")
    zmax = np.maximum.reduce(z, axis=1, keepdims=True)
    lse = zmax + np.log(np.add.reduce(np.exp(z - zmax), axis=1, keepdims=True))
    n = z.shape[0]
    softmax = np.exp(z - lse)
    return np.add.reduce(tgt * (lse - z), axis=None) / n, lambda g: g * (softmax - tgt) / n


def sgd_momentum_step(theta, grad, velocity, lr: float, momentum: float) -> None:
    """One SGD step: v <- momentum*v + g; theta <- theta - lr*v.

    ``theta``, ``grad`` and ``velocity`` are flat vectors of one shape;
    ``theta`` and ``velocity`` are updated in place by three whole-vector
    ops. The step reads no ``Tensor.grad``.
    """
    velocity *= momentum
    velocity += grad
    theta -= lr * velocity
