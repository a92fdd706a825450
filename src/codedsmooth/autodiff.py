"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every op is built by ``node(data, parents, grads)``: ``data`` is the forward
value and ``grads(g)`` maps the gradient of that value to one gradient per
parent. ``Tensor.backward()`` walks the graph once in reverse topological
order and stores each returned gradient in its parent, or adds it to the
one already there, so the accumulation lives in one place. Besides the
constructor there are a matrix product, a fixed linear operator, a sum, a
constant scale, a sum reduction, and the mean squared error and softmax
cross-entropy losses. The network is one node, built in ``models.py``. The
tape is the library's composition API: training and the attacks call
``MLP.backprop`` with the losses' array-level rules (``mse``,
``cross_entropy``) directly. ``add`` and ``scale`` have no caller in the
package; they remain as the op-by-op dual-path loss the tests check the
training step's gradients against.

Tensors are always float64. Nothing checks the data for finiteness; the
training loop's NaN guard does that on the losses.
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

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable tensor carrying a momentum buffer of the same shape."""

    __slots__ = ("momentum",)

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.momentum = np.zeros_like(self.data)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; backward yields g @ b.T and a.T @ g."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    return node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def apply_linear_operator(mat: np.ndarray, y: Tensor) -> Tensor:
    """Apply a fixed linear map: returns A.T @ y for an (n, m) matrix A.

    The matrix is a constant of the graph (it depends only on knot/eval
    point geometry, never on batch values), so no gradient is produced for
    it; the incoming gradient is carried back to ``y`` as A @ g.
    """
    y = _as_tensor(y)
    if y.data.ndim != 2 or mat.shape[0] != y.data.shape[0]:
        raise ShapeError(f"apply_linear_operator: operator {mat.shape} vs values {y.data.shape}")
    return node(mat.T @ y.data, (y,), lambda g: (mat @ g,))


def add(a, b) -> Tensor:
    """Sum of two tensors of the same shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")
    return node(a.data + b.data, (a, b), lambda g: (g, g))


def scale(a, c: float) -> Tensor:
    """Multiply by a python-float constant (no gradient for the constant)."""
    a = _as_tensor(a)
    c = float(c)
    return node(a.data * c, (a,), lambda g: (g * c,))


def tsum(a) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    a = _as_tensor(a)
    return node(np.sum(a.data), (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def mse(pred: np.ndarray, target) -> tuple:
    """Mean of squared entrywise differences: (value, rule).

    ``rule(g)`` is the gradient with respect to ``pred`` of ``g`` times the
    value, the backward rule of ``mse_loss``.
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
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.sum(np.exp(z - zmax), axis=1, keepdims=True))
    n = z.shape[0]
    softmax = np.exp(z - lse)
    return np.sum(tgt * (lse - z)) / n, lambda g: g * (softmax - tgt) / n


def _loss_node(loss, pred, target) -> Tensor:
    pred = _as_tensor(pred)
    value, rule = loss(pred.data, target.data if isinstance(target, Tensor) else target)
    return node(value, (pred,), lambda g: (rule(g),))


def mse_loss(pred, target) -> Tensor:
    """Mean squared error over the whole batch, as a tape node."""
    return _loss_node(mse, pred, target)


def softmax_cross_entropy(logits, target) -> Tensor:
    """Mean softmax cross-entropy, as a tape node.

    Targets are one-hot or probability rows and are treated as constants.
    """
    return _loss_node(cross_entropy, logits, target)


def sgd_momentum_step(params, grads, lr: float, momentum: float) -> None:
    """One SGD step: v <- momentum*v + g; theta <- theta - lr*v.

    ``grads`` holds one gradient per parameter, in the order of ``params``;
    the step reads no ``Parameter.grad``. No-op on an empty parameter list.
    """
    for p, g in zip(params, grads):
        p.momentum *= momentum
        p.momentum += g
        p.data -= lr * p.momentum
