"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Only the operations the rest of the package needs are implemented: matrix
product, a handful of elementwise ops, bias addition, application of a fixed
linear operator, two losses, and a sum reduction. Each op records a backward
closure on the tape; ``Tensor.backward()`` walks the graph once in reverse
topological order and accumulates gradients.

Tensors are always float64. Nothing checks the data for finiteness; the
training loop's NaN guard does that on the losses.
"""

import numpy as np

from .errors import ShapeError


class Tensor:
    """A dense array plus its position on the tape.

    ``data`` is the cached forward value, ``grad`` the gradient accumulator
    (allocated lazily, starts at zero), ``_parents`` the node handles of the
    inputs and ``_bwd`` the backward rule for the op that produced this node.
    Leaf tensors have no parents and no backward rule.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False, _parents=(), _op="leaf", _bwd=None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = _op
        self._parents = _parents
        self._bwd = _bwd

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
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._bwd is not None and node.requires_grad:
                node._bwd(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"


class Parameter(Tensor):
    """Trainable tensor carrying a momentum buffer of the same shape."""

    __slots__ = ("momentum",)

    def __init__(self, data):
        super().__init__(data, requires_grad=True, _op="param")
        self.momentum = np.zeros_like(self.data)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; backward yields g @ b.T and a.T @ g."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad,
                 _parents=(a, b), _op="matmul")

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    out._bwd = bwd
    return out


def apply_linear_operator(mat: np.ndarray, y: Tensor) -> Tensor:
    """Apply a fixed linear map: returns A.T @ y for an (n, m) matrix A.

    The matrix is a constant of the graph (it depends only on knot/eval
    point geometry, never on batch values), so no gradient is produced for
    it; the incoming gradient is carried back to ``y`` as A @ g.
    """
    y = _as_tensor(y)
    if y.data.ndim != 2 or mat.shape[0] != y.data.shape[0]:
        raise ShapeError(f"apply_linear_operator: operator {mat.shape} vs values {y.data.shape}")
    out = Tensor(mat.T @ y.data, requires_grad=y.requires_grad,
                 _parents=(y,), _op="linop")

    def bwd(g):
        _accum(y, mat @ g)

    out._bwd = bwd
    return out


def add(a, b) -> Tensor:
    """Sum of two tensors of the same shape (the dual-path loss mix)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad,
                 _parents=(a, b), _op="add")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    out._bwd = bwd
    return out


def scale(a, c: float) -> Tensor:
    """Multiply by a python-float constant (no gradient for the constant)."""
    a = _as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c, requires_grad=a.requires_grad, _parents=(a,), _op="scale")

    def bwd(g):
        _accum(a, g * c)

    out._bwd = bwd
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), requires_grad=a.requires_grad,
                 _parents=(a,), _op="relu")

    def bwd(g):
        _accum(a, g * (a.data > 0.0))

    out._bwd = bwd
    return out


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    t = np.tanh(a.data)
    out = Tensor(t, requires_grad=a.requires_grad, _parents=(a,), _op="tanh")

    def bwd(g):
        _accum(a, g * (1.0 - t * t))

    out._bwd = bwd
    return out


def add_bias(x, b) -> Tensor:
    """Row-wise bias add: (n, m) + (m,). The dedicated op an MLP layer needs."""
    x, b = _as_tensor(x), _as_tensor(b)
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"add_bias: {x.data.shape} vs {b.data.shape}")
    out = Tensor(x.data + b.data, requires_grad=x.requires_grad or b.requires_grad,
                 _parents=(x, b), _op="add_bias")

    def bwd(g):
        _accum(x, g)
        _accum(b, g.sum(axis=0))

    out._bwd = bwd
    return out


def tsum(a) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    a = _as_tensor(a)
    out = Tensor(np.sum(a.data), requires_grad=a.requires_grad, _parents=(a,), _op="sum")

    def bwd(g):
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    out._bwd = bwd
    return out


def mse_loss(pred, target) -> Tensor:
    """Mean of squared entrywise differences over the whole batch."""
    pred = _as_tensor(pred)
    tgt = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if pred.data.shape != tgt.shape:
        raise ShapeError(f"mse: {pred.data.shape} vs {tgt.shape}")
    diff = pred.data - tgt
    out = Tensor(np.mean(diff * diff), requires_grad=pred.requires_grad,
                 _parents=(pred,), _op="mse")

    def bwd(g):
        _accum(pred, g * (2.0 / diff.size) * diff)

    out._bwd = bwd
    return out


def softmax_cross_entropy(logits, target) -> Tensor:
    """Mean cross-entropy between row-softmax of logits and target rows.

    Targets are one-hot or probability rows and are treated as constants.
    """
    logits = _as_tensor(logits)
    tgt = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if logits.data.shape != tgt.shape:
        raise ShapeError(f"cross_entropy: {logits.data.shape} vs {tgt.shape}")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.sum(np.exp(z - zmax), axis=1, keepdims=True))
    n = z.shape[0]
    out = Tensor(np.sum(tgt * (lse - z)) / n, requires_grad=logits.requires_grad,
                 _parents=(logits,), _op="xent")
    softmax = np.exp(z - lse)

    def bwd(g):
        _accum(logits, g * (softmax - tgt) / n)

    out._bwd = bwd
    return out


def sgd_momentum_step(params, lr: float, momentum: float) -> None:
    """One SGD step: v <- momentum*v + g; theta <- theta - lr*v; grads zeroed.

    Zeroing lives inside the step so a stale gradient can never leak into
    the next iteration. No-op on an empty parameter list.
    """
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        p.momentum *= momentum
        p.momentum += g
        p.data -= lr * p.momentum
        p.grad = None
