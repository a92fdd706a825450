"""Small fully-connected networks: plain functions of one parameter vector.

One numpy pass computes every layer's activations and one closed-form layer
recurrence (``MLP.backprop``) differentiates it, both in place on arrays they
create, never on their arguments. ``MLP.predict`` returns the last activation;
``MLP.forward`` records the network as one tape node over its input, with the
recurrence's input gradient as its rule. Training and the attacks call the
two passes directly. The parameters are ``MLP.theta``, laid out by
``MLPSpec.layout`` as the model file's parameter block: ``weights`` and
``biases`` are views into it, and ``backprop`` writes a pass's gradients
into one vector of that layout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, node
from .coded import MAX_POINTS
from .config import KEYS
from .errors import ShapeError, ValidationError


# model.activation: the gain of its weights' init variance, gain / fan-in
ACTIVATIONS = {"relu": 2.0, "tanh": 1.0}


@dataclass(frozen=True)
class MLPSpec:
    widths: tuple  # (input, hidden..., output)
    activation: str = KEYS["model.activation"].default

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"model.activation = {self.activation!r} must be one of "
                                  f"{', '.join(ACTIVATIONS)}")
        # a MAX_POINTS-square float64 weight is 128 MiB
        if len(self.widths) < 2 or not all(1 <= w <= MAX_POINTS for w in self.widths):
            raise ValidationError(f"model.widths = {self.widths} needs at least 2 widths, "
                                  f"each in [1, {MAX_POINTS}]")

    def layout(self) -> list:
        """(stretch of ``theta``, shape) per parameter: W1 (w0, w1), b1, W2, b2, ..."""
        parts, pos = [], 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                parts.append((slice(pos, pos + math.prod(shape)), shape))
                pos += math.prod(shape)
        return parts

    @property
    def n_parameters(self) -> int:
        return self.layout()[-1][0].stop  # the length of theta


class MLP:
    """Plain multilayer perceptron; hidden activations, linear output layer.

    Weight init is He-style for relu and Xavier-style for tanh, drawn from
    the supplied generator (pass None for a zero-initialized shell, e.g.
    when parameters are about to be loaded from a file).
    """

    def __init__(self, spec: MLPSpec, rng=None):
        self.spec = spec
        self._layout = spec.layout()  # read once: ``split`` runs every step
        self.theta = np.zeros(spec.n_parameters)
        params = self.split(self.theta)
        self.weights, self.biases = params[0::2], params[1::2]
        if rng is not None:
            for w in self.weights:
                w[...] = rng.normal(0.0, np.sqrt(ACTIVATIONS[spec.activation] / len(w)), w.shape)

    def __reduce__(self):
        # copied one by one, the parameter views would stop sharing theta
        return MLP, (self.spec,), self.theta

    def __setstate__(self, theta):
        self.theta[...] = theta

    def split(self, flat: np.ndarray) -> list:
        """Per-parameter views of a ``theta``-sized vector: W1, b1, W2, b2, ..."""
        return [flat[part].reshape(shape) for part, shape in self._layout]

    @property
    def input_dim(self) -> int:
        return self.spec.widths[0]

    @property
    def output_dim(self) -> int:
        return self.spec.widths[-1]

    def activations(self, x: np.ndarray) -> list:
        """[x, h1, ..., out]: the input and every layer's output."""
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"MLP input {x.shape} does not fit first layer "
                             f"{self.weights[0].shape}")
        relu = self.spec.activation == "relu"
        hs = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = hs[-1] @ w
            h += b
            if i < last and relu:
                np.maximum(h, 0.0, out=h)
            elif i < last:
                np.tanh(h, out=h)
            hs.append(h)
        return hs

    def backprop(self, hs: list, g: np.ndarray, input_grad: bool = True,
                 out: np.ndarray = None) -> list:
        """Gradients of one pass: [input, W1, b1, W2, b2, ...].

        ``hs`` is the pass's ``activations`` and ``g`` the gradient of its
        output. The layer recurrence runs from the output: ``g.sum(axis=0)``
        for the bias and ``h.T @ g`` for the weight, then ``g @ W.T`` and the
        activation derivative, read off the layer's output (``h > 0`` for
        relu, ``1 - h*h`` for tanh). Parameter gradients are views into one
        ``theta``-sized vector, ``out`` if given. Without ``input_grad`` the
        first entry is None and the first layer's ``g @ W.T`` is skipped.
        """
        relu = self.spec.activation == "relu"
        grads = self.split(np.empty_like(self.theta) if out is None else out)
        for i in range(len(self.weights) - 1, 0, -1):
            np.add.reduce(g, 0, out=grads[2 * i + 1])
            np.matmul(hs[i].T, g, out=grads[2 * i])
            g = g @ self.weights[i].T
            g *= hs[i] > 0.0 if relu else 1.0 - hs[i] * hs[i]
        np.add.reduce(g, 0, out=grads[1])
        np.matmul(hs[0].T, g, out=grads[0])
        return [g @ self.weights[0].T if input_grad else None] + grads

    def forward(self, x) -> Tensor:
        """The network as one tape node over the input, with ``backprop``'s
        input gradient as its backward rule; the parameters are constants."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        hs = self.activations(x.data)
        return node(hs[-1], (x,), lambda g: (self.backprop(hs, g)[0],))

    __call__ = forward

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Tape-free forward pass: the last activation of the shared pass."""
        return self.activations(np.asarray(x, dtype=np.float64))[-1]
