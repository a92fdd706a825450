"""Small fully-connected networks on the autodiff tape.

One numpy pass computes every layer's activations. ``MLP.predict`` returns
the last of them; ``MLP.forward`` records the whole network as one tape node
whose backward rule is the closed-form layer recurrence, so the network is
written once and both entry points give the same bits.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter, Tensor, node
from .errors import ShapeError, ValidationError

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MLPSpec:
    widths: tuple  # (input, hidden..., output)
    activation: str = "relu"

    def __post_init__(self):
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValidationError(f"bad layer widths {self.widths}")
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")


class MLP:
    """Plain multilayer perceptron; hidden activations, linear output layer.

    Weight init is He-style for relu and Xavier-style for tanh, drawn from
    the supplied generator (pass None for a zero-initialized shell, e.g.
    when parameters are about to be loaded from a file).
    """

    def __init__(self, spec: MLPSpec, rng=None):
        self.spec = spec
        self.weights = []
        self.biases = []
        act_gain = {"relu": 2.0, "tanh": 1.0}[spec.activation]
        for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
            if rng is None:
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.normal(0.0, np.sqrt(act_gain / fan_in), (fan_in, fan_out))
            self.weights.append(Parameter(w))
            self.biases.append(Parameter(np.zeros(fan_out)))

    @property
    def input_dim(self) -> int:
        return self.spec.widths[0]

    @property
    def output_dim(self) -> int:
        return self.spec.widths[-1]

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def _activations(self, x: np.ndarray) -> list:
        """[x, h1, ..., out]: the input and every layer's output."""
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"MLP input {x.shape} does not fit first layer "
                             f"{self.weights[0].data.shape}")
        relu = self.spec.activation == "relu"
        hs = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = hs[-1] @ w.data + b.data
            if i < last:
                h = np.maximum(h, 0.0) if relu else np.tanh(h)
            hs.append(h)
        return hs

    def forward(self, x) -> Tensor:
        """The network as one tape node over the input and every parameter.

        Backward runs the layer recurrence from the output: the activation
        derivative, read off the layer's output (``h > 0`` for relu,
        ``1 - h*h`` for tanh), then ``h.T @ g`` for the weight,
        ``g.sum(axis=0)`` for the bias and ``g @ W.T`` for the layer input.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        hs = self._activations(x.data)
        relu = self.spec.activation == "relu"

        def grads(g):
            out = []
            for i in range(len(self.weights) - 1, -1, -1):
                out += [g.sum(axis=0), hs[i].T @ g]
                g = g @ self.weights[i].data.T
                if i > 0:
                    g = g * (hs[i] > 0.0) if relu else g * (1.0 - hs[i] * hs[i])
            out.append(g)
            return out[::-1]

        return node(hs[-1], (x, *self.parameters()), grads)

    __call__ = forward

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Tape-free forward pass: the last activation of the shared pass."""
        return self._activations(np.asarray(x, dtype=np.float64))[-1]
