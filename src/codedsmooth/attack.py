"""Gradient attacks (FGSM/PGD) and randomized coded inference.

Adversarial examples are always crafted against the deterministic forward
pass. Evaluation then runs either that same standard pass or randomized
coded inference (RCI): shuffle the batch with a fresh uniform permutation,
push it through encode -> model -> decode, and unshuffle. The permutation
the defender draws is unknown to the attacker, which is the entire defense.

An attack is one class with the ``name``, ``epsilon`` and ``steps`` its rows
report and ``craft(model, x, y, seed)``; an inference mode is one class with
the ``name`` and ``n_prime`` its rows report and ``score(model, x, y,
trials)``. ``robust_eval`` crafts with the one and scores with the other.
"""

from dataclasses import dataclass

import numpy as np

from . import coded
from .autodiff import cross_entropy
from .coded import MAX_POINTS, MIN_POINTS
from .config import KEYS
from .datasets import accuracy, one_hot
from .errors import ShapeError, ValidationError
from .models import MLP
from .seeding import stream_rng

# the attacks run on classification data, which ``datasets`` min-max scales
# to this box; every crafted input is clipped back into it
BOX = (-1.0, 1.0)
# an L-inf ball of this radius around any point of BOX covers the whole box
MAX_EPSILON = BOX[1] - BOX[0]


def _check_epsilon(epsilon: float):
    if not 0 < epsilon <= MAX_EPSILON:
        raise ValidationError(f"attack.epsilon = {epsilon!r} must be in (0, {MAX_EPSILON:g}]: "
                              f"inputs lie in the box [{BOX[0]:g}, {BOX[1]:g}], which an "
                              f"L-inf ball of radius {MAX_EPSILON:g} already covers")


@dataclass(frozen=True)
class Clean:
    """No attack: the inputs themselves."""
    name, epsilon, steps = "none", 0.0, 0

    def craft(self, model: MLP, x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
        return x


@dataclass(frozen=True)
class FGSMSpec:
    epsilon: float
    name, steps = "fgsm", 1

    def __post_init__(self):
        _check_epsilon(self.epsilon)

    def craft(self, model: MLP, x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
        return fgsm(model, x, y, self.epsilon)


@dataclass(frozen=True)
class PGDSpec:
    epsilon: float
    steps: int = KEYS["attack.steps"].default
    step_size: float = KEYS["attack.step_size"].default  # None: epsilon / 4
    random_start: bool = KEYS["attack.random_start"].default

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if self.steps < 1:
            raise ValidationError(f"attack.steps = {self.steps} must be >= 1")
        if self.step_size is not None and self.step_size <= 0:
            raise ValidationError(f"attack.step_size = {self.step_size!r} must be > 0")

    @property
    def name(self) -> str:
        return f"pgd{self.steps}"

    def craft(self, model: MLP, x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
        """The random start draws from the ``pgd-start`` stream of ``seed``."""
        return pgd(model, x, y, self, rng=stream_rng(seed, "pgd-start"))


@dataclass(frozen=True)
class Standard:
    """Deterministic forward pass."""
    name, n_prime = "standard", 0

    def score(self, model: MLP, x: np.ndarray, y: np.ndarray, trials: int) -> float:
        return accuracy(model.predict(x), y)


@dataclass(frozen=True)
class RCI:
    n_prime: int
    k_prime: int
    seed: int = KEYS["attack.seed"].default
    name = "rci"

    def __post_init__(self):
        for key, value in (("attack.k_prime", self.k_prime), ("attack.n_prime", self.n_prime)):
            if not MIN_POINTS <= value <= MAX_POINTS:
                raise ValidationError(f"{key} = {value} must be in [{MIN_POINTS}, {MAX_POINTS}]")
        if self.n_prime < self.k_prime:
            raise ValidationError(f"attack.n_prime = {self.n_prime} must be >= "
                                  f"attack.k_prime = {self.k_prime}")

    def score(self, model: MLP, x: np.ndarray, y: np.ndarray, trials: int) -> float:
        """Scores the largest K'-multiple prefix (the module needs full
        batches), averaged over ``trials`` permutation draws."""
        kp = self.k_prime
        n_batches = x.shape[0] // kp
        if n_batches == 0:
            raise ValidationError(f"test set smaller than one K'={kp} batch")
        module = coded.get_module(kp, self.n_prime)
        acc = []
        for t in range(trials):
            out = [rci_forward(model, module, x[b * kp:(b + 1) * kp],
                               stream_rng(self.seed, "rci", t, b)) for b in range(n_batches)]
            acc.append(accuracy(np.concatenate(out), y[:n_batches * kp]))
        return float(np.mean(acc))


class Permutation:
    """A bijection on batch rows, stored with its inverse."""

    __slots__ = ("order", "inverse")

    def __init__(self, order: np.ndarray):
        order = np.asarray(order, dtype=np.int64)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(len(order))
        self.order = order
        self.inverse = inverse

    @classmethod
    def random(cls, k: int, rng) -> "Permutation":
        return cls(rng.permutation(k))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x[self.order]

    def invert(self, x: np.ndarray) -> np.ndarray:
        return x[self.inverse]


def _input_grad(model: MLP, x: np.ndarray, target: np.ndarray) -> np.ndarray:
    hs = model.activations(x)
    _, rule = cross_entropy(hs[-1], target)
    return model.backprop(hs, rule(1.0))[0]


def fgsm(model: MLP, x: np.ndarray, y: np.ndarray, epsilon: float) -> np.ndarray:
    """One signed-gradient step of size epsilon, clipped to ``BOX``."""
    target = one_hot(y, model.output_dim)
    g = _input_grad(model, x, target)
    return np.clip(x + epsilon * np.sign(g), *BOX)


def pgd(model: MLP, x: np.ndarray, y: np.ndarray, spec: PGDSpec, rng=None) -> np.ndarray:
    """Iterated signed-gradient ascent, projected to the L-inf ball and then
    to ``BOX`` each step.

    ``rng`` is only consumed when spec.random_start is set.
    """
    target = one_hot(y, model.output_dim)
    step = spec.epsilon / 4.0 if spec.step_size is None else spec.step_size
    lo, hi = x - spec.epsilon, x + spec.epsilon
    x_adv = x
    if spec.random_start:
        if rng is None:
            raise ValidationError("random_start PGD needs an rng")
        x_adv = np.clip(x + rng.uniform(-spec.epsilon, spec.epsilon, x.shape), *BOX)
    for _ in range(spec.steps):
        g = _input_grad(model, x_adv, target)
        x_adv = np.clip(np.clip(x_adv + step * np.sign(g), lo, hi), *BOX)
    return x_adv


def rci_forward(model: MLP, module, x: np.ndarray, rng) -> np.ndarray:
    """Randomized coded inference on one batch.

    Draws a fresh uniform permutation, encodes the shuffled batch, runs the
    model on the coded samples, decodes, and restores row order: row i of
    the result estimates the model's output on input row i.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != module.k:
        raise ShapeError(f"batch has {x.shape[0]} rows, module expects {module.k}")
    perm = Permutation.random(x.shape[0], rng)
    decoded = module.decode(model.predict(module.encode(perm.apply(x))))
    return perm.invert(decoded)


def robust_eval(model: MLP, x: np.ndarray, y: np.ndarray, attack, mode,
                trials: int = KEYS["attack.trials"].default,
                seed: int = KEYS["attack.seed"].default) -> float:
    """Accuracy of ``mode`` on the inputs ``attack`` crafts from ``x``; a caller
    scoring one attack under several modes crafts once and passes ``Clean()``."""
    return mode.score(model, attack.craft(model, x, y, seed), y, trials)
