"""Gradient attacks (FGSM/PGD) and randomized coded inference.

Adversarial examples are always crafted against the deterministic forward
pass. Evaluation then runs either that same standard pass or randomized
coded inference (RCI): shuffle the batch with a fresh uniform permutation,
push it through encode -> model -> decode, and unshuffle. The permutation
the defender draws is unknown to the attacker, which is the entire defense.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import cross_entropy
from .coded import MAX_POINTS, MIN_POINTS, get_module
from .datasets import one_hot
from .errors import ShapeError, ValidationError
from .models import MLP
from .seeding import stream_rng


@dataclass(frozen=True)
class FGSMSpec:
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValidationError(f"attack.epsilon = {self.epsilon!r} must be > 0")


@dataclass(frozen=True)
class PGDSpec:
    epsilon: float
    steps: int = 10
    step_size: float = None  # defaults to epsilon / 4
    random_start: bool = True

    def __post_init__(self):
        if self.epsilon <= 0 or self.steps < 1:
            raise ValidationError(f"attack.epsilon = {self.epsilon!r} must be > 0 and "
                                  f"attack.steps = {self.steps} >= 1")
        if self.step_size is not None and self.step_size <= 0:
            raise ValidationError(f"attack.step_size = {self.step_size!r} must be > 0")

    def resolved_step(self) -> float:
        return self.epsilon / 4.0 if self.step_size is None else self.step_size


@dataclass(frozen=True)
class Standard:
    """Deterministic forward pass."""


@dataclass(frozen=True)
class RCI:
    n_prime: int
    k_prime: int
    seed: int = 0

    def __post_init__(self):
        if self.k_prime < MIN_POINTS or self.n_prime < MIN_POINTS:
            raise ValidationError(f"attack.k_prime = {self.k_prime} and attack.n_prime = "
                                  f"{self.n_prime} must both be >= {MIN_POINTS}")
        if self.n_prime < self.k_prime:
            raise ValidationError(f"attack.n_prime = {self.n_prime} must be >= "
                                  f"attack.k_prime = {self.k_prime}")
        if self.n_prime > MAX_POINTS:
            raise ValidationError(f"attack.n_prime = {self.n_prime} must be <= {MAX_POINTS}")


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


def fgsm(model: MLP, x: np.ndarray, y: np.ndarray, epsilon: float,
         box=(-1.0, 1.0)) -> np.ndarray:
    """One signed-gradient step of size epsilon, clipped to the input box."""
    target = one_hot(y, model.output_dim)
    g = _input_grad(model, x, target)
    return np.clip(x + epsilon * np.sign(g), box[0], box[1])


def pgd(model: MLP, x: np.ndarray, y: np.ndarray, spec: PGDSpec,
        box=(-1.0, 1.0), rng=None) -> np.ndarray:
    """Iterated signed-gradient ascent, projected to the L-inf ball each step.

    ``rng`` is only consumed when spec.random_start is set.
    """
    target = one_hot(y, model.output_dim)
    step = spec.resolved_step()
    lo, hi = x - spec.epsilon, x + spec.epsilon
    x_adv = x
    if spec.random_start:
        if rng is None:
            raise ValidationError("random_start PGD needs an rng")
        x_adv = np.clip(x + rng.uniform(-spec.epsilon, spec.epsilon, x.shape),
                        box[0], box[1])
    for _ in range(spec.steps):
        g = _input_grad(model, x_adv, target)
        x_adv = x_adv + step * np.sign(g)
        x_adv = np.clip(x_adv, lo, hi)
        x_adv = np.clip(x_adv, box[0], box[1])
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


def _accuracy(scores: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.argmax(scores, axis=1) == y))


def craft(model: MLP, x: np.ndarray, y: np.ndarray, attack, seed: int = 0) -> np.ndarray:
    """Adversarial inputs for ``attack`` (None: ``x`` itself), crafted
    white-box against the standard deterministic pass. PGD's random start
    draws from the ``pgd-start`` stream of ``seed``."""
    if attack is None:
        return x
    if isinstance(attack, FGSMSpec):
        return fgsm(model, x, y, attack.epsilon)
    if isinstance(attack, PGDSpec):
        return pgd(model, x, y, attack, rng=stream_rng(seed, "pgd-start"))
    raise ValidationError(f"unknown attack {attack!r}")


def robust_eval(model: MLP, x: np.ndarray, y: np.ndarray, attack, mode,
                trials: int = 20, seed: int = 0) -> float:
    """Accuracy under an attack (or clean, attack=None) and an inference mode.

    Adversarial inputs come from ``craft``; the inference mode only changes
    how they are then evaluated, so a caller scoring one attack under
    several modes can craft once and pass the crafted inputs with
    attack=None. Standard mode scores every row; RCI scores the largest
    K'-multiple prefix (the module needs full batches) and averages over
    ``trials`` permutation draws.
    """
    x_adv = craft(model, x, y, attack, seed)
    if isinstance(mode, Standard):
        return _accuracy(model.predict(x_adv), y)

    kp = mode.k_prime
    n_batches = x_adv.shape[0] // kp
    if n_batches == 0:
        raise ValidationError(f"test set smaller than one K'={kp} batch")
    module = get_module(kp, mode.n_prime)
    used = n_batches * kp
    acc = []
    for t in range(trials):
        correct = 0
        for b in range(n_batches):
            sl = slice(b * kp, (b + 1) * kp)
            out = rci_forward(model, module, x_adv[sl], stream_rng(mode.seed, "rci", t, b))
            correct += int(np.sum(np.argmax(out, axis=1) == y[sl]))
        acc.append(correct / used)
    return float(np.mean(acc))
