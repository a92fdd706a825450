"""Deterministic synthetic datasets, feature-scaled to the [-1, 1] box.

Each kind has a closed-form generator so tests can recompute coordinates
independently:

two_moons              class 0 on (cos t, sin t), class 1 on (1 - cos t,
                       0.5 - sin t), t evenly spaced over [0, pi] per class.
concentric_circles     class 0 on the unit circle, class 1 on radius 0.5,
                       angles evenly spaced over [0, 2pi).
spirals                three arms, arm c: r = t, angle = 2*pi*t + 2*pi*c/3
                       for t evenly spaced over [0.25, 1].
sinusoid_regression    x ~ U(-1, 1), y = sin(2*pi*x) + noise.
gaussian8_autoencoder  8 isotropic modes, centers on a circle sized so
                       adjacent modes are unit-separated; std = noise.

Gaussian coordinate noise (scale ``noise``) is added to classification
inputs before scaling. Inputs of every kind except sinusoid_regression are
min-max scaled per coordinate over train+test jointly, so features land in
[-1, 1] exactly; sinusoid x is sampled in [-1, 1] directly and its targets
are left unscaled.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .seeding import stream_rng

KINDS = ("two_moons", "concentric_circles", "spirals",
         "sinusoid_regression", "gaussian8_autoencoder")

_TASKS = {
    "two_moons": "classification",
    "concentric_circles": "classification",
    "spirals": "classification",
    "sinusoid_regression": "regression",
    "gaussian8_autoencoder": "autoencoder",
}

_N_CLASSES = {"two_moons": 2, "concentric_circles": 2, "spirals": 3}


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    n_train: int = 1000
    n_test: int = 1000
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown dataset kind {self.kind!r}")
        if self.n_train < 2 or self.n_test < 1:
            raise ValidationError(f"data.n_train = {self.n_train} must be >= 2 and "
                                  f"data.n_test = {self.n_test} >= 1")
        if self.noise < 0:
            raise ValidationError(f"data.noise = {self.noise!r} must be >= 0")


@dataclass(frozen=True)
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray  # int labels, float targets, or None (autoencoder)
    test_x: np.ndarray
    test_y: np.ndarray


def task_of(kind: str) -> str:
    return _TASKS[kind]


def n_classes(kind: str) -> int:
    return _N_CLASSES[kind]


def _class_curve(kind: str, c: int, n: int) -> np.ndarray:
    """n noise-free points of class c, evenly spaced along its curve."""
    if kind == "two_moons":
        t = np.linspace(0.0, np.pi, max(n, 1))[:n]
        if c == 0:
            return np.column_stack([np.cos(t), np.sin(t)])
        return np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    if kind == "concentric_circles":
        a = np.linspace(0.0, 2 * np.pi, max(n, 1), endpoint=False)[:n]
        radius = 1.0 if c == 0 else 0.5
        return radius * np.column_stack([np.cos(a), np.sin(a)])
    t = np.linspace(0.25, 1.0, max(n, 1))[:n]  # spirals
    ang = 2 * np.pi * t + 2 * np.pi * c / 3.0
    return np.column_stack([t * np.cos(ang), t * np.sin(ang)])


def _arc_points(kind: str, count: int):
    """Noise-free closed-form inputs and labels for the classification kinds.

    Each of the C classes gets count // C points, and the first count % C
    classes one more; rows are grouped by class in label order.
    """
    n_cls = _N_CLASSES[kind]
    sizes = [count // n_cls + (c < count % n_cls) for c in range(n_cls)]
    x = np.concatenate([_class_curve(kind, c, n) for c, n in enumerate(sizes)])
    y = np.repeat(np.arange(n_cls, dtype=np.int64), sizes)
    return x, y


def _minmax_scale(x: np.ndarray) -> np.ndarray:
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    span = np.where(span > 0, span, 1.0)
    return 2.0 * (x - lo) / span - 1.0


def make_dataset(spec: DatasetSpec) -> Dataset:
    """Generate (train, test) deterministically from spec.seed."""
    rng = stream_rng(spec.seed, "dataset", spec.kind)
    nt, ne = spec.n_train, spec.n_test
    kind = spec.kind

    if task_of(kind) == "classification":
        xtr, ytr = _arc_points(kind, nt)
        xte, yte = _arc_points(kind, ne)
        x = np.concatenate([xtr, xte])
        y = np.concatenate([ytr, yte])
        if spec.noise > 0:
            x = x + rng.normal(0.0, spec.noise, x.shape)
        x = _minmax_scale(x)
    elif kind == "sinusoid_regression":
        x = rng.uniform(-1.0, 1.0, (nt + ne, 1))
        y = np.sin(2 * np.pi * x)
        if spec.noise > 0:
            y = y + rng.normal(0.0, spec.noise, y.shape)
    else:  # gaussian8_autoencoder
        radius = 1.0 / (2.0 * np.sin(np.pi / 8.0))  # adjacent centers 1 apart
        angles = 2 * np.pi * np.arange(8) / 8.0
        centers = radius * np.column_stack([np.cos(angles), np.sin(angles)])
        modes = rng.integers(0, 8, nt + ne)
        x = centers[modes] + rng.normal(0.0, spec.noise, (nt + ne, 2))
        x = _minmax_scale(x)
        y = None

    ptr = rng.permutation(nt)
    pte = rng.permutation(ne)
    xtr, xte = x[:nt][ptr], x[nt:][pte]
    if y is None:
        return Dataset(xtr, None, xte, None)
    ytr, yte = y[:nt][ptr], y[nt:][pte]
    return Dataset(xtr, ytr, xte, yte)


def one_hot(labels: np.ndarray, width: int) -> np.ndarray:
    return np.eye(width, dtype=np.float64)[np.asarray(labels, dtype=np.int64)]
