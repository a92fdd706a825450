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

``KINDS`` holds each kind's task and its input and output columns (the
classes, the targets, or the inputs an autoencoder rebuilds), and
``DatasetSpec.check_fits`` is the one place that compares widths with them.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import KEYS
from .errors import ValidationError
from .seeding import stream_rng


class Kind(NamedTuple):
    task: str
    inputs: int
    outputs: int  # classes, target columns, or the input columns rebuilt


KINDS = {
    "two_moons": Kind("classification", 2, 2),
    "concentric_circles": Kind("classification", 2, 2),
    "spirals": Kind("classification", 2, 3),
    "sinusoid_regression": Kind("regression", 1, 1),
    "gaussian8_autoencoder": Kind("autoencoder", 2, 2),
}

# most rows a train or test set may have: 16 MB as 2-column float64
MAX_ROWS = 1_000_000
# largest noisy value accepted: min-max scaling doubles a span of twice this
MAX_VALUE = np.finfo(np.float64).max / 4


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    n_train: int = KEYS["data.n_train"].default
    n_test: int = KEYS["data.n_test"].default
    noise: float = KEYS["data.noise"].default
    seed: int = KEYS["data.seed"].default

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"data.kind = {self.kind!r} must be one of {', '.join(KINDS)}")
        if not 2 <= self.n_train <= MAX_ROWS:
            raise ValidationError(f"data.n_train = {self.n_train} must be in [2, {MAX_ROWS}]")
        if not 1 <= self.n_test <= MAX_ROWS:
            raise ValidationError(f"data.n_test = {self.n_test} must be in [1, {MAX_ROWS}]")
        if self.noise < 0:
            raise ValidationError(f"data.noise = {self.noise!r} must be >= 0")

    def check_fits(self, widths: tuple) -> None:
        """ValidationError unless a network of ``widths`` maps this kind's
        input columns to its output columns."""
        kind = KINDS[self.kind]
        if (widths[0], widths[-1]) != (kind.inputs, kind.outputs):
            raise ValidationError(f"model.widths = {tuple(widths)} does not fit data.kind = "
                                  f"{self.kind}, which has {kind.inputs} input and "
                                  f"{kind.outputs} output columns")


@dataclass(frozen=True)
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray  # int labels, float targets, or the inputs (autoencoder)
    test_x: np.ndarray
    test_y: np.ndarray


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
    n_cls = KINDS[kind].outputs
    sizes = [count // n_cls + (c < count % n_cls) for c in range(n_cls)]
    x = np.concatenate([_class_curve(kind, c, n) for c, n in enumerate(sizes)])
    y = np.repeat(np.arange(n_cls, dtype=np.int64), sizes)
    return x, y


def _noisy(values: np.ndarray, noise: float, rng) -> np.ndarray:
    """values + N(0, noise**2); past +-MAX_VALUE, or nan, a ValidationError names data.noise."""
    out = values + rng.normal(0.0, noise, values.shape)
    if not np.max(np.abs(out)) <= MAX_VALUE:
        raise ValidationError(f"data.noise = {noise!r} is too large: noisy values must stay "
                              f"within +-{MAX_VALUE:.3g}")
    return out


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

    if KINDS[kind].task == "classification":
        xtr, ytr = _arc_points(kind, nt)
        xte, yte = _arc_points(kind, ne)
        x = np.concatenate([xtr, xte])
        y = np.concatenate([ytr, yte])
        if spec.noise > 0:
            x = _noisy(x, spec.noise, rng)
        x = _minmax_scale(x)
    elif kind == "sinusoid_regression":
        x = rng.uniform(-1.0, 1.0, (nt + ne, 1))
        y = np.sin(2 * np.pi * x)
        if spec.noise > 0:
            y = _noisy(y, spec.noise, rng)
    else:  # gaussian8_autoencoder
        radius = 1.0 / (2.0 * np.sin(np.pi / 8.0))  # adjacent centers 1 apart
        angles = 2 * np.pi * np.arange(8) / 8.0
        centers = radius * np.column_stack([np.cos(angles), np.sin(angles)])
        modes = rng.integers(0, 8, nt + ne)
        x = _noisy(centers[modes], spec.noise, rng)
        x = _minmax_scale(x)
        y = x  # an autoencoder's targets are its inputs

    ptr = rng.permutation(nt)
    pte = rng.permutation(ne)
    xtr, xte = x[:nt][ptr], x[nt:][pte]
    ytr, yte = y[:nt][ptr], y[nt:][pte]
    return Dataset(xtr, ytr, xte, yte)


def one_hot(labels: np.ndarray, width: int) -> np.ndarray:
    return np.eye(width, dtype=np.float64)[np.asarray(labels, dtype=np.int64)]


def accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose highest score is at their label."""
    return float(np.mean(np.argmax(scores, axis=1) == labels))
