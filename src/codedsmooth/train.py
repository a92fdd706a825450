"""Dual-path training of small MLPs on the synthetic tasks.

Three methods share one step: plain minimization of the task loss, mixup
(which mixes the batch first), and the coded-smoothing regularizer; the
first two are the coded step with mu = 0. The coded method routes the batch
through a parallel smoothing path (encode -> network -> decode, parameters
shared with the direct path) and mixes the two losses as
(1 - mu) * direct + mu * smoothed. The number of coded samples ramps
linearly from the batch size K up to gamma*K over training.

A method is one ``ERM`` subclass: its ``mu`` (0 unless a field sets it) and
``batch(x, t, rng)``, the batch the step sees (``rng`` is the mixup stream).

Randomness is split into named streams (init / shuffle / mixup) so that
methods consuming fewer streams stay bit-compatible: a mu=0 coded run
replays the plain run exactly.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff, coded
from .autodiff import Tensor
from .coded import MAX_POINTS, MIN_POINTS
from .config import KEYS
from .datasets import KINDS, DatasetSpec, accuracy, make_dataset, one_hot
from .errors import NumericError, ValidationError
from .models import MLP, MLPSpec
from .modelio import csv_table
from .seeding import stream_rng


@dataclass(frozen=True)
class ERM:
    """Plain training on the task loss."""
    mu = 0.0  # not a field: fields are config keys and the model file's method line

    def batch(self, x: np.ndarray, t: np.ndarray, rng) -> tuple:
        return x, t


@dataclass(frozen=True)
class Mixup(ERM):
    alpha: float = KEYS["train.mixup_alpha"].default

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValidationError(f"train.mixup_alpha = {self.alpha!r} must be > 0")

    def batch(self, x: np.ndarray, t: np.ndarray, rng) -> tuple:
        """Convex combination of the batch with a permuted partner batch.

        One lambda ~ Beta(alpha, alpha) per batch; targets must be one-hot or
        probability rows so the mixed targets stay rows summing to one.
        """
        lam = rng.beta(self.alpha, self.alpha)
        part = rng.permutation(x.shape[0])
        return lam * x + (1.0 - lam) * x[part], lam * t + (1.0 - lam) * t[part]


@dataclass(frozen=True)
class Coded(ERM):
    mu: float = KEYS["train.mu"].default
    gamma: float = KEYS["train.gamma"].default

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ValidationError(f"train.mu = {self.mu!r} must be in [0, 1]")
        if self.gamma < 1.0:
            raise ValidationError(f"train.gamma = {self.gamma!r} must be >= 1")


# train.method: (its class, the prefix of the keys that set the class's fields)
METHODS = {"erm": (ERM, "train."), "mixup": (Mixup, "train.mixup_"), "coded": (Coded, "train.")}


@dataclass(frozen=True)
class TrainPlan:
    dataset: DatasetSpec
    model: MLPSpec
    epochs: int = KEYS["train.epochs"].default
    batch_size: int = KEYS["train.batch_size"].default
    lr: float = KEYS["train.lr"].default
    lr_decay_epochs: tuple = KEYS["train.lr_decay_epochs"].default
    momentum: float = KEYS["train.momentum"].default
    seed: int = KEYS["train.seed"].default
    method: object = ERM()

    def __post_init__(self):
        if self.batch_size < MIN_POINTS:
            raise ValidationError(f"train.batch_size = {self.batch_size} must be >= {MIN_POINTS}")
        if self.epochs < 1:
            raise ValidationError(f"train.epochs = {self.epochs} must be >= 1")
        if not self.lr > 0.0:
            raise ValidationError(f"train.lr = {self.lr!r} must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"train.momentum = {self.momentum!r} must be in [0, 1)")
        for epoch in self.lr_decay_epochs:
            if not 0 <= epoch < self.epochs:
                raise ValidationError(f"train.lr_decay_epochs has {epoch}; entries must be in "
                                      f"[0, train.epochs = {self.epochs})")
            if self.lr_decay_epochs.count(epoch) > 1:
                raise ValidationError(f"train.lr_decay_epochs has {epoch} more than once; "
                                      "each epoch divides train.lr once")
        if self.dataset.n_train < 2 * self.batch_size:
            raise ValidationError(f"data.n_train = {self.dataset.n_train} must be >= "
                                  f"2 * train.batch_size ({2 * self.batch_size})")
        self.dataset.check_fits(self.model.widths)
        if isinstance(self.method, Coded):
            # compared as a float: round() of a huge or infinite product
            # overflows; round(n) <= MAX_POINTS exactly when n <= MAX_POINTS + 0.5
            n = self.method.gamma * self.batch_size
            if n > MAX_POINTS + 0.5:
                raise ValidationError(f"train.gamma = {self.method.gamma!r} with train.batch_size "
                                      f"= {self.batch_size} codes N = {n:g} points; "
                                      f"N must be <= {MAX_POINTS}")


class EpochRecord(NamedTuple):
    epoch: int
    loss_main: float
    loss_coded: float  # nan when no smoothing path ran
    test_metric: float
    n_coded: int


@dataclass
class Metrics:
    records: list = field(default_factory=list)
    boundary_smoothness: float = float("nan")

    @property
    def final_test_metric(self) -> float:
        return self.records[-1].test_metric

    def to_csv(self) -> str:
        return csv_table("epoch,loss_main,loss_coded,test_metric,N", self.records)


def schedule_n(method: Coded, epoch: int, total_epochs: int, k: int) -> int:
    """Coded-sample count for this epoch.

    A linear ramp from K at the first epoch to round(gamma*K) at the last;
    a single-epoch run, and gamma = 1, stay at K. Result is clamped into
    [K, round(gamma*K)] and is non-decreasing in epoch.
    """
    top = int(round(method.gamma * k))
    if total_epochs <= 1:
        return k
    frac = epoch / (total_epochs - 1)
    n = int(round(k + (method.gamma * k - k) * frac))
    return max(k, min(n, top))


def dual_path_terms(model: MLP, module, x: np.ndarray, target: np.ndarray,
                    mu: float, task: str, out: np.ndarray = None):
    """(main, coded, grads) for one batch.

    ``main`` is the task loss of the model on the batch and ``coded`` the
    task loss of decode(model(encode(batch))), both floats. ``grads`` holds
    one array per parameter, in ``theta``'s order (W1, b1, W2, b2, ...): the
    gradient of (1 - mu) * main + mu * coded, as views into one
    ``theta``-sized vector (``out`` if given). ``model.backprop`` runs once per path
    that carries weight: on the coded rows E.T x, with the coded loss's
    gradient carried back through the decoder as ``D @ g``, and on the
    batch; one ``+=`` adds the direct path's vector into the coded path's,
    which equals the op-by-op tape composition bit for bit.

    mu = 0 skips the smoothing path entirely (the step is then identical to
    plain training, ``module`` may be None and ``coded`` is None); mu = 1
    backpropagates only the smoothed path.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValidationError("mu must be in [0, 1]")
    loss = autodiff.cross_entropy if task == "classification" else autodiff.mse
    out = np.empty_like(model.theta) if out is None else out
    hs = model.activations(x)
    main, main_rule = loss(hs[-1], target)
    if mu == 0.0:
        return float(main), None, model.backprop(hs, main_rule(1.0), False, out)[1:]
    hs_coded = model.activations(module.encode(x))
    coded, coded_rule = loss(module.decode(hs_coded[-1]), target)
    grads = model.backprop(hs_coded, module.dec_op @ coded_rule(mu), False, out)[1:]
    if mu < 1.0:
        direct = np.empty_like(out)
        model.backprop(hs, main_rule(1.0 - mu), False, direct)
        out += direct
    return float(main), float(coded), grads


def boundary_smoothness(model: MLP, grid: np.ndarray) -> float:
    """Mean input-gradient norm of the logit margin over a point grid.

    The margin is logit[1] - logit[0]; only models with 2-d inputs (and at
    least two outputs) qualify. The summed margin is one tape node over the
    network's node, and one backward pass gives every grid point's input
    gradient; the parameters are constants of that graph.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if model.input_dim != 2 or grid.ndim != 2 or grid.shape[1] != 2:
        raise ValidationError("boundary smoothness needs a 2-d input model and (g, 2) grid")
    if model.output_dim < 2:
        raise ValidationError("boundary smoothness needs >= 2 output logits")
    row = np.zeros(model.output_dim)
    row[0] = -1.0
    row[1] = 1.0
    x = Tensor(grid, requires_grad=True)
    logits = model(x)
    margin = autodiff.node(np.sum(logits.data @ row), (logits,),
                           lambda g: (g * np.broadcast_to(row, logits.data.shape),))
    margin.backward()
    return float(np.mean(np.sqrt(np.sum(x.grad * x.grad, axis=1))))


def margin_grid(side: int = 25) -> np.ndarray:
    """The fixed evaluation grid: side x side lattice over [-1, 1]^2."""
    line = np.linspace(-1.0, 1.0, side)
    gx, gy = np.meshgrid(line, line)
    return np.column_stack([gx.ravel(), gy.ravel()])


def evaluate_model(model: MLP, x: np.ndarray, y, task: str) -> float:
    """Test accuracy against labels for classification, mean squared error
    against the target rows ``y`` otherwise."""
    if task == "classification":
        return accuracy(model.predict(x), y)
    return float(autodiff.mse(model.predict(x), y)[0])


def _epochs(plan: TrainPlan, every_epoch: bool):
    """``plan``'s run for ``train``: yields (model, metrics) after each epoch,
    holding that epoch's coded module until the next."""
    data = make_dataset(plan.dataset)
    task, _, outputs = KINDS[plan.dataset.kind]
    if task == "classification":
        train_targets = one_hot(data.train_y, outputs)
        test_targets = data.test_y
    elif task == "autoencoder":
        train_targets, test_targets = data.train_x, data.test_x
    else:
        train_targets, test_targets = data.train_y, data.test_y

    model = MLP(plan.model, stream_rng(plan.seed, "init"))
    grad = np.empty_like(model.theta)
    velocity = np.zeros_like(model.theta)  # SGD momentum buffer
    rng_shuffle = stream_rng(plan.seed, "data-shuffle")
    rng_mixup = stream_rng(plan.seed, "mixup")
    method = plan.method
    mu = method.mu

    metrics = Metrics()
    lr = plan.lr
    k = plan.batch_size
    n_batches = data.train_x.shape[0] // k
    for epoch in range(plan.epochs):
        if epoch in plan.lr_decay_epochs:
            lr /= 10.0
        if mu > 0.0:
            n_coded = schedule_n(method, epoch, plan.epochs, k)
            module = coded.get_module(k, n_coded)
        else:
            n_coded = k
            module = None

        order = rng_shuffle.permutation(data.train_x.shape[0])
        main_vals = []
        coded_vals = []
        for b in range(n_batches):
            idx = order[b * k:(b + 1) * k]
            xb, tb = method.batch(data.train_x[idx], train_targets[idx], rng_mixup)
            main, coded_loss, _ = dual_path_terms(model, module, xb, tb, mu, task, grad)
            main_vals.append(main)
            if coded_loss is not None:
                coded_vals.append(coded_loss)
            for name, value, weight in (("main", main, 1.0 - mu), ("coded", coded_loss, mu)):
                if weight > 0.0 and not math.isfinite(value):
                    raise NumericError(f"non-finite {name} loss at epoch {epoch}, batch {b}")
            autodiff.sgd_momentum_step(model.theta, grad, velocity, lr, plan.momentum)

        metrics.records.append(EpochRecord(
            epoch=epoch,
            loss_main=float(np.mean(main_vals)),
            loss_coded=float(np.mean(coded_vals)) if coded_vals else float("nan"),
            test_metric=(evaluate_model(model, data.test_x, test_targets, task)
                         if every_epoch or epoch == plan.epochs - 1 else float("nan")),
            n_coded=n_coded,
        ))
        yield model, metrics


def train(plans, every_epoch: bool = True):
    """Train a plan, or a list of plans in lockstep (epoch e of each before
    epoch e + 1 of any); returns (model, metrics), or a list of them.
    Bit-deterministic given each plan. The plans on one N ramp share each
    coded module, built once and freed when the last of them moves past it.

    Epochs shuffle the training set; a trailing partial batch (< K rows) is
    dropped since the smoothing module needs exactly K rows. Every loss term
    that carries weight is guarded against NaN/Inf every step. With mu = 0
    the smoothing path is never instantiated, so the run (and its metrics
    CSV) is identical to plain training.

    ``every_epoch`` evaluates the test set after every epoch; without it
    only the last epoch is evaluated and the other records hold nan as
    their test metric. Evaluation draws no random numbers, so the trained
    bits are the same either way.

    ``TrainPlan`` fitted the widths to the data kind's columns when it was
    built, so no width is checked here against the generated arrays.
    """
    one = isinstance(plans, TrainPlan)
    plans = [plans] if one else list(plans)
    runs = [_epochs(plan, every_epoch) for plan in plans]
    results = [None] * len(runs)
    # a diverging run is reported by the guard's one line, not numpy's warnings; one
    # errstate for all, as a suspended run's own would restore stale state on exit
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max(plan.epochs for plan in plans)):
            for i, run in enumerate(runs):
                try:
                    results[i] = next(run, results[i])
                except NumericError as err:
                    err.index = i
                    raise
        for model, metrics in results:
            if model.input_dim == 2 and model.output_dim >= 2:
                metrics.boundary_smoothness = boundary_smoothness(model, margin_grid())
    return results[0] if one else results
