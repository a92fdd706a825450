"""Straggler-tolerant coded-computing simulator.

N workers each evaluate the wrapped function on one coded sample; up to S of
them never return. The decoder spline is fitted only on the surviving
(point, output) pairs and still evaluated at the original batch abscissas.
Straggling is simulated by omission, not latency: which results return is
the only thing the estimate depends on, so the seeds of one (N, S) cell
share one worker evaluation, and a sweep decodes the survivors of its whole
grid, every (N, S, seed) with S > 0, in one batched decode.

Drop policies: ``uniform_random`` removes exactly S uniformly chosen
workers; ``adversarial_contiguous`` removes the contiguous run of S workers
whose loss widens the decoder's knot gap the most (contiguous holes are the
worst case for spline interpolation).
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import coded
from .coded import MAX_POINTS, MIN_POINTS
from .config import KEYS
from .errors import ValidationError
from .modelio import csv_table
from .seeding import stream_rng
from .spline import Knots, fit_eval_batch

_EXACT_FLOOR = 1e-18  # mean MSE below this is exact recovery up to rounding

# benchmark functions for rate experiments (vectorized, elementwise)
BENCH_FUNCTIONS = {
    "sin": np.sin,
    "gauss_bump": lambda x: np.exp(-4.0 * x * x),
    "cubic": lambda x: x * x * x - x,
    "const": lambda x: np.full_like(np.asarray(x, dtype=np.float64), 0.5),
}


def sample_inputs(k: int, seed: int) -> np.ndarray:
    """The shared uniform(-1, 1) scalar-column batch used by rate experiments."""
    return stream_rng(seed, "inputs").uniform(-1.0, 1.0, (k, 1))


@dataclass(frozen=True)
class StragglerScenario:
    n_workers: int
    max_stragglers: int = 0
    policy: str = KEYS["sim.policy"].default
    seed: int = 0

    def __post_init__(self):
        n, s = self.n_workers, self.max_stragglers
        if n < MIN_POINTS:
            raise ValidationError(f"sim.N_list has N = {n}; need at least {MIN_POINTS} workers")
        if n > MAX_POINTS:
            raise ValidationError(f"sim.N_list has N = {n}; at most {MAX_POINTS} workers")
        if s < 0:
            raise ValidationError(f"sim.S_list has S = {s}; must be >= 0")
        if s >= n - (MIN_POINTS - 1):
            raise ValidationError(f"sim.S_list has S = {s} and sim.N_list has N = {n}; "
                                  f"need S < N - {MIN_POINTS - 1}")
        if self.policy not in KEYS["sim.policy"].allowed:
            raise ValidationError(f"unknown policy {self.policy!r}")


class SweepRow(NamedTuple):
    n_workers: int
    stragglers: int
    policy: str
    seed: int
    mse: float


@dataclass
class SimReport:
    rows: list = field(default_factory=list)

    def cell_means(self) -> dict:
        """(N, S) -> mean MSE over seeds."""
        sums, counts = {}, {}
        for r in self.rows:
            key = (r.n_workers, r.stragglers)
            sums[key] = sums.get(key, 0.0) + r.mse
            counts[key] = counts.get(key, 0) + 1
        return {key: sums[key] / counts[key] for key in sums}

    def to_csv(self) -> str:
        return csv_table("N,S,policy,seed,mse", self.rows)


def returned_indices(scenario: StragglerScenario, beta: np.ndarray) -> np.ndarray:
    """Sorted indices of the workers whose results arrive."""
    n, s = scenario.n_workers, scenario.max_stragglers
    if s == 0:
        return np.arange(n)
    keep = np.ones(n, dtype=bool)
    if scenario.policy == "uniform_random":
        keep[stream_rng(scenario.seed, "stragglers").choice(n, size=s, replace=False)] = False
        return np.flatnonzero(keep)
    # adversarial_contiguous: drop the first run whose removal leaves the
    # widest gap between its kept neighbours (an end knot at either end)
    padded = np.concatenate([beta[:1], beta, beta[-1:]])
    start = int(np.argmax(padded[s + 1:] - padded[:n - s + 1]))
    keep[start:start + s] = False
    return np.flatnonzero(keep)


def _run_cells(f, x: np.ndarray, cells) -> list:
    """(estimates, mses) of each cell, a list of scenarios of one (N, S).

    Each cell looks its module up once and its workers compute once. S = 0
    cells decode through the module; the survivors of every S > 0 scenario
    of every cell are decoded together, in one ``fit_eval_batch`` call.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < MIN_POINTS:
        raise ValidationError(f"need a (K >= {MIN_POINTS}, d) batch, got shape {x.shape}")
    # per cell: its estimates, or the slice of the batched decode that holds them
    estimates, survivors, blocks = [], [], []
    for scenarios in cells:
        shared = {(sc.n_workers, sc.max_stragglers) for sc in scenarios}
        if len(shared) != 1:
            raise ValidationError(f"scenarios must share one (N, S) cell, got {sorted(shared)}")
        ((n, s),) = shared
        module = coded.get_module(x.shape[0], n)
        outputs = f(module.encode(x))
        # each set keeps >= MIN_POINTS workers by the scenario's check
        keeps = [returned_indices(sc, module.beta) for sc in scenarios]
        if s == 0:
            estimates.append(np.stack([module.decode(outputs)] * len(scenarios)))
        else:
            estimates.append(slice(len(survivors), len(survivors) + len(keeps)))
            survivors += [Knots(module.beta[k]) for k in keeps]
            blocks += [outputs[k] for k in keeps]
    if survivors:
        decoded = fit_eval_batch(survivors, blocks, module.alpha)
        estimates = [decoded[e] if isinstance(e, slice) else e for e in estimates]

    fx = f(x)
    return [(e, [float(np.mean(np.sum(d * d, axis=1))) for d in e - fx]) for e in estimates]


def run_coded_jobs(f, x: np.ndarray, scenarios) -> tuple:
    """One encode/compute/decode round per scenario, all of one (N, S) cell.

    The workers compute once. Returns (estimates, mses): a (B, K, d) array
    and a list of B floats, each the mean over batch rows of the squared
    output-vector error. S = 0 takes the plain module path, bit-identical to
    ``module.forward``; S > 0 decodes every scenario's N - S survivors in one
    batched tridiagonal sweep, bit-identical to fitting and evaluating each
    alone. It is ``sweep``'s decode applied to one cell.
    """
    ((estimates, mses),) = _run_cells(f, x, [scenarios])
    return estimates, mses


def run_coded_job(f, x: np.ndarray, scenario: StragglerScenario) -> tuple:
    """``run_coded_jobs`` for one scenario: (estimates, mse)."""
    estimates, mses = run_coded_jobs(f, x, [scenario])
    return estimates[0], mses[0]


def sweep(f, x: np.ndarray, n_list, s_list, seeds,
          policy: str = KEYS["sim.policy"].default) -> SimReport:
    """Grid over (N, S, seed); deterministic. Each (N, S) cell looks its
    module up once, and the survivors of every S > 0 scenario of the grid
    are decoded in one batched sweep, as ``run_coded_jobs`` decodes a cell.

    Every scenario is checked before the first cell runs.
    """
    cells = [[StragglerScenario(n, s, policy, seed) for seed in seeds]
             for n in n_list for s in s_list]
    report = SimReport()
    for cell, (_, mses) in zip(cells, _run_cells(f, x, cells)):
        report.rows += [SweepRow(sc.n_workers, sc.max_stragglers, policy, sc.seed, mse)
                        for sc, mse in zip(cell, mses)]
    return report


def fit_scaling_exponent(report: SimReport) -> float:
    """Least-squares slope of log mean-MSE against log((S+1)/N).

    Needs at least 4 grid cells spanning at least a factor of 8 in
    (S+1)/N. A cell below the rounding floor (mean MSE < 1e-18) is an exact
    recovery, through which no power law can be fitted.
    """
    means = report.cell_means()
    if len(means) < 4:
        raise ValidationError("need at least 4 (N, S) grid cells")
    ratios = np.array([(s + 1) / n for (n, s) in means.keys()])
    mses = np.array(list(means.values()))
    if ratios.max() / ratios.min() < 8.0:
        raise ValidationError("grid must span at least 8x in (S+1)/N")
    if np.any(mses < _EXACT_FLOOR):
        raise ValidationError("exact recovery (MSE at rounding floor) in a grid cell; "
                              "exponent undefined")
    return float(np.polyfit(np.log(ratios), np.log(mses), 1)[0])
