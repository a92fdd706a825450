"""Straggler-tolerant coded-computing simulator.

N workers each evaluate the wrapped function on one coded sample; up to S of
them never return. The decoder spline is fitted only on the surviving
(point, output) pairs and still evaluated at the original batch abscissas.
Straggling is simulated by omission, not latency: which results return is
the only thing the estimate depends on, so the scenarios of one N, whatever
their S, policy and seed, share one worker evaluation, and the survivors of
every scenario with S > 0 are decoded together in one batched decode.
``sweep`` returns one ``SweepRow`` per scenario of its grid, the rows
``sim_sweep.csv`` holds.

Drop policies: ``uniform_random`` removes exactly S uniformly chosen
workers; ``adversarial_contiguous`` removes the contiguous run of S workers
whose loss widens the decoder's knot gap the most, a heuristic: the worst
contiguous run costs 4x to 19,000x its MSE at K = 16, f = sin, N <= 128.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coded
from .coded import MAX_POINTS, MIN_POINTS
from .config import KEYS
from .errors import ValidationError
from .seeding import stream_rng
from .spline import Knots, fit

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


def cell_means(rows) -> dict:
    """(N, S) -> mean MSE over the seeds of ``SweepRow``s."""
    sums, counts = {}, {}
    for r in rows:
        key = (r.n_workers, r.stragglers)
        sums[key] = sums.get(key, 0.0) + r.mse
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def returned_indices(scenario: StragglerScenario, beta: np.ndarray) -> np.ndarray:
    """Sorted indices of the workers whose results arrive; with S = 0 every
    worker's, under either policy."""
    n, s = scenario.n_workers, scenario.max_stragglers
    keep = np.ones(n, dtype=bool)
    if scenario.policy == "uniform_random":
        keep[stream_rng(scenario.seed, "stragglers").choice(n, size=s, replace=False)] = False
    else:
        # adversarial_contiguous: drop the first run whose removal leaves the
        # widest gap between its kept neighbours (an end knot at either end)
        padded = np.concatenate([beta[:1], beta, beta[-1:]])
        start = int(np.argmax(padded[s + 1:] - padded[:n - s + 1]))
        keep[start:start + s] = False
    return np.flatnonzero(keep)


def run_coded_jobs(f, x: np.ndarray, scenarios) -> tuple:
    """One encode/compute/decode round per scenario, of any N, S, policy and seed.

    Each N looks its module up once and its workers compute once; each S = 0
    scenario is decoded by ``module.decode``, bit-identical to
    ``module.forward``. The survivors of every S > 0 scenario are decoded in
    one batched tridiagonal sweep, bit-identical to fitting and evaluating
    each alone. Returns (estimates, mses) in input order: a (B, K, d) array
    and a list of B floats, each the mean over batch rows of the squared
    output-vector error.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < MIN_POINTS:
        raise ValidationError(f"need a (K >= {MIN_POINTS}, d) batch, got shape {x.shape}")
    if not scenarios:
        raise ValidationError("need at least one straggler scenario")
    estimates = [None] * len(scenarios)
    batched, survivors, blocks = [], [], []  # the S > 0 scenarios, decoded together
    for n in dict.fromkeys(sc.n_workers for sc in scenarios):
        module = coded.get_module(x.shape[0], n)
        outputs = f(module.encode(x))
        for i, sc in enumerate(scenarios):
            if sc.n_workers != n:
                continue
            if sc.max_stragglers == 0:
                estimates[i] = module.decode(outputs)
            else:
                # each set keeps >= MIN_POINTS workers by the scenario's check
                keep = returned_indices(sc, module.beta)
                batched.append(i)
                survivors.append(Knots(module.beta[keep]))
                blocks.append(outputs[keep])
    if batched:  # every module shares the batch abscissas alpha, which depend on K only
        for i, est in zip(batched, fit(survivors, blocks).eval(module.alpha)):
            estimates[i] = est
    estimates = np.stack(estimates)
    return estimates, [float(np.mean(np.sum(d * d, axis=1))) for d in estimates - f(x)]


def run_coded_job(f, x: np.ndarray, scenario: StragglerScenario) -> tuple:
    """``run_coded_jobs`` for one scenario: (estimates, mse)."""
    estimates, mses = run_coded_jobs(f, x, [scenario])
    return estimates[0], mses[0]


def sweep(f, x: np.ndarray, n_list, s_list, seeds,
          policy: str = KEYS["sim.policy"].default) -> list:
    """One ``SweepRow`` per (N, S, seed) of the grid, in that order;
    deterministic. The whole grid is one ``run_coded_jobs`` call, so each N's
    workers compute once, and every scenario is checked before the first runs.
    """
    scenarios = [StragglerScenario(n, s, policy, seed)
                 for n in n_list for s in s_list for seed in seeds]
    _, mses = run_coded_jobs(f, x, scenarios)
    return [SweepRow(sc.n_workers, sc.max_stragglers, policy, sc.seed, mse)
            for sc, mse in zip(scenarios, mses)]


def fit_scaling_exponent(rows) -> float:
    """Least-squares slope of ``SweepRow``s' log mean-MSE against log((S+1)/N).

    Needs at least 4 grid cells spanning at least a factor of 8 in
    (S+1)/N. A cell below the rounding floor (mean MSE < 1e-18) is an exact
    recovery, through which no power law can be fitted.
    """
    means = cell_means(rows)
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
