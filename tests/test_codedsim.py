import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from codedsmooth import coded, codedsim
from codedsmooth.cli import main
from codedsmooth.coded import get_module
from codedsmooth.codedsim import (BENCH_FUNCTIONS, StragglerScenario,
                                  SweepRow, cell_means, fit_scaling_exponent, returned_indices,
                                  run_coded_job, run_coded_jobs, sample_inputs, sweep)
from codedsmooth.errors import ValidationError
from codedsmooth.modelio import csv_table
from codedsmooth.spline import Knots, build_operator, fit


def test_scenario_validation():
    StragglerScenario(10, 3)
    with pytest.raises(ValidationError):
        StragglerScenario(10, 7)  # S >= N - 3
    with pytest.raises(ValidationError):
        StragglerScenario(3, 0)
    with pytest.raises(ValidationError):
        StragglerScenario(10, -1)
    with pytest.raises(ValidationError):
        StragglerScenario(10, 2, policy="latency")


def test_no_stragglers_bit_identical_to_module():
    x = sample_inputs(16, 0)
    module = get_module(16, 32)
    est, mse = run_coded_job(np.sin, x, StragglerScenario(32, 0))
    npt.assert_array_equal(est, module.forward(x, np.sin))
    assert mse == module.estimate_mse(x, np.sin)


def test_constant_function_exact_for_any_straggler_count():
    x = sample_inputs(8, 1)
    f = BENCH_FUNCTIONS["const"]
    for s in (0, 2, 5):
        _, mse = run_coded_job(f, x, StragglerScenario(12, s, seed=3))
        assert mse <= 1e-18


def test_exactly_s_workers_dropped():
    scenario = StragglerScenario(10, 3, seed=5)
    beta = get_module(4, 10).beta
    keep = returned_indices(scenario, beta)
    assert len(keep) == 7
    assert len(np.unique(keep)) == 7
    # gathered as an index-ordered set: completion order can never matter
    for seed in range(5):
        got = returned_indices(StragglerScenario(20, 6, seed=seed), get_module(4, 20).beta)
        assert np.all(np.diff(got) > 0)


@pytest.mark.parametrize("policy", ["uniform_random", "adversarial_contiguous"])
def test_no_stragglers_returns_every_worker(policy):
    for n in (4, 9, 16):
        keep = returned_indices(StragglerScenario(n, 0, policy, seed=3), get_module(4, n).beta)
        assert keep.dtype == np.arange(n).dtype
        assert np.array_equal(keep, np.arange(n))


def test_dropped_outputs_never_influence_estimates():
    x = sample_inputs(8, 2)
    scenario = StragglerScenario(16, 4, seed=9)
    beta = get_module(8, 16).beta
    dropped = np.setdiff1d(np.arange(16), returned_indices(scenario, beta))

    def f(z):
        return np.sin(z)

    def f_corrupted(z):
        out = np.sin(z)
        if out.shape[0] == 16:  # the worker evaluation call
            out[dropped] += 1e6
        return out

    est_a, _ = run_coded_job(f, x, scenario)
    est_b, _ = run_coded_job(f_corrupted, x, scenario)
    npt.assert_array_equal(est_a, est_b)


@pytest.mark.parametrize("policy", ["uniform_random", "adversarial_contiguous"])
def test_straggler_decode_matches_operator_reference(policy):
    # the O(N) fit-and-eval decode against a dense operator on the survivors
    x = sample_inputs(16, 4)
    module = get_module(16, 64)
    for s in (1, 3, 7):
        for seed in range(3):
            scenario = StragglerScenario(64, s, policy, seed)
            est, _ = run_coded_job(np.sin, x, scenario)
            keep = returned_indices(scenario, module.beta)
            dec = build_operator(Knots(module.beta[keep]), module.alpha)
            want = dec.T @ np.sin(module.encode(x))[keep]
            npt.assert_allclose(est, want, rtol=0, atol=1e-12)


def test_deterministic_given_seed():
    x = sample_inputs(8, 3)
    a = run_coded_job(np.sin, x, StragglerScenario(20, 5, seed=4))
    b = run_coded_job(np.sin, x, StragglerScenario(20, 5, seed=4))
    npt.assert_array_equal(a[0], b[0])
    c = run_coded_job(np.sin, x, StragglerScenario(20, 5, seed=5))
    assert not np.array_equal(a[0], c[0])


def test_adversarial_run_is_first_widest_gap():
    # reference: scan every start, keep the first strictly widest gap
    for n in (8, 13, 32, 64):
        beta = get_module(4, n).beta
        for s in range(1, n - 3):
            best_start, best_gap = 0, -1.0
            for start in range(n - s + 1):
                left = beta[start - 1] if start > 0 else beta[0]
                right = beta[start + s] if start + s < n else beta[-1]
                if right - left > best_gap:
                    best_gap, best_start = right - left, start
            want = np.concatenate([np.arange(best_start), np.arange(best_start + s, n)])
            got = returned_indices(StragglerScenario(n, s, "adversarial_contiguous"), beta)
            npt.assert_array_equal(got, want)


def test_adversarial_contiguous_policy():
    scenario = StragglerScenario(64, 5, policy="adversarial_contiguous")
    beta = get_module(16, 64).beta
    keep = returned_indices(scenario, beta)
    dropped = np.setdiff1d(np.arange(64), keep)
    assert len(dropped) == 5
    assert np.all(np.diff(dropped) == 1)  # one contiguous run
    # a contiguous hole hurts far more than no hole
    x = sample_inputs(16, 0)
    _, mse_hole = run_coded_job(np.sin, x, scenario)
    _, mse_full = run_coded_job(np.sin, x, StragglerScenario(64, 0))
    assert mse_hole > 10.0 * mse_full


def test_sweep_single_cell_matches_run_mean():
    x = sample_inputs(8, 0)
    seeds = [0, 1, 2]
    rows = sweep(np.sin, x, [24], [2], seeds)
    want = np.mean([run_coded_job(np.sin, x, StragglerScenario(24, 2, seed=s))[1]
                    for s in seeds])
    npt.assert_allclose(cell_means(rows)[(24, 2)], want, rtol=1e-15)
    assert len(rows) == 3


@pytest.mark.parametrize("policy", ["uniform_random", "adversarial_contiguous"])
@pytest.mark.parametrize("s", [0, 1, 5])
def test_sweep_cell_is_one_batched_round_equal_to_single_jobs(policy, s, monkeypatch):
    # a cell's seeds share one module lookup and one worker evaluation, and
    # each seed's estimates and mse keep the bits of its own single job
    x = sample_inputs(8, 5)
    seeds = [0, 1, 2]
    single = [run_coded_job(np.sin, x, StragglerScenario(24, s, policy, seed))
              for seed in seeds]
    lookups = []

    def counted(k, n):
        lookups.append((k, n))
        return get_module(k, n)

    monkeypatch.setattr(coded, "get_module", counted)
    rows = sweep(np.sin, x, [24], [s], seeds, policy)
    assert lookups == [(8, 24)]
    assert [r.mse for r in rows] == [mse for _, mse in single]
    estimates, mses = run_coded_jobs(np.sin, x, [StragglerScenario(24, s, policy, seed)
                                                 for seed in seeds])
    assert mses == [mse for _, mse in single]
    for got, (want, _) in zip(estimates, single):
        assert np.array_equal(got, want)
    # and each single job keeps the bits of the unbatched decode of its survivors
    module = get_module(8, 24)
    outputs = np.sin(module.encode(x))
    for seed, (est, _) in zip(seeds, single):
        keep = returned_indices(StragglerScenario(24, s, policy, seed), module.beta)
        ref = (fit([Knots(module.beta[keep])], [outputs[keep]]).eval(module.alpha)[0] if s
               else module.forward(x, np.sin))
        assert np.array_equal(est, ref)


def test_only_scenarios_with_stragglers_draw_survivors(tmp_path, monkeypatch):
    # simulate_stragglers.cfg runs 4 N x 4 S x 10 seeds; the 40 scenarios
    # with S = 0 decode every worker, so they draw no survivor set
    drawn = []

    def counted(scenario, beta):
        drawn.append(scenario.max_stragglers)
        return returned_indices(scenario, beta)

    monkeypatch.setattr(codedsim, "returned_indices", counted)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "simulate_stragglers.cfg"
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(drawn) == 120 and sorted(set(drawn)) == [1, 3, 7]


@pytest.mark.parametrize("policy", ["uniform_random", "adversarial_contiguous"])
def test_grid_decode_equals_per_cell_jobs(policy):
    # the sweep decodes each N's survivors together, padded to that N's
    # longest set; each row keeps the mse of its cell decoded alone
    x = sample_inputs(8, 3)
    n_list, s_list, seeds = [16, 24, 40], [0, 1, 4], [0, 1, 2]
    rows = sweep(np.sin, x, n_list, s_list, seeds, policy)
    want = []
    for n in n_list:
        for s in s_list:
            _, mses = run_coded_jobs(np.sin, x, [StragglerScenario(n, s, policy, seed)
                                                 for seed in seeds])
            want += [SweepRow(n, s, policy, seed, mse) for seed, mse in zip(seeds, mses)]
    assert rows == want


def test_grid_decode_peak_memory():
    # simulate_stragglers.cfg's grid with its four modules held: each N's
    # survivors are fitted apart, so no set is padded to N = 256 (2.31 MiB
    # when the whole grid was one padded fit)
    x = sample_inputs(16, 0)
    n_list = [32, 64, 128, 256]
    held = [get_module(16, n) for n in n_list]
    tracemalloc.start()
    try:
        rows = sweep(np.sin, x, n_list, [0, 1, 3, 7], list(range(10)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 160 and all(get_module(16, n) is m for n, m in zip(n_list, held))
    assert peak <= 2 ** 20, peak


def test_policy_added_to_the_table_runs_its_own_rule(monkeypatch):
    # a name found only in POLICIES drops the workers its own rule names,
    # here the first S, in returned_indices and through a whole sweep
    def fastest(scenario, beta):
        return np.arange(scenario.max_stragglers)

    monkeypatch.setitem(codedsim.POLICIES, "fastest", fastest)
    module = get_module(8, 32)
    scenario = StragglerScenario(32, 4, "fastest", 0)
    assert np.array_equal(returned_indices(scenario, module.beta), np.arange(4, 32))
    adversarial = StragglerScenario(32, 4, "adversarial_contiguous", 0)
    assert not np.array_equal(returned_indices(adversarial, module.beta), np.arange(4, 32))
    x = sample_inputs(8, 0)
    outputs = np.sin(module.encode(x))
    want = fit([Knots(module.beta[4:])], [outputs[4:]]).eval(module.alpha)
    estimates, _ = run_coded_jobs(np.sin, x, [scenario])
    assert estimates.tobytes() == want.tobytes()
    assert [r.policy for r in sweep(np.sin, x, [32], [4], [0], "fastest")] == ["fastest"]


def test_batched_jobs_take_any_mix_of_scenarios(monkeypatch):
    # a list mixing N, S, policy and seed keeps each scenario's single-job
    # bits in input order; each N looks its module up once and its workers
    # compute once, and f runs once more on the batch itself
    x = sample_inputs(8, 0)
    scenarios = [StragglerScenario(n, s, policy, seed) for seed in (0, 1)
                 for policy in ("uniform_random", "adversarial_contiguous")
                 for s in (2, 0) for n in (32, 24)]
    single = [run_coded_job(np.sin, x, sc) for sc in scenarios]
    lookups, rows = [], []

    def counted(k, n):
        lookups.append((k, n))
        return get_module(k, n)

    def f(v):
        rows.append(len(v))
        return np.sin(v)

    monkeypatch.setattr(coded, "get_module", counted)
    estimates, mses = run_coded_jobs(f, x, scenarios)
    assert sorted(lookups) == [(8, 24), (8, 32)]
    assert sorted(rows) == [8, 24, 32]
    assert mses == [mse for _, mse in single]
    assert [e.tobytes() for e in estimates] == [want.tobytes() for want, _ in single]
    with pytest.raises(ValidationError):
        run_coded_jobs(np.sin, x, [])


def test_sweep_monotone_in_n_and_s():
    # 10-seed means, 10% slack per adjacent pair (frozen from the rate study)
    x = sample_inputs(16, 0)
    rows = sweep(np.sin, x, [32, 64, 128, 256], [0, 1, 3, 7], list(range(10)))
    means = cell_means(rows)
    for s in (0, 1, 3, 7):
        row = [means[(n, s)] for n in (32, 64, 128, 256)]
        assert all(row[i + 1] <= row[i] * 1.1 for i in range(3))
    for n in (32, 64, 128, 256):
        col = [means[(n, s)] for s in (0, 1, 3, 7)]
        assert all(col[i + 1] >= col[i] * 0.9 for i in range(3))


def test_sweep_csv_format():
    x = sample_inputs(8, 0)
    rows = sweep(np.sin, x, [16], [0, 1], [0])
    lines = csv_table("N,S,policy,seed,mse", rows).strip().splitlines()
    assert lines[0] == "N,S,policy,seed,mse"
    assert len(lines) == 3
    assert lines[1].startswith("16,0,uniform_random,0,")


def test_exponent_on_planted_cubic_law():
    rows = []
    for n in (32, 64, 128, 256):
        r = 1.0 / n
        rows.append(SweepRow(n, 0, "uniform_random", 0, 7.0 * r ** 3))
    slope = fit_scaling_exponent(rows)
    npt.assert_allclose(slope, 3.0, atol=1e-9)


def test_exponent_measured_bands():
    # interpolating decoder: N-decay near the sixth power (frozen), and a
    # shallow S-scaling at fixed N (frozen from the 10-seed study)
    x = sample_inputs(16, 0)
    rep_n = sweep(np.sin, x, [32, 64, 128, 256, 512], [0], [0])
    assert 5.5 <= fit_scaling_exponent(rep_n) <= 6.6
    rep_s = sweep(np.sin, x, [256], [0, 1, 3, 7], list(range(10)))
    assert 0.8 <= fit_scaling_exponent(rep_s) <= 2.0


def test_exponent_validation():
    rows = [SweepRow(32, 0, "uniform_random", 0, 1e-3),
            SweepRow(64, 0, "uniform_random", 0, 1e-4),
            SweepRow(128, 0, "uniform_random", 0, 1e-5)]
    with pytest.raises(ValidationError):
        fit_scaling_exponent(rows)  # only 3 cells
    rows.append(SweepRow(48, 0, "uniform_random", 0, 5e-4))
    with pytest.raises(ValidationError):
        fit_scaling_exponent(rows)  # span 4x < 8x
    for floor in (0.0, 1e-32):  # exact recovery, up to rounding
        exact = [SweepRow(n, 0, "uniform_random", 0, floor) for n in (8, 16, 32, 64)]
        with pytest.raises(ValidationError):
            fit_scaling_exponent(exact)


def test_run_coded_job_validation():
    with pytest.raises(ValidationError):
        run_coded_job(np.sin, np.zeros((3, 1)), StragglerScenario(8, 0))
