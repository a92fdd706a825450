"""The paired benchmark script's verdict rule (``scripts/bench_pairs.py``)."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(pairs):
    """A one-sided result: the change is better in every pair, by far more
    than the parent's spread."""
    parent = [1.0 + 0.01 * (i % 3) for i in range(pairs)]
    return parent, [p + 0.5 for p in parent]


def test_gain_needs_ten_pairs(bench_pairs):
    parent, change = _runs(5)
    assert bench_pairs.verdict(parent, change, True, 0.25) == (
        5, "unresolved (fewer than 10 pairs)")
    parent, change = _runs(10)
    assert bench_pairs.verdict(parent, change, True, 0.25) == (10, "gain")
    # lower is better: the same rule with the sign turned
    assert bench_pairs.verdict(change, parent, False, 0.25) == (10, "gain")


def test_gain_needs_a_tenth_of_the_bound(bench_pairs):
    # every parent run reads the same page count, so its range is 0; a
    # 0.02 MB (0.05%) drop in all 10 pairs is allocation noise, not a gain
    parent, change = [39.33] * 10, [39.31] * 10
    assert bench_pairs.verdict(parent, change, False, 0.1) == (10, "within bound")
    # past 1% of the parent's median (a tenth of the 0.1 bound) it is one
    assert bench_pairs.verdict(parent, [38.9] * 10, False, 0.1) == (10, "gain")


def test_worse_needs_no_minimum(bench_pairs):
    parent, change = _runs(5)
    assert bench_pairs.verdict(change, parent, True, 0.25)[1] == "worse"


def test_cpu_time_is_read_from_the_run_notes(bench_pairs):
    stdout = ("workload straggler_sim seed 0 trace 0\n"
              "  commands: 130\n"
              "  cpu_s per command (median): 0.2211\n"
              "  steal s during commands: 0.00\n"
              '{"metrics": {}}\n')
    assert bench_pairs.cpu_s(stdout) == 0.2211
    assert bench_pairs.cpu_s('{"metrics": {}}\n') is None
    # no verdict: the change's wins and each side's median and quartiles
    assert bench_pairs.wins_of([0.3, 0.2, 0.25], [0.2, 0.2, 0.3], higher_better=False) == 1
    assert bench_pairs.summary([0.2, 0.3, 0.25, 0.2])["median"] == 0.225
