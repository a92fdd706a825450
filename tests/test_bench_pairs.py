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


def test_worse_needs_no_minimum(bench_pairs):
    parent, change = _runs(5)
    assert bench_pairs.verdict(change, parent, True, 0.25)[1] == "worse"
