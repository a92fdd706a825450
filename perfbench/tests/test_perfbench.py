"""Tests of the benchmark's own machinery: wrappers, output checks, trace counts.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

TINY_SIM = """\
sim.fn = sin
sim.K = 8
sim.N_list = 16,32
sim.S_list = 0,1
sim.seeds = 0,1
sim.policy = uniform_random
sim.input_seed = 0
"""

TINY_SWEEP = """\
data.kind = two_moons
data.n_train = 256
data.n_test = 64
data.noise = 0.15
data.seed = 0
model.widths = 2,8,2
train.method = coded
train.gamma = 1.0
train.epochs = 3
train.batch_size = 64
sweep.param = mu
sweep.values = 0,0.5
sweep.seeds = 0
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _snapshot():
    return [(owner, key, value) for _, _, owner, key, value in tracing.bindings()]


def test_wrappers_restore_originals(tmp_path):
    cli = importlib.import_module("codedsmooth.cli")
    models = importlib.import_module("codedsmooth.models")
    before = _snapshot()
    assert before, "no traced bindings found"
    tracer = tracing.Tracer()
    cfg = _write(tmp_path, "sweep.cfg", TINY_SWEEP)
    with tracing.installed(tracer):
        assert models.MLP.__call__ is not before[0][2]
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    names = {span[0] for span in tracer.spans}
    assert {"train.train", "models.forward", "autodiff.backward", "coded.get_module"} <= names
    for owner, key, value in before:
        assert vars(owner)[key] is value, f"{owner.__name__}.{key} not restored"
    assert models.MLP.__call__ is models.MLP.forward

    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("fails inside the traced block")
    for owner, key, value in before:
        assert vars(owner)[key] is value


def test_altered_contract_row_counts_as_failed(tmp_path):
    cli = importlib.import_module("codedsmooth.cli")
    cfg = _write(tmp_path, "sim.cfg", TINY_SIM)
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "sim_sweep.csv").read_text()
    wl = run.Workload(name="straggler_sim", item="coded jobs", items=8, command=[],
                      contract="sim_sweep.csv", probe=[],
                      check=lambda t: checks.run_check(checks.check_sim, t, 8, [16, 32], [0, 1],
                                                       [0, 1], "uniform_random"))
    tally = run.Tally()
    tally.output("first", wl, 0, "", str(out))
    assert (tally.attempted, tally.failed) == (1, 0)

    lines = text.splitlines(keepends=True)
    n, s, policy, seed, mse = lines[-1].rstrip("\n").split(",")
    altered = {
        "changed digit": f"{n},{s},{policy},{seed},{float(mse) * 1.5:.17g}\n",
        "not finite": f"{n},{s},{policy},{seed},nan\n",
        "wrong key": f"{n},{s},{policy},7,{mse}\n",
    }
    for what, row in altered.items():
        (out / "sim_sweep.csv").write_text("".join(lines[:-1]) + row)
        failed = tally.failed
        tally.output(what, wl, 0, "", str(out))
        assert tally.failed == failed + 1, what
    assert checks.run_check(checks.check_sim, "".join(lines[:-1]) + altered["not finite"],
                            8, [16, 32], [0, 1], [0, 1], "uniform_random")

    tally.output("exit code", wl, 2, "error: bad config", str(out))
    assert tally.failed == len(altered) + 1


def _traced_counts(tmp_path, tag, cfg):
    result = tmp_path / f"{tag}.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "inproc.py"), "--trace", "--result", str(result),
         "--", "sweep", "--config", cfg, "--out", str(tmp_path / tag)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["exit"] == 0
    return data["metrics"]


def test_two_traced_runs_give_identical_counts(tmp_path):
    cfg = _write(tmp_path, "sweep.cfg", TINY_SWEEP)
    first = _traced_counts(tmp_path, "a", cfg)
    second = _traced_counts(tmp_path, "b", cfg)
    assert tracing.counts_repeat([first, second])
    # 2 cells x 3 epochs x 4 batches of 64 from 256 rows
    assert first["train.steps"] == 24
    assert first["coded.get_module.misses"] == 1   # N = K = 64 every epoch
    assert first["coded.get_module.hit_ratio"] == 2 / 3


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = {m["name"] for m in bench["per_layer"]}
    run_level = {"cli.import_s", "cli.sweep.parallel_efficiency",
                 "cli.sweep.threads2_cells_per_s", "trace.overhead_frac"}
    assert names == set(tracing.COUNT_METRICS) | set(tracing.TIME_METRICS) | run_level
    with open(os.path.join(BENCH, "expectations.json"), encoding="utf-8") as fh:
        moves = json.load(fh)["layer_moves"]
    assert {name.split(".")[0] for name in names} == set(moves)
    assert [w["name"] for w in bench["workloads"]] == list(run.PREPARE)
