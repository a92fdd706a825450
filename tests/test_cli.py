import ast
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import codedsmooth
from codedsmooth.cli import main
from codedsmooth.coded import get_module
from codedsmooth import attack, coded, datasets
from codedsmooth.codedsim import BENCH_FUNCTIONS, sample_inputs
from codedsmooth.config import KEYS, Config, parse_config_text
from codedsmooth.datasets import DatasetSpec, make_dataset
from codedsmooth.errors import ValidationError
from codedsmooth.modelio import load_model, model_bytes
from codedsmooth.models import MLP, MLPSpec
from codedsmooth.train import METHODS

TRAIN_CFG = """
# tiny smoke configuration
data.kind = two_moons
data.n_train = 64
data.n_test = 32
data.noise = 0.1
data.seed = 1
model.widths = 2,8,2
train.method = {method}
train.mu = {mu}
train.epochs = 3
train.batch_size = 16
train.lr = 0.1
train.seed = 0
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read(out_dir, name):
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------- points

def test_points_prints_tables(capsys):
    assert main(["points", "4", "5"]) == 0
    out = capsys.readouterr().out
    assert "alpha (K=4):" in out and "beta (N=5):" in out
    assert "-0.923879532511" in out  # 12 significant digits
    assert "-0.707106781187" in out


def test_points_validation_exit_code(capsys):
    assert main(["points", "3", "8"]) == 2
    assert "error:" in capsys.readouterr().err
    # the upper bound is checked before any point set is allocated
    assert main(["points", "100000000000", "8"]) == 2
    assert "100000000000" in capsys.readouterr().err
    assert main(["points", "8", "4097"]) == 2
    assert "4097" in capsys.readouterr().err


def test_points_requires_k_and_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["points", "8"])
    assert exc.value.code == 2
    assert "N" in capsys.readouterr().err


# ---------------------------------------------------------------- config

def test_config_parsing_rules():
    cfg = parse_config_text("data.kind = spirals  # comment\n\n# full comment\ndata.seed=4\n")
    assert cfg == {"data.kind": "spirals", "data.seed": "4"}
    with pytest.raises(ValidationError):
        parse_config_text("data.kindd = spirals\n")
    with pytest.raises(ValidationError):
        parse_config_text("data.kind = a\ndata.kind = b\n")
    with pytest.raises(ValidationError):
        parse_config_text("data.kind spirals\n")


# ---------------------------------------------------------------- train

def test_train_artifacts_and_determinism(tmp_path):
    cfg = _write(tmp_path, "t.cfg", TRAIN_CFG.format(method="erm", mu=0.5))
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["train", "--config", cfg, "--out", out1]) == 0
    assert main(["train", "--config", cfg, "--out", out2]) == 0
    assert _read(out1, "metrics.csv") == _read(out2, "metrics.csv")
    lines = _read(out1, "metrics.csv").strip().splitlines()
    assert lines[0] == "epoch,loss_main,loss_coded,test_metric,N"
    assert len(lines) == 4
    model, header = load_model(os.path.join(out1, "model.bin"))
    assert header["widths"] == "2,8,2" and header["method"] == "erm"


def test_train_coded_mu_zero_matches_erm_csv(tmp_path):
    cfg_e = _write(tmp_path, "e.cfg", TRAIN_CFG.format(method="erm", mu=0.0))
    cfg_c = _write(tmp_path, "c.cfg", TRAIN_CFG.format(method="coded", mu=0.0))
    out_e, out_c = str(tmp_path / "e"), str(tmp_path / "c")
    assert main(["train", "--config", cfg_e, "--out", out_e]) == 0
    assert main(["train", "--config", cfg_c, "--out", out_c]) == 0
    assert _read(out_e, "metrics.csv") == _read(out_c, "metrics.csv")


def test_train_seed_override_changes_run(tmp_path):
    cfg = _write(tmp_path, "t.cfg", TRAIN_CFG.format(method="erm", mu=0.5))
    out1, out2 = str(tmp_path / "s0"), str(tmp_path / "s9")
    assert main(["train", "--config", cfg, "--out", out1]) == 0
    assert main(["train", "--config", cfg, "--out", out2, "--seed", "9"]) == 0
    assert _read(out1, "metrics.csv") != _read(out2, "metrics.csv")


@pytest.mark.filterwarnings("error")
def test_train_numeric_failure_exit_code(tmp_path):
    # squared-error loss on a runaway-lr regression overflows to inf within a
    # few steps, or at once on targets this noisy; the per-step guard must
    # abort with exit code 3, and no numpy warning comes before its line
    for i, noise in enumerate(("", "data.noise = 1e150\n", "data.noise = 1e200\n")):
        cfg = _write(tmp_path, f"bad{i}.cfg", noise + """
data.kind = sinusoid_regression
data.n_train = 64
data.n_test = 32
data.seed = 1
model.widths = 1,8,1
model.activation = tanh
train.method = erm
train.epochs = 5
train.batch_size = 16
train.lr = 1e30
train.seed = 0
""")
        out = str(tmp_path / f"o{i}")
        assert main(["train", "--config", cfg, "--out", out]) == 3
        assert not os.path.exists(out)


def test_train_validation_exit_code(tmp_path):
    cfg = _write(tmp_path, "v.cfg", "data.kind = nowhere\nmodel.widths = 2,8,2\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------- model file

def test_model_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    model = MLP(MLPSpec(widths=(2, 5, 3), activation="tanh"), rng)
    path = str(tmp_path / "m.bin")
    Path(path).write_bytes(model_bytes(model, seed=42, method_desc="mixup alpha=1"))
    loaded, header = load_model(path)
    assert header == {"version": "1", "widths": "2,5,3", "activation": "tanh",
                      "seed": "42", "method": "mixup alpha=1"}
    npt.assert_array_equal(model.theta, loaded.theta)
    with open(path, "rb") as fh:
        assert fh.read(8) == b"CSMODEL1"


@pytest.mark.parametrize("method, line", [
    ("erm", "erm"), ("mixup", "mixup alpha=1"), ("coded", "coded mu=0.5 gamma=1.5")])
def test_model_file_method_line(tmp_path, method, line):
    cfg = _write(tmp_path, "t.cfg", TRAIN_CFG.format(method=method, mu=0.5))
    out = str(tmp_path / "o")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    assert load_model(os.path.join(out, "model.bin"))[1]["method"] == line


def test_model_file_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMODEL" + b"\n\n")
    with pytest.raises(ValidationError):
        load_model(str(path))


# ---------------------------------------------------------------- attack

def test_attack_grid_and_consistency(tmp_path, capsys):
    cfg = _write(tmp_path, "t.cfg", TRAIN_CFG.format(method="coded", mu=0.5))
    train_out = str(tmp_path / "tr")
    assert main(["train", "--config", cfg, "--out", train_out]) == 0
    final_metric = float(_read(train_out, "metrics.csv").strip().splitlines()[-1].split(",")[3])
    capsys.readouterr()

    atk_cfg = _write(tmp_path, "a.cfg", TRAIN_CFG.format(method="coded", mu=0.5) +
                     "attack.epsilon = 0.1\nattack.k_prime = 16\nattack.n_prime = 24\n"
                     "attack.trials = 5\n")
    atk_out = str(tmp_path / "atk")
    model_path = os.path.join(train_out, "model.bin")
    assert main(["attack", "--config", atk_cfg, "--model", model_path,
                 "--out", atk_out]) == 0
    lines = _read(atk_out, "results.csv").strip().splitlines()
    assert lines[0] == "method,inference_mode,attack,epsilon,steps,N_prime,seed,accuracy"
    assert len(lines) == 7  # 3 attacks x 2 modes
    cells = {tuple(l.split(",")[1:3]) for l in lines[1:]}
    assert ("standard", "fgsm") in cells and ("rci", "pgd10") in cells

    none_std = [l for l in lines[1:] if ",standard,none," in l][0]
    assert float(none_std.split(",")[-1]) == final_metric


def test_attack_scores_both_modes_on_the_same_rows(tmp_path):
    # 40 test rows hold two whole K' = 16 batches, so both modes score rows 0-31
    text = (TRAIN_CFG.format(method="erm", mu=0.5).replace("n_test = 32", "n_test = 40")
            .replace("train.seed = 0", "train.seed = 1"))
    train_out = str(tmp_path / "tr")
    assert main(["train", "--config", _write(tmp_path, "t.cfg", text), "--out", train_out]) == 0
    atk_cfg = _write(tmp_path, "a.cfg", text + "attack.kind = none\nattack.k_prime = 16\n"
                     "attack.n_prime = 24\nattack.trials = 2\n")
    model_path, atk_out = os.path.join(train_out, "model.bin"), str(tmp_path / "atk")
    assert main(["attack", "--config", atk_cfg, "--model", model_path, "--out", atk_out]) == 0
    row = [l for l in _read(atk_out, "results.csv").splitlines() if ",standard,none," in l][0]

    model, _ = load_model(model_path)
    data = make_dataset(DatasetSpec(kind="two_moons", n_train=64, n_test=40, noise=0.1, seed=1))
    hits = np.argmax(model.predict(data.test_x), axis=1) == data.test_y
    assert np.mean(hits[:32]) != np.mean(hits)  # the 8 rows RCI leaves out would show
    assert float(row.split(",")[-1]) == np.mean(hits[:32])


@pytest.mark.parametrize("kind, name", [("none", "none"), ("fgsm", "fgsm"), ("pgd", "pgd10")])
def test_attack_kind_selects_the_attack_by_its_name(tmp_path, capsys, kind, name):
    # a kind writes the `all` run's two rows and stdout lines for its attack, byte for byte
    model = _model_file(tmp_path)
    runs = {}
    for k in ("all", kind):
        cfg = _write(tmp_path, f"{k}.cfg", ATTACK_CFG + f"attack.kind = {k}\n")
        assert main(["attack", "--config", cfg, "--model", model,
                     "--out", str(tmp_path / k)]) == 0
        runs[k] = (_read(tmp_path / k, "results.csv"), capsys.readouterr().out)
    all_rows, all_out = (text.splitlines(keepends=True) for text in runs["all"])
    rows, out = (text.splitlines(keepends=True) for text in runs[kind])
    mine = [r for r in all_rows[1:] if r.split(",")[2] == name]
    assert len(mine) == 2 and rows == all_rows[:1] + mine
    assert len(all_out) == 6 and out == [l for l in all_out if l.split(" | ")[0].strip() == name]


def test_attack_looks_up_the_traced_functions_when_called(tmp_path, monkeypatch):
    # perfbench's tracer replaces attack.fgsm, attack.pgd and attack.robust_eval by
    # name and reads their positional arguments: x, y and the epsilon or spec of an
    # attack, the mode of an evaluation (k_prime marks an RCI one)
    calls = {"fgsm": [], "pgd": [], "robust_eval": []}
    for name, log in calls.items():
        def recording(*args, _original=getattr(attack, name), _log=log, **kwargs):
            _log.append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(attack, name, recording)
    cfg = _write(tmp_path, "a.cfg", ATTACK_CFG + "attack.kind = all\n")
    assert main(["attack", "--config", cfg, "--model", _model_file(tmp_path),
                 "--out", str(tmp_path / "o")]) == 0
    data = make_dataset(DatasetSpec(kind="two_moons", n_train=64, n_test=32, noise=0.1, seed=1))
    for name, spec in (("fgsm", 0.1), ("pgd", attack.PGDSpec(0.1))):
        (args,) = calls[name]
        npt.assert_array_equal(args[1], data.test_x)
        npt.assert_array_equal(args[2], data.test_y)
        assert args[3] == spec
    modes = [args[4] for args in calls["robust_eval"]]
    assert [mode.name for mode in modes] == ["standard", "rci"] * 3
    assert [getattr(mode, "k_prime", None) for mode in modes] == [None, 16] * 3


def test_attack_architecture_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, "t.cfg", TRAIN_CFG.format(method="erm", mu=0.5))
    train_out = str(tmp_path / "tr")
    assert main(["train", "--config", cfg, "--out", train_out]) == 0
    bad_cfg = _write(tmp_path, "bad.cfg",
                     TRAIN_CFG.format(method="erm", mu=0.5).replace("2,8,2", "2,9,2"))
    refused = str(tmp_path / "o")
    assert main(["attack", "--config", bad_cfg,
                 "--model", os.path.join(train_out, "model.bin"),
                 "--out", refused]) == 2
    assert not os.path.exists(refused)
    # the echo carries the model file's architecture, so a re-run from it
    # against a model of another width is refused as well
    attack_cfg = "".join(line + "\n" for line in ATTACK_CFG.splitlines()
                         if not line.startswith("model."))
    out = str(tmp_path / "a")
    assert main(["attack", "--config", _write(tmp_path, "a.cfg", attack_cfg),
                 "--model", os.path.join(train_out, "model.bin"), "--out", out]) == 0
    echo = _read(out, "config.resolved")
    assert "model.widths = 2,8,2\n" in echo and "model.activation = relu\n" in echo
    other = str(tmp_path / "other.bin")
    model = MLP(MLPSpec(widths=(2, 9, 2)), np.random.default_rng(0))
    Path(other).write_bytes(model_bytes(model, 0, "erm"))
    refused = str(tmp_path / "b")
    assert main(["attack", "--config", os.path.join(out, "config.resolved"),
                 "--model", other, "--out", refused]) == 2
    assert not os.path.exists(refused)
    # a model of another input width names the widths and the data kind
    wide = str(tmp_path / "wide.bin")
    model = MLP(MLPSpec(widths=(3, 8, 2)), np.random.default_rng(0))
    Path(wide).write_bytes(model_bytes(model, 0, "erm"))
    capsys.readouterr()
    refused = str(tmp_path / "c")
    assert main(["attack", "--config", _write(tmp_path, "a.cfg", attack_cfg),
                 "--model", wide, "--out", refused]) == 2
    err = capsys.readouterr().err
    assert "model.widths = (3, 8, 2)" in err and "data.kind = two_moons" in err, err
    assert not os.path.exists(refused)


# ---------------------------------------------------------------- simulate

SIM_CFG = """
sim.fn = sin
sim.K = 16
sim.N_list = 32,64,128,256
sim.S_list = 0
sim.seeds = 0
sim.input_seed = 5
"""


def test_simulate_outputs_and_exponent_format(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", SIM_CFG)
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "fitted exponent:" in printed
    token = [w for w in printed.split() if w[0].isdigit() or w[0] == "-"][-1]
    assert len(token.split(".")[-1]) == 3  # three decimals
    csv = _read(out, "sim_sweep.csv").strip().splitlines()
    assert csv[0] == "N,S,policy,seed,mse" and len(csv) == 5
    assert os.path.exists(os.path.join(out, "report.json"))


def test_simulate_s0_matches_module_mse(tmp_path):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", _write(tmp_path, "s.cfg", SIM_CFG), "--out", out]) == 0
    sim_mse = {l.split(",")[0]: l.split(",")[4]
               for l in _read(out, "sim_sweep.csv").strip().splitlines()[1:]}
    x = sample_inputs(16, 5)
    module_mse = {str(n): f"{get_module(16, n).estimate_mse(x, np.sin):.17g}"
                  for n in (32, 64, 128, 256)}
    assert sim_mse == module_mse  # textual 17-digit equality == bit equality


def test_simulate_constant_function_has_no_exponent(tmp_path, capsys):
    # a constant is reproduced to rounding error; no power law fits ~1e-32
    out = str(tmp_path / "o")
    cfg = _write(tmp_path, "c.cfg", SIM_CFG.replace("sim.fn = sin", "sim.fn = const"))
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    assert "fitted exponent: unavailable" in capsys.readouterr().out
    assert json.loads(_read(out, "report.json"))["exponent"] is None


def test_simulate_cubic_function_decays_fast(tmp_path, capsys):
    cfg = _write(tmp_path, "cu.cfg", SIM_CFG.replace("sim.fn = sin", "sim.fn = cubic"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    printed = capsys.readouterr().out
    assert float(printed.split("fitted exponent:")[1].split()[0]) >= 2.2


def test_simulate_unknown_function(tmp_path):
    cfg = _write(tmp_path, "u.cfg", "sim.fn = cosh\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("value", ["-1", "18446744073709551616", "x"])
def test_seed_flag_outside_64_bits_rejected(tmp_path, capsys, value):
    cfg, out = _write(tmp_path, "s.cfg", SIM_CFG), str(tmp_path / "o")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--out", out, "--seed", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and value in err, err
    assert not os.path.exists(out)
    assert main(["simulate", "--config", cfg, "--out", out, "--seed", str(2 ** 64 - 1)]) == 0
    assert "sim.input_seed = 18446744073709551615\n" in _read(out, "config.resolved")


def test_simulate_empty_n_list(tmp_path):
    cfg = _write(tmp_path, "e.cfg", "sim.N_list =\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------- sweep

SWEEP_CFG = TRAIN_CFG.format(method="coded", mu=0.5) + """
sweep.param = mu
sweep.values = 0.2,0.8
sweep.seeds = 0,1
"""


def test_sweep_rows_and_determinism(tmp_path):
    cfg = _write(tmp_path, "s.cfg", SWEEP_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["sweep", "--config", cfg, "--out", out1]) == 0
    assert main(["sweep", "--config", cfg, "--out", out2]) == 0
    csv1 = _read(out1, "sweep.csv")
    assert csv1 == _read(out2, "sweep.csv")
    lines = csv1.strip().splitlines()
    assert lines[0] == "param,value,seed,test_metric,loss_main,loss_coded,N_final"
    assert len(lines) == 5  # 2 values x 2 seeds


def test_sweep_seed_flag_sets_the_cells_seed(tmp_path):
    # sweep --seed S runs every value at seed S, as sweep.seeds = S does
    def sweep_csv(name, seeds, *flag):
        cfg = _write(tmp_path, f"{name}.cfg", SWEEP_CFG.replace("seeds = 0,1", f"seeds = {seeds}"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / name)] + list(flag)) == 0
        return _read(str(tmp_path / name), "sweep.csv")

    flagged = sweep_csv("flag", "0,1", "--seed", "7")
    assert flagged == sweep_csv("seven", "7")
    assert flagged != sweep_csv("zero", "0")
    assert "sweep.seeds = 7\n" in _read(str(tmp_path / "flag"), "config.resolved")


def test_sweep_row_equals_train_final_row(tmp_path):
    # a sweep cell evaluates the test set after its last epoch only; its row
    # must still be the last metrics.csv row of the same training run
    cfg = _write(tmp_path, "s.cfg", SWEEP_CFG.replace("0.2,0.8", "0.5"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
    rows = _read(str(tmp_path / "sweep"), "sweep.csv").strip().splitlines()[1:]
    assert len(rows) == 2
    train_cfg = _write(tmp_path, "t.cfg", TRAIN_CFG.format(method="coded", mu=0.5))
    for row in rows:
        _, value, seed, metric, loss_main, loss_coded, n_final = row.split(",")
        assert value == "0.5"
        out = str(tmp_path / f"train{seed}")
        assert main(["train", "--config", train_cfg, "--out", out, "--seed", seed]) == 0
        last = _read(out, "metrics.csv").strip().splitlines()[-1].split(",")
        assert last[1:] == [loss_main, loss_coded, metric, n_final]


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = _write(tmp_path, "s.cfg", SWEEP_CFG)
    out1, out2 = str(tmp_path / "ser"), str(tmp_path / "par")
    assert main(["sweep", "--config", cfg, "--out", out1]) == 0
    assert main(["sweep", "--config", cfg, "--out", out2, "--threads", "2"]) == 0
    assert _read(out1, "sweep.csv") == _read(out2, "sweep.csv")


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_sweep_threads_must_be_positive(tmp_path, capsys, threads):
    cfg = _write(tmp_path, "s.cfg", SWEEP_CFG)
    out = str(tmp_path / "o")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg, "--out", out, "--threads", threads])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--threads" in err and threads in err
    assert not os.path.exists(out)


def test_cli_import_leaves_multiprocessing_unloaded():
    # only `sweep --threads N` needs a process pool; every other command
    # should not pay for loading multiprocessing
    src = os.path.dirname(os.path.dirname(os.path.abspath(codedsmooth.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, codedsmooth.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_sweep_unknown_param(tmp_path):
    cfg = _write(tmp_path, "u.cfg",
                 TRAIN_CFG.format(method="coded", mu=0.5) +
                 "sweep.param = dropout\nsweep.values = 0.5\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sweep_batch_size_values_complete(tmp_path):
    cfg = _write(tmp_path, "b.cfg",
                 TRAIN_CFG.format(method="coded", mu=0.5) +
                 "sweep.param = batch_size\nsweep.values = 8,16,32\nsweep.seeds = 0\n")
    out = str(tmp_path / "o")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    assert len(_read(out, "sweep.csv").strip().splitlines()) == 4


def test_sweep_n_param_ramps_to_target(tmp_path):
    cfg = _write(tmp_path, "n.cfg",
                 TRAIN_CFG.format(method="coded", mu=0.5) +
                 "sweep.param = N\nsweep.values = 16,24\nsweep.seeds = 0\n")
    out = str(tmp_path / "o")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = _read(out, "sweep.csv").strip().splitlines()[1:]
    finals = sorted(int(r.split(",")[-1]) for r in rows)
    assert finals == [16, 24]


def test_sweep_n_param_requires_value_above_batch(tmp_path):
    cfg = _write(tmp_path, "n.cfg",
                 TRAIN_CFG.format(method="coded", mu=0.5) +
                 "sweep.param = N\nsweep.values = 8\nsweep.seeds = 0\n")
    out = str(tmp_path / "o")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)


# ---------------------------------------------------------------- sweep lockstep

RAMP = [(16, 16), (16, 20), (16, 24)]  # K = 16, gamma = 1.5 over 3 epochs


@pytest.fixture
def builds(monkeypatch):
    """The (K, N) of every CodedSmoothingModule built while the test runs."""
    made = []
    init = coded.CodedSmoothingModule.__init__

    def counted(self, k, n, identity_mode=False):
        made.append((k, n))
        init(self, k, n, identity_mode)

    monkeypatch.setattr(coded.CodedSmoothingModule, "__init__", counted)
    return made


def test_sweep_cells_on_one_ramp_build_each_module_once(tmp_path, builds):
    # two coded cells train in lockstep and share each module of their ramp
    cfg = _write(tmp_path, "s.cfg", SWEEP_CFG.replace("seeds = 0,1", "seeds = 0"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert builds == RAMP


def test_threaded_sweep_builds_each_module_once_per_worker(tmp_path, builds, monkeypatch):
    # each worker trains its round-robin group of cells in lockstep; the pool
    # here runs each worker's task in this process, so the builds can be counted
    import concurrent.futures
    per_worker = []

    class InlinePool:
        def __init__(self, workers, mp_context):
            assert workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, groups):
            results = []
            for group in groups:
                start = len(builds)
                results.append(fn(group))
                per_worker.append(builds[start:])
            return results

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = _write(tmp_path, "s.cfg", SWEEP_CFG)
    out1, out2 = str(tmp_path / "par"), str(tmp_path / "ser")
    assert main(["sweep", "--config", cfg, "--out", out1, "--threads", "2"]) == 0
    assert per_worker == [RAMP, RAMP]
    assert main(["sweep", "--config", cfg, "--out", out2]) == 0
    assert _read(out1, "sweep.csv") == _read(out2, "sweep.csv")


def test_attack_builds_its_module_once(tmp_path, builds):
    # the command holds its (K', N') module, so the RCI evaluations of all
    # three attacks share it
    cfg = _write(tmp_path, "t.cfg", TRAIN_CFG.format(method="erm", mu=0.5) +
                 "attack.k_prime = 16\nattack.n_prime = 24\nattack.trials = 2\n")
    train_out = str(tmp_path / "tr")
    assert main(["train", "--config", cfg, "--out", train_out]) == 0
    assert builds == []
    assert main(["attack", "--config", cfg, "--model", os.path.join(train_out, "model.bin"),
                 "--out", str(tmp_path / "atk")]) == 0
    assert builds == [(16, 24)]


def test_sweep_leaves_numpy_error_state_alone(tmp_path):
    cfg = _write(tmp_path, "s.cfg", SWEEP_CFG)
    with np.errstate(over="warn", invalid="warn"):  # set here, so no earlier leak hides one
        before = np.geterr()
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert np.geterr() == before


# a runaway but finite run: losses reach about 1e297, so no guard trips
RUNAWAY_CFG = """
data.kind = two_moons
model.widths = 2,8,2
train.method = coded
train.epochs = 2
train.batch_size = 16
train.lr = 1e10
sweep.param = mu
sweep.values = 0,0.5
sweep.seeds = 0
"""


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_runaway_run_prints_no_numpy_warning(tmp_path, capsys, command):
    # the smoothness pass after training overflows on such a model; its
    # warnings are numpy's, not the run's, and stay off stderr
    cfg = _write(tmp_path, "r.cfg", RUNAWAY_CFG)
    with np.errstate(over="warn", invalid="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_numeric_failure_names_the_cell(tmp_path, capsys, threads):
    # runaway lr on a squared-error task overflows to inf within a few steps
    diverging = {"two_moons": "sinusoid_regression", "2,8,2": "1,8,1", "lr = 0.1": "lr = 1e30"}
    text = SWEEP_CFG
    for old, new in diverging.items():
        text = text.replace(old, new)
    cfg = _write(tmp_path, "s.cfg", text)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", threads]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    found = re.fullmatch(r"numeric failure: sweep cell mu = (0\.2|0\.8), seed ([01]): "
                         r"(non-finite \w+ loss at epoch \d+, batch \d+)\n", err)
    assert found, err
    # the named cell, trained alone, fails with the same message
    train_cfg = _write(tmp_path, "t.cfg", text.replace("mu = 0.5", f"mu = {found[1]}"))
    assert main(["train", "--config", train_cfg, "--out", str(tmp_path / "t"),
                 "--seed", found[2]]) == 3
    assert capsys.readouterr().err == f"numeric failure: {found[3]}\n"


# ---------------------------------------------------------------- config.resolved

ATTACK_CFG = TRAIN_CFG.format(method="coded", mu=0.5) + """
attack.epsilon = 0.1
attack.k_prime = 16
attack.n_prime = 24
attack.trials = 5
"""

# command: (config text, contract files, the key --seed overrides)
RERUN_CASES = {
    "train": (TRAIN_CFG.format(method="coded", mu=0.5), ("metrics.csv", "model.bin"),
              "train.seed"),
    "attack": (ATTACK_CFG, ("results.csv",), "attack.seed"),
    "simulate": (SIM_CFG, ("sim_sweep.csv", "report.json"), "sim.input_seed"),
    "sweep": (SWEEP_CFG, ("sweep.csv",), "sweep.seeds"),
}


def _model_file(tmp_path):
    path = str(tmp_path / "m.bin")
    model = MLP(MLPSpec(widths=(2, 8, 2)), np.random.default_rng(0))
    Path(path).write_bytes(model_bytes(model, 0, "erm"))
    return path


@pytest.mark.parametrize("command", sorted(RERUN_CASES))
def test_rerun_from_echoed_config(tmp_path, command):
    text, contract, seed_key = RERUN_CASES[command]
    extra = ["--model", _model_file(tmp_path)] if command == "attack" else []
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main([command, "--config", _write(tmp_path, "c.cfg", text),
                 "--out", out1, "--seed", "7"] + extra) == 0
    echoed = os.path.join(out1, "config.resolved")
    assert f"{seed_key} = 7\n" in _read(out1, "config.resolved")
    assert main([command, "--config", echoed, "--out", out2] + extra) == 0
    listed = sorted(os.listdir(out1))
    assert listed == sorted(contract + ("config.resolved",))
    assert sorted(os.listdir(out2)) == listed
    for name in listed:
        with open(os.path.join(out1, name), "rb") as a, open(os.path.join(out2, name), "rb") as b:
            assert a.read() == b.read(), name


DATA_KEYS = {f"data.{name}" for name in ("kind", "n_train", "n_test", "noise", "seed")}
MODEL_KEYS = {"model.widths", "model.activation"}
TRAIN_KEYS = DATA_KEYS | MODEL_KEYS | {f"train.{name}" for name in (
    "method", "epochs", "batch_size", "lr", "lr_decay_epochs", "momentum", "seed")}
METHOD_KEYS = {"erm": set(), "mixup": {"train.mixup_alpha"},
               "coded": {"train.mu", "train.gamma"}}
ATTACK_KEYS = DATA_KEYS | MODEL_KEYS | {f"attack.{name}" for name in (
    "kind", "epsilon", "steps", "random_start", "trials", "k_prime", "n_prime", "seed")}
SIM_KEYS = {f"sim.{name}" for name in (
    "fn", "K", "N_list", "S_list", "seeds", "policy", "input_seed")}
SWEEP_KEYS = {"sweep.param", "sweep.values", "sweep.seeds"}
# sets every training method's keys, of which a run reads only its own
ALL_METHODS_CFG = TRAIN_CFG + "train.gamma = 1.5\ntrain.mixup_alpha = 0.4\n"
NO_MODEL_ATTACK_CFG = "".join(line + "\n" for line in ATTACK_CFG.splitlines()
                              if not line.startswith("model."))


# config.resolved holds exactly the keys the run read: the config's other
# keys are left out, and attack echoes the model file's architecture
@pytest.mark.parametrize("command, text, echoed", [
    ("train", ALL_METHODS_CFG.format(method="erm", mu=0.5), TRAIN_KEYS),
    ("train", ALL_METHODS_CFG.format(method="mixup", mu=0.5),
     TRAIN_KEYS | METHOD_KEYS["mixup"]),
    ("train", ALL_METHODS_CFG.format(method="coded", mu=0.5),
     TRAIN_KEYS | METHOD_KEYS["coded"]),
    ("attack", ATTACK_CFG, ATTACK_KEYS),
    ("attack", NO_MODEL_ATTACK_CFG, ATTACK_KEYS),
    ("attack", ATTACK_CFG + "attack.step_size = 0.02\n", ATTACK_KEYS | {"attack.step_size"}),
    ("simulate", SIM_CFG + TRAIN_CFG.format(method="coded", mu=0.5), SIM_KEYS),
    ("sweep", SWEEP_CFG + "train.mixup_alpha = 0.4\n",
     TRAIN_KEYS | METHOD_KEYS["coded"] | SWEEP_KEYS),
    ("sweep", ALL_METHODS_CFG.format(method="erm", mu=0.5) + SIM_CFG
     + "sweep.param = batch_size\nsweep.values = 16\nsweep.seeds = 0\n",
     TRAIN_KEYS | SWEEP_KEYS),
], ids=["train-erm", "train-mixup", "train-coded", "attack", "attack-no-model-keys",
        "attack-step_size", "simulate", "sweep-coded", "sweep-erm"])
def test_echo_holds_the_keys_the_run_read(tmp_path, command, text, echoed):
    out = str(tmp_path / "o")
    extra = ["--model", _model_file(tmp_path)] if command == "attack" else []
    assert main([command, "--config", _write(tmp_path, "c.cfg", text), "--out", out]
                + extra) == 0
    echo = _read(out, "config.resolved")
    assert {line.split(" = ")[0] for line in echo.splitlines()} == echoed, echo
    if command == "attack":
        assert "model.widths = 2,8,2\n" in echo and "model.activation = relu\n" in echo


def _set_key(text, key, value):
    """Config text with ``key = value`` in place of any line that set the key."""
    return re.sub(rf"^{re.escape(key)} = .*\n", "", text, flags=re.M) + f"{key} = {value}\n"


# every seed key takes one 64-bit word; -3 used to run as 2**64 - 3
SEED_CASES = [(command, _set_key(text, key, value), key, value)
              for command, text, key in (
                  ("train", TRAIN_CFG.format(method="erm", mu=0.5), "data.seed"),
                  ("train", TRAIN_CFG.format(method="erm", mu=0.5), "train.seed"),
                  ("attack", ATTACK_CFG, "attack.seed"), ("simulate", SIM_CFG, "sim.input_seed"),
                  ("simulate", SIM_CFG, "sim.seeds"), ("sweep", SWEEP_CFG, "sweep.seeds"))
              for value in ("-3", "18446744073709551616")]


@pytest.mark.parametrize("command, text, key, value", SEED_CASES + [
    ("simulate", SIM_CFG.replace("sim.seeds = 0", "sim.seeds ="), "sim.seeds", "''"),
    ("sweep", SWEEP_CFG.replace("sweep.seeds = 0,1", "sweep.seeds ="), "sweep.seeds", "''"),
    ("attack", ATTACK_CFG.replace("attack.trials = 5", "attack.trials = 0"),
     "attack.trials", "'0'"),
    ("attack", ATTACK_CFG + "attack.kind = p\n", "attack.kind", "'p'"),
    ("attack", ATTACK_CFG.replace("attack.n_prime = 24", "attack.n_prime = 8"),
     "attack.n_prime = 8", "attack.k_prime = 16"),
    ("attack", ATTACK_CFG.replace("attack.k_prime = 16", "attack.k_prime = 40")
     .replace("attack.n_prime = 24", "attack.n_prime = 60"),
     "attack.k_prime = 40", "data.n_test = 32"),
    ("simulate", SIM_CFG.replace("sim.K = 16", "sim.K = 2"), "sim.K", "'2'"),
    ("train", TRAIN_CFG.format(method="coded", mu=2), "train.mu", "= 2.0"),
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).replace("batch_size = 16", "batch_size = 2"),
     "train.batch_size", "= 2"),
    # the coded-sample count always ramps to gamma*K; gamma = 1 keeps it at K
    ("train", TRAIN_CFG.format(method="coded", mu=0.5) + "train.n_schedule = constant\n",
     "'train.n_schedule'", "unknown key"),
    # float keys take finite values only; the learning rate and momentum
    # are range-checked so that a bad value never reaches training
    ("train", TRAIN_CFG.format(method="coded", mu=0.5) + "train.gamma = nan\n",
     "train.gamma", "'nan'"),
    ("train", TRAIN_CFG.format(method="coded", mu=0.5) + "train.gamma = inf\n",
     "train.gamma", "'inf'"),
    ("attack", ATTACK_CFG.replace("attack.epsilon = 0.1", "attack.epsilon = nan"),
     "attack.epsilon", "'nan'"),
    ("attack", ATTACK_CFG.replace("attack.epsilon = 0.1", "attack.epsilon = inf"),
     "attack.epsilon", "'inf'"),
    # a ball wider than the input box crafts nothing a radius-2 ball does not
    ("attack", ATTACK_CFG.replace("attack.epsilon = 0.1", "attack.epsilon = 3"),
     "attack.epsilon = 3.0", "box [-1, 1]"),
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).replace("noise = 0.1", "noise = nan"),
     "data.noise", "'nan'"),
    ("attack", ATTACK_CFG + "attack.step_size = nan\n", "attack.step_size", "'nan'"),
    ("sweep", SWEEP_CFG.replace("0.2,0.8", "0.2,nan"), "sweep.values", "'0.2,nan'"),
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).replace("lr = 0.1", "lr = nan"),
     "train.lr", "'nan'"),
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).replace("lr = 0.1", "lr = -1"),
     "train.lr", "= -1.0"),
    ("train", TRAIN_CFG.format(method="erm", mu=0.5) + "train.momentum = 1\n",
     "train.momentum", "= 1.0"),
    # integer sweep parameters take whole numbers only
    ("sweep", SWEEP_CFG.replace("param = mu", "param = batch_size")
     .replace("0.2,0.8", "16,32.5"), "sweep.values has 32.5", "sweep.param = batch_size"),
    ("sweep", SWEEP_CFG.replace("param = mu", "param = N").replace("0.2,0.8", "20.5"),
     "sweep.values has 20.5", "sweep.param = N"),
    # every spline point count is bounded, so no operator outgrows memory;
    # each is rejected before the first operator is built
    ("train", TRAIN_CFG.format(method="coded", mu=0.5) + "train.gamma = 1000\n",
     "train.gamma = 1000.0", "N = 16000"),
    ("train", TRAIN_CFG.format(method="coded", mu=0.5) + "train.gamma = 1e307\n",
     "train.gamma = 1e+307", "N = 1.6e+308 points"),
    ("sweep", SWEEP_CFG.replace("param = mu", "param = N").replace("0.2,0.8", "24,5000"),
     "train.batch_size = 16", "N = 5000"),
    ("sweep", SWEEP_CFG.replace("param = mu", "param = gamma").replace("0.2,0.8", "1.5,300"),
     "train.gamma = 300.0", "N = 4800"),
    ("simulate", SIM_CFG.replace("32,64,128,256", "32,5000"), "sim.N_list", "N = 5000"),
    ("simulate", SIM_CFG.replace("sim.K = 16", "sim.K = 5000"), "sim.K", "'5000'"),
    ("attack", ATTACK_CFG.replace("attack.n_prime = 24", "attack.n_prime = 5000"),
     "attack.n_prime", "5000"),
    # the data sizes and the layer widths are bounded, so no array outgrows memory
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).replace("n_train = 64",
                                                            "n_train = 10000000000000"),
     "data.n_train", "10000000000000"),
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).replace("n_test = 32",
                                                            "n_test = 1000001"),
     "data.n_test", "1000001"),
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).replace("widths = 2,8,2",
                                                            "widths = 2,100000000000,2"),
     "model.widths", "100000000000"),
    # K' sizes the batches the test set is cut into, so it is range-checked
    # when parsed, before anything divides by it
    ("attack", ATTACK_CFG.replace("attack.k_prime = 16", "attack.k_prime = 0"),
     "attack.k_prime", "'0'"),
    ("attack", ATTACK_CFG.replace("attack.k_prime = 16", "attack.k_prime = -16"),
     "attack.k_prime", "'-16'"),
    # a decay epoch the run never reaches is a config error, not a no-op
    ("train", TRAIN_CFG.format(method="erm", mu=0.5) + "train.lr_decay_epochs = -1\n",
     "train.lr_decay_epochs has -1", "train.epochs = 3"),
    ("train", TRAIN_CFG.format(method="erm", mu=0.5) + "train.lr_decay_epochs = 1,3\n",
     "train.lr_decay_epochs has 3", "train.epochs = 3"),
    # a repeated decay epoch would decay once and still be echoed twice
    ("train", TRAIN_CFG.format(method="erm", mu=0.5) + "train.lr_decay_epochs = 1,1\n",
     "train.lr_decay_epochs has 1", "more than once"),
    # a swept value the plan rejects is named as a sweep value
    ("sweep", SWEEP_CFG.replace("0.2,0.8", "0.2,-1"), "sweep.values has -1.0",
     "train.mu = -1.0"),
    # a derived default too large for a spline names the key it came from
    ("attack", ATTACK_CFG.replace("attack.k_prime = 16", "attack.k_prime = 4096")
     .replace("attack.n_prime = 24\n", "").replace("n_test = 32", "n_test = 5000"),
     "attack.k_prime", "4096"),
    # a whole sweep value is range-checked before it becomes an int, so the
    # message quotes it as a float, not as hundreds of digits
    ("sweep", SWEEP_CFG.replace("param = mu", "param = batch_size").replace("0.2,0.8", "1e300"),
     "sweep.values has 1e+300", "train.batch_size (2e+300)"),
    ("sweep", SWEEP_CFG.replace("param = mu", "param = batch_size").replace("0.2,0.8", "-1e300"),
     "sweep.values has -1e+300", "train.batch_size = -1e+300"),
    ("sweep", SWEEP_CFG.replace("param = mu", "param = N").replace("0.2,0.8", "-1e300"),
     "sweep.values has -1e+300", "N = -1e+300"),
    # noise that overflows the inputs is named before they are scaled
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).replace("noise = 0.1", "noise = 1e308"),
     "data.noise", "1e+308"),
    # each entry of a grid key is one cell, so a repeat would run a cell twice;
    # entries are compared as parsed values
    ("simulate", SIM_CFG.replace("32,64,128,256", "32,32,64"), "sim.N_list",
     "32 more than once"),
    ("simulate", SIM_CFG.replace("sim.S_list = 0", "sim.S_list = 0,1,1"), "sim.S_list",
     "1 more than once"),
    ("simulate", SIM_CFG.replace("sim.seeds = 0", "sim.seeds = 0,0"), "sim.seeds",
     "0 more than once"),
    ("sweep", SWEEP_CFG.replace("0.2,0.8", "0.5,0.50"), "sweep.values", "0.5 more than once"),
    ("sweep", SWEEP_CFG.replace("sweep.seeds = 0,1", "sweep.seeds = 0,0"), "sweep.seeds",
     "0 more than once"),
    # a network that does not fit the data kind is refused before any data is made
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).replace("widths = 2,8,2", "widths = 3,8,2"),
     "model.widths = (3, 8, 2)", "data.kind = two_moons"),
    ("sweep", SWEEP_CFG.replace("widths = 2,8,2", "widths = 2,8,3"),
     "model.widths = (2, 8, 3)", "data.kind = two_moons"),
], ids=[f"{key}-{value}" for _, _, key, value in SEED_CASES] + [
    "sim.seeds", "sweep.seeds", "attack.trials", "attack.kind", "attack.n_prime",
        "attack.k_prime", "sim.K", "train.mu", "train.batch_size", "train.n_schedule",
        "train.gamma-nan", "train.gamma-inf", "attack.epsilon-nan", "attack.epsilon-inf",
        "attack.epsilon-above-box", "data.noise-nan", "attack.step_size-nan",
        "sweep.values-nan", "train.lr-nan", "train.lr-negative", "train.momentum-one",
        "sweep.values-batch_size-fraction", "sweep.values-N-fraction",
        "train.gamma-oversized", "train.gamma-huge", "sweep.values-N-oversized",
        "sweep.values-gamma-oversized", "sim.N_list-oversized", "sim.K-oversized",
        "attack.n_prime-oversized", "data.n_train-oversized", "data.n_test-oversized",
        "model.widths-oversized", "attack.k_prime-zero", "attack.k_prime-negative",
        "train.lr_decay_epochs-negative", "train.lr_decay_epochs-past-end",
        "train.lr_decay_epochs-repeated", "sweep.values-mu-negative",
        "attack.n_prime-derived-oversized", "sweep.values-batch_size-huge",
        "sweep.values-batch_size-negative-huge", "sweep.values-N-negative-huge",
        "data.noise-huge", "sim.N_list-repeated", "sim.S_list-repeated",
        "sim.seeds-repeated", "sweep.values-repeated", "sweep.seeds-repeated",
        "model.widths-input-misfit", "model.widths-output-misfit"])
def test_degenerate_config_rejected(tmp_path, capsys, command, text, key, value):
    out = str(tmp_path / "o")
    extra = ["--model", _model_file(tmp_path)] if command == "attack" else []
    assert main([command, "--config", _write(tmp_path, "d.cfg", text),
                 "--out", out] + extra) == 2
    captured = capsys.readouterr()
    assert key in captured.err and value in captured.err
    # no number longer than the 20 digits of the 64-bit seed bound: int(1e300)
    # has 301
    assert not re.search(r"\d{21}", captured.err), captured.err
    assert captured.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, text, key, other", [
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).replace("n_test = 32", "n_test = 0"),
     "data.n_test = 0", "data.n_train"),
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).replace("n_train = 64", "n_train = 1"),
     "data.n_train = 1", "data.n_test"),
    ("attack", ATTACK_CFG + "attack.steps = 0\n", "attack.steps = 0", "attack.epsilon"),
    ("attack", ATTACK_CFG.replace("attack.n_prime = 24", "attack.n_prime = 3"),
     "attack.n_prime = 3", "attack.k_prime"),
], ids=["data.n_test", "data.n_train", "attack.steps", "attack.n_prime"])
def test_validation_message_names_only_the_bad_key(tmp_path, capsys, command, text, key, other):
    extra = ["--model", _model_file(tmp_path)] if command == "attack" else []
    assert main([command, "--config", _write(tmp_path, "d.cfg", text),
                 "--out", str(tmp_path / "o")] + extra) == 2
    err = capsys.readouterr().err
    assert key in err and other not in err, err


# the --out path, below tmp_path, and a file created there first
@pytest.mark.parametrize("command, out, existing", [
    ("simulate", "", None), ("simulate", "f", "f"), ("train", os.path.join("f", "x"), "f"),
], ids=["empty", "existing-file", "under-a-file"])
def test_unusable_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch, command, out,
                                             existing):
    monkeypatch.chdir(tmp_path)
    if existing is not None:
        (tmp_path / existing).write_text("keep\n")
    text = SIM_CFG if command == "simulate" else TRAIN_CFG.format(method="erm", mu=0.5)
    assert main([command, "--config", _write(tmp_path, "c.cfg", text), "--out", out]) == 2
    captured = capsys.readouterr()
    assert f"--out {out}" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""  # the command never ran
    assert sorted(os.listdir(tmp_path)) == sorted({"c.cfg", existing} - {None})
    if existing is not None:
        assert (tmp_path / existing).read_text() == "keep\n"


def test_out_that_fails_at_write_exits_2(tmp_path, capsys, monkeypatch):
    # a path that passed the check can still fail when the files are written
    monkeypatch.setattr("codedsmooth.cli._check_out", lambda out: None)
    out = tmp_path / "f"
    out.write_text("keep\n")
    assert main(["simulate", "--config", _write(tmp_path, "c.cfg", SIM_CFG),
                 "--out", str(out)]) == 2
    assert f"--out {out}: cannot write" in capsys.readouterr().err
    assert out.read_text() == "keep\n"


def _model_blob():
    return model_bytes(MLP(MLPSpec(widths=(2, 8, 2)), np.random.default_rng(0)), 0, "erm")


def _huge_widths_blob():
    """A 5 KB header claiming 1,001 widths of 4096 (125 GiB of parameters),
    then an 8-byte block."""
    blob = _model_blob()
    header = blob[:blob.index(b"\n\n") + 2]
    return header.replace(b"2,8,2", b",".join([b"4096"] * 1001)) + bytes(8)


# config and model file contents (None: the file does not exist), and the
# texts the message must hold; {config} and {model} stand for the paths
@pytest.mark.parametrize("command, config, model, named", [
    ("attack", ATTACK_CFG.replace("two_moons", "spirals").encode(), _model_blob,
     ("data.kind = spirals", "model.widths = (2, 8, 2)")),
    ("attack", ATTACK_CFG.encode(), lambda: _model_blob().replace(b"widths 2,8,2\n", b""),
     ("{model}", "widths")),
    ("attack", ATTACK_CFG.encode(), lambda: _model_blob().replace(b"2,8,2", b"2,x,2"),
     ("{model}", "'x'")),
    ("attack", ATTACK_CFG.encode(), lambda: _model_blob()[:-5], ("{model}",)),
    ("attack", ATTACK_CFG.encode(), lambda: _model_blob()[:-8] + np.float64(np.nan).tobytes(),
     ("{model}", "NaN or Inf")),
    # 8 * 1000 * (4096 + 1) * 4096 bytes
    ("attack", ATTACK_CFG.encode(), _huge_widths_blob, ("{model}", "expected 134250496000")),
    ("attack", ATTACK_CFG.encode(), lambda: _model_blob().replace(b"erm", b"\xe9rm"),
     ("{model}",)),
    ("attack", ATTACK_CFG.encode(), None, ("{model}",)),
    ("train", None, None, ("{config}",)),
    ("train", TRAIN_CFG.format(method="erm", mu=0.5).encode() + b"# \xff\n", None,
     ("{config}",)),
    ("attack", ATTACK_CFG.replace("two_moons", "sinusoid_regression").encode(), _model_blob,
     ("data.kind = sinusoid_regression",)),
], ids=["attack-class-count", "model-no-widths", "model-widths-not-int",
        "model-block-not-float64", "model-block-not-finite", "model-huge-widths",
        "model-header-not-ascii", "model-missing",
        "config-missing", "config-not-utf8", "attack-regression-kind"])
def test_unusable_input_files_exit_2(tmp_path, capsys, command, config, model, named):
    cfg_path, model_path, out = tmp_path / "c.cfg", tmp_path / "m.bin", tmp_path / "o"
    if config is not None:
        cfg_path.write_bytes(config)
    if model is not None:
        model_path.write_bytes(model())
    extra = ["--model", str(model_path)] if command == "attack" else []
    # nothing sized by a file's header is allocated before the file is checked
    tracemalloc.start()
    try:
        assert main([command, "--config", str(cfg_path), "--out", str(out)] + extra) == 2
        assert tracemalloc.get_traced_memory()[1] < 10 * 2 ** 20
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    for text in named:
        assert text.format(config=cfg_path, model=model_path) in err, err
    assert not out.exists()


def test_package_import_defaults_blas_to_one_thread():
    # the variables are read when numpy loads, which the first codedsmooth
    # module to run does, after the package has set them; a count the
    # caller exported is kept
    src = os.path.dirname(os.path.dirname(os.path.abspath(codedsmooth.__file__)))
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    probe = ("import os, codedsmooth; "
             f"print(','.join(os.environ[v] for v in {names!r}))")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    for preset, expected in (({}, "1,1,1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3,1,1")):
        proc = subprocess.run([sys.executable, "-c", probe], env=dict(env, **preset),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


# ---------------------------------------------------------------- import footprint

def _python(code):
    """stdout of ``python -c code`` in a fresh process that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(codedsmooth.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(code):
    """The codedsmooth modules a fresh process holds after running code."""
    probe = (code + "\nimport sys\nprint(' '.join(sorted("
             "m for m in sys.modules if m.startswith('codedsmooth'))))")
    return set(_python(probe).splitlines()[-1].split())


# skipped None: the command loads exactly the modules in runs
@pytest.mark.parametrize("command, runs, skipped", [
    ("simulate", ("codedsim",), ("train", "attack", "datasets", "models")),
    ("attack", ("attack", "datasets", "models"), ("train", "codedsim")),
    ("points", ("cli", "config", "coded", "spline", "autodiff", "errors"), None),
    ("train", ("train", "datasets", "models"), ("attack", "codedsim")),
])
def test_command_loads_only_the_modules_it_runs(tmp_path, command, runs, skipped):
    if command == "points":
        argv = ["points", "8", "12"]
    else:
        text = {"simulate": SIM_CFG, "attack": ATTACK_CFG,
                "train": TRAIN_CFG.format(method="coded", mu=0.5)}[command]
        argv = [command, "--config", _write(tmp_path, "c.cfg", text),
                "--out", str(tmp_path / "o")]
    if command == "attack":
        argv += ["--model", _model_file(tmp_path)]
    loaded = _loaded(f"from codedsmooth.cli import main\nassert main({argv!r}) == 0")
    expected = {f"codedsmooth.{m}" for m in runs}
    if skipped is None:
        assert loaded == {"codedsmooth"} | expected
    else:
        assert expected <= loaded
        assert not {f"codedsmooth.{m}" for m in skipped} & loaded


def test_package_import_loads_no_submodule():
    assert _loaded("import codedsmooth") == {"codedsmooth"}


def test_submodule_is_the_only_meaning_of_its_name(tmp_path):
    # the package binds no names of its own, so ``codedsmooth.train`` is the
    # submodule whatever ran before: a command, or a name imported from it
    argv = ["train", "--config", _write(tmp_path, "t.cfg", TRAIN_CFG.format(method="erm", mu=0.5)),
            "--out", str(tmp_path / "o")]
    probe = ("import sys, codedsmooth\nfrom codedsmooth import train\nseen = []\n"
             "def same():\n"
             "    seen.append(train is codedsmooth.train is sys.modules['codedsmooth.train'])\n"
             "same()\nfrom codedsmooth.cli import main\n"
             f"assert main({argv!r}) == 0\nsame()\n"
             "from codedsmooth.train import Coded\nsame()\n"
             "try:\n    from codedsmooth import get_module\n"
             "except ImportError:\n    seen.append('ImportError')\nprint(seen)\n")
    assert _python(probe).splitlines()[-1] == "[True, True, True, 'ImportError']"
    with pytest.raises(AttributeError):
        codedsmooth.no_such_name


def test_package_defines_no_function_it_does_not_use():
    # a top-level class, function or method that no module of the package
    # names is kept only for outside callers; the two below are named by the
    # benchmark's tracer (run_coded_job) and by the acceptance suite and
    # README (estimate_mse). A test-only helper belongs in the tests.
    defined, named = set(), set()
    for path in Path(codedsmooth.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            body = top.body if isinstance(top, ast.ClassDef) else []
            defined |= {f.name for f in (top, *body)
                        if isinstance(f, (ast.ClassDef, ast.FunctionDef))}
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                named.add(n.id if isinstance(n, ast.Name) else n.attr)
    unused = {name for name in defined - named if not name.startswith("__")}
    assert unused == {"run_coded_job", "estimate_mse"}


def test_readme_library_use_runs_as_written():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    mse = float(_python(code).split()[-1])
    assert 0 <= mse < 1e-3


def test_allowed_names_match_the_code_that_runs_them():
    # KEYS holds the names, so reading a config loads no command module
    assert sorted(KEYS["sim.fn"].allowed) == sorted(BENCH_FUNCTIONS)
    assert sorted(KEYS["data.kind"].allowed) == sorted(datasets.KINDS)
    assert sorted(KEYS["train.method"].allowed) == sorted(METHODS)
    for name, (cls, _) in METHODS.items():  # the model file's method line names the class
        assert cls.__name__.lower() == name
    attacks = (attack.Clean(), attack.FGSMSpec(0.1), attack.PGDSpec(0.1))
    assert set(KEYS["attack.kind"].allowed) == {"all"} | {
        a.name.rstrip("0123456789") for a in attacks}


def test_each_spec_field_is_set_by_its_key(tmp_path, monkeypatch):
    # the key prefix + name sets field name of each spec a command builds, and
    # a field's default is its key's, so a spec built in code runs as the CLI's
    built = set()
    spec = Config.spec

    def recording(self, cls, prefix, **given):
        built.add((cls, prefix, frozenset(given)))
        return spec(self, cls, prefix, **given)

    monkeypatch.setattr(Config, "spec", recording)
    for method in METHODS:
        cfg = _write(tmp_path, "t.cfg", TRAIN_CFG.format(method=method, mu=0.5))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / method)]) == 0
    assert main(["attack", "--config", _write(tmp_path, "a.cfg", ATTACK_CFG),
                 "--model", _model_file(tmp_path), "--out", str(tmp_path / "a")]) == 0
    assert {(cls.__name__, prefix) for cls, prefix, _ in built} == {
        ("DatasetSpec", "data."), ("MLPSpec", "model."), ("TrainPlan", "train."),
        ("ERM", "train."), ("Mixup", "train.mixup_"), ("Coded", "train."),
        ("FGSMSpec", "attack."), ("PGDSpec", "attack."), ("RCI", "attack.")}
    for cls, prefix, given in built:
        for f in fields(cls):
            if f.name not in given:
                key = prefix + f.name
                assert key in KEYS, key
                assert f.default is MISSING or f.default == KEYS[key].default, key


def test_readme_key_table_matches_config_table():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Config keys", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for prefix, names in re.findall(r"^\| `(\w+\.)` \| (.*) \|$", section, re.M):
        for name, note in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", names):
            listed[prefix + name] = note
    assert sorted(listed) == sorted(KEYS)
    for key, spec in KEYS.items():
        if spec.allowed:
            assert sorted(listed[key].split(", ")) == sorted(spec.allowed), key
