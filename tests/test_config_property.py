"""No config value crashes a command: every key's edge values exit 0, 2 or 3.

For each ``KEYS`` row, hypothesis draws values of the key's type: nan, +-inf,
0, negatives, huge values, fractions for integer keys, the empty string,
small numbers, and for list keys short lists of these. The value replaces
the key in a tiny config that sets every key, and the command that reads the
key runs in-process. It must exit 0 (ran), 2 (rejected, and the message
names the key) or 3 (numeric failure), never raise. The same holds for each
numeric key a ``sweep`` cell can set, and for ``N``, with the value sent
through ``sweep.values``. Draws are derandomized, so the examples are the
same on every run.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from codedsmooth.cli import main  # noqa: E402
from codedsmooth.config import KEYS  # noqa: E402
from codedsmooth.modelio import model_bytes  # noqa: E402
from codedsmooth.models import MLP, MLPSpec  # noqa: E402

# a valid value for every key, sized so each command runs in milliseconds
BASE = {
    "data.kind": "two_moons", "data.n_train": "64", "data.n_test": "32",
    "data.noise": "0.1", "data.seed": "1",
    "model.widths": "2,8,2", "model.activation": "relu",
    "train.method": "coded", "train.mu": "0.5", "train.gamma": "1.5",
    "train.mixup_alpha": "1.0", "train.epochs": "2", "train.batch_size": "16",
    "train.lr": "0.1", "train.lr_decay_epochs": "1", "train.momentum": "0.9",
    "train.seed": "0",
    "attack.kind": "all", "attack.epsilon": "0.1", "attack.steps": "2",
    "attack.step_size": "0.05", "attack.random_start": "true", "attack.trials": "2",
    "attack.k_prime": "16", "attack.n_prime": "24", "attack.seed": "0",
    "sim.fn": "sin", "sim.K": "8", "sim.N_list": "16,32", "sim.S_list": "0,2",
    "sim.seeds": "0", "sim.policy": "uniform_random", "sim.input_seed": "0",
    "sweep.param": "mu", "sweep.values": "0.5", "sweep.seeds": "0",
}

COMMAND = {"data": "train", "model": "train", "train": "train",
           "attack": "attack", "sim": "simulate", "sweep": "sweep"}

# keys whose value sizes the run time: a huge value there is a valid request
# for a long run, not a config error, so none is drawn
WORK_SIZED = {"train.epochs", "attack.steps", "attack.trials"}

EDGES = ["", "nan", "inf", "-inf", "0", "-0", "-1"]
INT_EDGES = EDGES + ["2.5", "-2.5", "1e3"]
FLOAT_EDGES = EDGES + ["1e300", "-1e300", "1e308", "-1e308", "5e-324", "-0.5"]
HUGE_INT = str(2 ** 70)


def _kind(key):
    """The type of ``key``'s values, and whether it takes a list, from its base value."""
    parsed = KEYS[key].parse(BASE[key])
    return (type(parsed[0]), True) if isinstance(parsed, tuple) else (type(parsed), False)


def _edges_and_numbers(key, one_value=False):
    """The edge values of ``key``'s type, and a strategy of further values:
    short lists of both for a list key, unless ``one_value``."""
    kind, is_list = _kind(key)
    if kind is int:
        edges = INT_EDGES if key in WORK_SIZED else INT_EDGES + [HUGE_INT]
        numbers = st.integers(-3, 40).map(str)
    elif kind is float:
        edges, numbers = FLOAT_EDGES, st.floats(-4.0, 4.0).map(repr)
    else:
        return EDGES + ["1e300", HUGE_INT, "2.5"], st.nothing()
    if is_list and not one_value:
        item = st.one_of(st.sampled_from(edges), numbers)
        numbers = st.lists(item, min_size=1, max_size=3).map(",".join)
    return edges, numbers


def _run(cfg, command, model_path=None):
    """(exit code, stderr) of ``command`` on the config ``cfg``, run in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        argv = [command, "--config", path, "--out", os.path.join(tmp, "o")]
        if command == "attack":
            argv += ["--model", model_path]
        err = io.StringIO()
        # a huge rate or noise overflows on purpose: that run exits 3
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("model") / "m.bin")
    model = MLP(MLPSpec(widths=(2, 8, 2)), np.random.default_rng(0))
    Path(path).write_bytes(model_bytes(model, 0, "erm"))
    return path


def test_base_config_sets_every_key():
    assert sorted(BASE) == sorted(KEYS)


@pytest.mark.parametrize("key", sorted(KEYS))
def test_edge_values_exit_0_2_or_3(model_path, key):
    command = COMMAND[key.split(".")[0]]
    edges, numbers = _edges_and_numbers(key)

    @settings(max_examples=8, derandomize=True, deadline=None, database=None)
    @given(value=st.one_of(st.sampled_from(edges), numbers))
    def check(value):
        cfg = dict(BASE, **{key: value})
        if key == "train.mixup_alpha":  # only a mixup run reads it
            cfg["train.method"] = "mixup"
        code, err = _run(cfg, command, model_path)
        assert code in (0, 2, 3), (key, value, code)
        if code == 2:
            assert key in err, (key, value, err)

    for value in edges:  # every edge value runs, besides the drawn ones
        check = example(value=value)(check)
    check()


# sweep.param: the key a message about a swept value names (N names itself)
SWEPT = {"mu": "train.mu", "gamma": "train.gamma", "batch_size": "train.batch_size", "N": "N"}
SWEPT.update((key, key) for key in KEYS if key.split(".")[0] in ("data", "model", "train")
             and key != "train.seed" and _kind(key)[0] in (int, float))


@pytest.mark.parametrize("param", sorted(SWEPT))
def test_swept_edge_values_exit_0_2_or_3(param):
    # a sweep hands each value to its key's own parser and checks, so a swept
    # edge value is refused as that key refuses it; sweep.values itself takes
    # finite numbers only, and names itself when it refuses one
    named = SWEPT[param]
    edges, numbers = _edges_and_numbers("train.batch_size" if param == "N" else named,
                                        one_value=True)

    @settings(max_examples=4, derandomize=True, deadline=None, database=None)
    @given(value=st.one_of(st.sampled_from(edges), numbers))
    def check(value):
        cfg = dict(BASE, **{"sweep.param": param, "sweep.values": value})
        if named == "train.mixup_alpha":  # only a mixup run reads it
            cfg["train.method"] = "mixup"
        code, err = _run(cfg, "sweep")
        assert code in (0, 2, 3), (param, value, code)
        if code == 2:
            try:
                KEYS["sweep.values"].parse(value)
            except ValueError:
                assert "sweep.values" in err, (param, value, err)
            else:
                assert named in err, (param, value, err)

    for value in edges:
        check = example(value=value)(check)
    check()
