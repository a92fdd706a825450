"""Flat key=value run-config files.

One ``key = value`` pair per line, ``#`` starts a comment, keys are dotted
(``train.lr``, ``attack.epsilon``, ``sim.N_list``). Unknown keys are rejected so
a typo cannot silently fall back to a default. Every command echoes its
fully-resolved configuration into the output directory; re-running from
that echo reproduces the outputs exactly.

``KEYS`` holds each key's parser, default and allowed values.
"""

import math
from collections import namedtuple
from dataclasses import MISSING

from .attack import PGDSpec, RCI
from .coded import MAX_POINTS, MIN_POINTS
from .codedsim import BENCH_FUNCTIONS, POLICIES, StragglerScenario
from .datasets import DatasetSpec, KINDS
from .errors import ValidationError
from .models import ACTIVATIONS, MLPSpec
from .train import Coded, Mixup, TrainPlan


def _int_in(low, high=None):
    def parse(text):
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}")
        if high is not None and value > high:
            raise ValueError(f"must be <= {high}")
        return value
    return parse


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _bool(text):
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError("must be true or false")


def _list(item, may_be_empty=False):
    def parse(text):
        values = tuple(item(p) for p in text.split(",") if p.strip())
        if not values and not may_be_empty:
            raise ValueError("must not be empty")
        return values
    return parse


# default: MISSING marks a required key; a callable derives the default from
# the config. method: the train.method the key belongs to (None: any).
Key = namedtuple("Key", "parse default allowed method", defaults=((), None))

# every key any subcommand understands; one config file may drive several
# commands (e.g. a train followed by an attack on its model file)
KEYS = {
    "data.kind": Key(str, MISSING, KINDS),
    "data.n_train": Key(int, DatasetSpec.n_train),
    "data.n_test": Key(int, DatasetSpec.n_test),
    "data.noise": Key(_finite, DatasetSpec.noise),
    "data.seed": Key(int, DatasetSpec.seed),
    "model.widths": Key(_list(int), MISSING),
    "model.activation": Key(str, MLPSpec.activation, ACTIVATIONS),
    "train.method": Key(str.lower, "erm", ("erm", "mixup", "coded")),
    "train.mu": Key(_finite, Coded.mu, method="coded"),
    "train.gamma": Key(_finite, Coded.gamma, method="coded"),
    "train.mixup_alpha": Key(_finite, Mixup.alpha, method="mixup"),
    "train.epochs": Key(int, TrainPlan.epochs),
    "train.batch_size": Key(int, TrainPlan.batch_size),
    "train.lr": Key(_finite, TrainPlan.lr),
    "train.lr_decay_epochs": Key(_list(int, may_be_empty=True), TrainPlan.lr_decay_epochs),
    "train.momentum": Key(_finite, TrainPlan.momentum),
    "train.seed": Key(int, TrainPlan.seed),
    "attack.kind": Key(str.lower, "all", ("all", "none", "fgsm", "pgd")),
    "attack.epsilon": Key(_finite, 0.1),
    "attack.steps": Key(int, PGDSpec.steps),
    "attack.step_size": Key(_finite, PGDSpec.step_size),
    "attack.random_start": Key(_bool, PGDSpec.random_start),
    "attack.trials": Key(_int_in(1), 20),
    "attack.k_prime": Key(int, 128),
    "attack.n_prime": Key(int, lambda cfg: int(round(1.5 * cfg.get("attack.k_prime")))),
    "attack.seed": Key(int, RCI.seed),
    "sim.fn": Key(str, "sin", BENCH_FUNCTIONS),
    "sim.K": Key(_int_in(MIN_POINTS, MAX_POINTS), 16),
    "sim.N_list": Key(_list(int), (32, 64, 128, 256)),
    "sim.S_list": Key(_list(int), (0,)),
    "sim.seeds": Key(_list(int), (0,)),
    "sim.policy": Key(str, StragglerScenario.policy, POLICIES),
    "sim.input_seed": Key(int, 0),
    "sweep.param": Key(str, MISSING, ("mu", "N", "gamma", "batch_size")),
    "sweep.values": Key(_list(_finite), MISSING),
    "sweep.seeds": Key(_list(int), (0, 1, 2, 3, 4)),
}


def parse_config_text(text: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        if key in cfg:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _show(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(_show(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def dump_config(cfg: dict) -> str:
    """Deterministic echo of a resolved configuration; None values are unset."""
    return "".join(f"{key} = {_show(cfg[key])}\n" for key in sorted(cfg)
                   if cfg[key] is not None)


class Config:
    """Parsed, validated access with defaults over the flat key/value map."""

    def __init__(self, raw: dict):
        self.raw = dict(raw)

    def get(self, key):
        spec = KEYS[key]
        if key not in self.raw:
            if spec.default is MISSING:
                raise ValidationError(f"missing required config key {key!r}")
            return spec.default(self) if callable(spec.default) else spec.default
        text = self.raw[key]
        try:
            value = spec.parse(text)
        except ValueError as err:
            raise ValidationError(f"config key {key!r}: bad value {text!r} ({err})") from None
        if spec.allowed and value not in spec.allowed:
            raise ValidationError(f"config key {key!r}: {value!r} is not one of "
                                  f"{', '.join(spec.allowed)}")
        return value

    # aliases of ``get`` (the key table already fixes the type); nothing in
    # src/ calls them, perfbench/probe.py does
    get_str = get_int = get_float = get
