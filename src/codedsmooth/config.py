"""Flat key=value run-config files.

One ``key = value`` pair per line, ``#`` starts a comment, keys are dotted
(``train.lr``, ``attack.epsilon``, ``sim.N_list``). Unknown keys are rejected so
a typo cannot silently fall back to a default. A ``Config`` parses and
checks a key when a command first reads it, and keeps every key read so far
with its value; a command's echo holds exactly those keys, and re-running
from that echo reproduces the outputs exactly.

``KEYS`` holds each key's parser and default. It is the one home of every
default: the dataclasses the keys configure (``DatasetSpec``, ``TrainPlan``,
``StragglerScenario`` ...) read their field defaults from it, so reading a
config loads none of the modules that run a command. ``Config.spec`` is the
one rule from key to field: the key ``prefix + name`` sets the field
``name`` of the spec a command builds. A name a key takes (a data kind, a
method, an attack ...) is written once, in the table that runs it, and is
checked there: by the spec that holds it, or by ``Config.choose``.
"""

import math
from collections import namedtuple
from dataclasses import MISSING, fields

from .coded import MAX_POINTS, MIN_POINTS
from .errors import ValidationError


def int_in(low, high=None):
    def parse(text):
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}")
        if high is not None and value > high:
            raise ValueError(f"must be <= {high}")
        return value
    return parse


# a seed is one 64-bit word of numpy's SeedSequence entropy
parse_seed = int_in(0, 2 ** 64 - 1)


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
        if may_be_empty and not text.strip():
            return ()
        return tuple(item(p) for p in text.split(","))  # item refuses an empty entry
    return parse


def _distinct(parse):
    """``parse`` for a grid key: each entry is one cell, so none may repeat."""
    def parse_distinct(text):
        values = parse(text)
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"has {value!r} more than once")
        return values
    return parse_distinct


def _default_n_prime(cfg):
    k_prime = cfg.get("attack.k_prime")
    n_prime = int(round(1.5 * k_prime))
    if n_prime > MAX_POINTS:  # named here: the config never set attack.n_prime
        raise ValidationError(f"attack.n_prime defaults to round(1.5 * attack.k_prime = "
                              f"{k_prime}) = {n_prime}, above {MAX_POINTS}; set attack.n_prime")
    return n_prime


# default: MISSING marks a required key; a callable derives it from the config
Key = namedtuple("Key", "parse default")

# every key any subcommand understands; one config file may drive several
# commands (e.g. a train followed by an attack on its model file)
KEYS = {
    "data.kind": Key(str, MISSING),
    "data.n_train": Key(int, 1000),
    "data.n_test": Key(int, 1000),
    "data.noise": Key(_finite, 0.0),
    "data.seed": Key(parse_seed, 0),
    "model.widths": Key(_list(int), MISSING),
    "model.activation": Key(str, "relu"),
    "train.method": Key(str.lower, "erm"),
    "train.mu": Key(_finite, 0.5),
    "train.gamma": Key(_finite, 1.5),
    "train.mixup_alpha": Key(_finite, 1.0),
    "train.epochs": Key(int, 100),
    "train.batch_size": Key(int, 128),
    "train.lr": Key(_finite, 0.05),
    "train.lr_decay_epochs": Key(_list(int, may_be_empty=True), ()),
    "train.momentum": Key(_finite, 0.9),
    "train.seed": Key(parse_seed, 0),
    "attack.kind": Key(str.lower, "all"),
    "attack.epsilon": Key(_finite, 0.1),
    "attack.steps": Key(int, 10),
    "attack.step_size": Key(_finite, None),  # None: attack.epsilon / 4
    "attack.random_start": Key(_bool, True),
    "attack.trials": Key(int_in(1), 20),
    "attack.k_prime": Key(int_in(MIN_POINTS, MAX_POINTS), 128),
    "attack.n_prime": Key(int, _default_n_prime),
    "attack.seed": Key(parse_seed, 0),
    "sim.fn": Key(str, "sin"),
    "sim.K": Key(int_in(MIN_POINTS, MAX_POINTS), 16),
    "sim.N_list": Key(_distinct(_list(int)), (32, 64, 128, 256)),
    "sim.S_list": Key(_distinct(_list(int)), (0,)),
    "sim.seeds": Key(_distinct(_list(parse_seed)), (0,)),
    "sim.policy": Key(str, "uniform_random"),
    "sim.input_seed": Key(parse_seed, 0),
    "sweep.param": Key(str, MISSING),
    "sweep.values": Key(_distinct(_list(_finite)), MISSING),
    "sweep.seeds": Key(_distinct(_list(parse_seed)), (0, 1, 2, 3, 4)),
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
    """Parse a config file; one that cannot be read as UTF-8 text raises
    ValidationError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ValidationError(f"{path}: cannot read config file: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ValidationError(f"{path}: config file is not UTF-8: {err.reason}") from None
    return parse_config_text(text)


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
    """Parsed, validated access with defaults over the flat key/value map;
    ``read`` keeps each key read so far, parsed and checked once, with its value."""

    def __init__(self, raw: dict):
        self.raw = dict(raw)
        self.read = {}

    def get(self, key):
        if key in self.read:
            return self.read[key]
        spec = KEYS[key]
        if key not in self.raw:
            if spec.default is MISSING:
                raise ValidationError(f"missing required config key {key!r}")
            value = spec.default(self) if callable(spec.default) else spec.default
        else:
            text = self.raw[key]
            try:
                value = spec.parse(text)
            except ValueError as err:
                raise ValidationError(f"config key {key!r}: bad value {text!r} ({err})") from None
        self.read[key] = value
        return value

    def choose(self, key, table):
        """``table[name]`` for the name ``key`` holds; ValidationError unless the table has it."""
        name = self.get(key)
        if name not in table:
            raise ValidationError(f"config key {key!r}: {name!r} is not one of {', '.join(table)}")
        return table[name]

    def spec(self, cls, prefix: str, **given):
        """``cls(**given)`` with every other field read from the key ``prefix + name``."""
        return cls(**given, **{f.name: self.get(prefix + f.name)
                               for f in fields(cls) if f.name not in given})

    # aliases of ``get`` (the key table already fixes the type); nothing in
    # src/ calls them, perfbench/probe.py does
    get_str = get_int = get_float = get
