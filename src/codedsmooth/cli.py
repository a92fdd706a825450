"""Experiment command line: points | train | attack | simulate | sweep.

``points K N`` prints the two Chebyshev point sets. The error-rate
experiment is ``simulate`` with no stragglers (``sim.S_list = 0``).
Every run is deterministic given its config file (seeds live in the config;
--seed overrides). A command reads its keys from a ``Config`` before its
first print or unit of work and returns its output files by name; ``main``
adds the keys it read as ``config.resolved`` and only then creates ``--out``
and writes them all, so a failed run leaves no directory. Re-running from
``config.resolved`` reproduces every output file bit-exactly. An ``--out``
that cannot be a directory is rejected before the command runs.

Exit codes: 0 success, 2 validation error, 3 numeric failure (NaN guard).

Each command imports the modules it runs inside its own function, so a
process loads only those: ``simulate`` loads no ``train``, ``attack``,
``datasets`` or ``models``, and ``attack`` no ``train`` or ``codedsim``.
"""

import argparse
import os
import sys
from dataclasses import fields, replace

from .coded import chebyshev_first, chebyshev_second
from .config import KEYS, Config, dump_config, load_config, parse_seed
from .errors import NumericError, ValidationError

# ---------------------------------------------------------------- points

def cmd_points(cfg: Config, args) -> None:
    k, n = args.K, args.N
    alpha = chebyshev_first(k)
    beta = chebyshev_second(n)
    print(f"alpha (K={k}):")
    for i, v in enumerate(alpha, start=1):
        print(f"  {i:4d}  {v:.12g}")
    print(f"beta (N={n}):")
    for j, v in enumerate(beta, start=1):
        print(f"  {j:4d}  {v:.12g}")


# ---------------------------------------------------------------- train

def _method_desc(method) -> str:
    """The model file's method line: the method's name, then its fields."""
    return " ".join([type(method).__name__.lower()]
                    + [f"{f.name}={getattr(method, f.name):g}" for f in fields(method)])


def _train_plan(cfg: Config):
    from .datasets import DatasetSpec
    from .models import MLPSpec
    from .train import METHODS, TrainPlan
    return cfg.spec(TrainPlan, "train.", dataset=cfg.spec(DatasetSpec, "data."),
                    model=cfg.spec(MLPSpec, "model."),
                    method=cfg.spec(*METHODS[cfg.get("train.method")]))


def cmd_train(cfg: Config, args) -> dict:
    from .modelio import model_bytes
    from .train import train
    plan = _train_plan(cfg)
    model, metrics = train(plan)
    print(f"final test metric: {metrics.final_test_metric:.17g}")
    return {"metrics.csv": metrics.to_csv(),
            "model.bin": model_bytes(model, plan.seed, _method_desc(plan.method))}


# ---------------------------------------------------------------- attack

def cmd_attack(cfg: Config, args) -> dict:
    from . import coded
    from .attack import Clean, FGSMSpec, PGDSpec, RCI, Standard, robust_eval
    from .datasets import KINDS, DatasetSpec, make_dataset
    from .modelio import csv_table, load_model
    model, header = load_model(args.model)
    # echoed from the model file, so a re-run from config.resolved checks it again
    for f in fields(model.spec):
        key, have = f"model.{f.name}", getattr(model.spec, f.name)
        if key in cfg.raw and cfg.get(key) != have:
            raise ValidationError(f"model file has {key} = {have!r}, config has {cfg.read[key]!r}")
        cfg.read[key] = have
    dspec = cfg.spec(DatasetSpec, "data.")
    if KINDS[dspec.kind].task != "classification":
        raise ValidationError(f"data.kind = {dspec.kind}: attack needs a classification task")
    dspec.check_fits(model.spec.widths)
    rci = cfg.spec(RCI, "attack.")
    if rci.k_prime > dspec.n_test:
        raise ValidationError(f"attack.k_prime = {rci.k_prime} exceeds data.n_test = "
                              f"{dspec.n_test}; RCI scores whole K' batches of the test set")

    fgsm, pgd = cfg.spec(FGSMSpec, "attack."), cfg.spec(PGDSpec, "attack.")
    kind, trials = cfg.get("attack.kind"), cfg.get("attack.trials")
    attacks = [a for a in [Clean(), fgsm, pgd] if kind == "all" or a.name.startswith(kind)]
    modes = (Standard(), rci)
    held = coded.get_module(rci.k_prime, rci.n_prime)  # for the whole command: built once for RCI

    data = make_dataset(dspec)
    # both modes score the same rows: the whole K' batches RCI can use
    used = dspec.n_test // rci.k_prime * rci.k_prime
    x, y = data.test_x[:used], data.test_y[:used]
    method = header.get("method", "unknown")
    rows = []
    for attack in attacks:
        # crafted once against the standard pass, then scored under each mode
        x_adv = attack.craft(model, x, y, rci.seed)
        for mode in modes:
            acc = robust_eval(model, x_adv, y, Clean(), mode, trials=trials, seed=rci.seed)
            rows.append((method, mode.name, attack.name, attack.epsilon, attack.steps,
                         mode.n_prime, rci.seed, acc))
            print(f"{attack.name:>6s} | {mode.name:>8s} | accuracy {acc:.4f}")
    return {"results.csv": csv_table("method,inference_mode,attack,epsilon,steps,N_prime,"
                                     "seed,accuracy", rows)}


# ---------------------------------------------------------------- simulate

def cmd_simulate(cfg: Config, args) -> dict:
    import json
    from .codedsim import BENCH_FUNCTIONS, fit_scaling_exponent, sample_inputs, sweep
    from .modelio import csv_table
    fn_name, k, policy = cfg.get("sim.fn"), cfg.get("sim.K"), cfg.get("sim.policy")
    n_list, s_list, seeds = cfg.get("sim.N_list"), cfg.get("sim.S_list"), cfg.get("sim.seeds")

    x = sample_inputs(k, cfg.get("sim.input_seed"))
    rows = sweep(BENCH_FUNCTIONS[fn_name], x, n_list, s_list, seeds, policy)
    try:
        exponent = fit_scaling_exponent(rows)
        print(f"fitted exponent: {exponent:.3f}")
    except ValidationError as err:
        exponent = None
        print(f"fitted exponent: unavailable ({err})")

    summary = {"fn": fn_name, "K": k, "policy": policy,
               "cells": len(n_list) * len(s_list), "runs": len(rows), "exponent": exponent}
    return {"sim_sweep.csv": csv_table("N,S,policy,seed,mse", rows),
            "report.json": json.dumps(summary, indent=2, sort_keys=True) + "\n"}


# ---------------------------------------------------------------- sweep

def _sweep_plan(base, param: str, value: float):
    from .train import Coded
    if param != "batch_size" and not isinstance(base.method, Coded):
        raise ValidationError(f"sweep over {param!r} requires train.method=coded")
    if param in ("batch_size", "N") and value != int(value):
        raise ValidationError(f"sweep.values has {value!r}; sweep.param = {param} "
                              f"takes whole numbers")
    # the plan checks the swept setting, as a float before int(); its message names it
    try:
        if param == "batch_size":
            return replace(replace(base, batch_size=value), batch_size=int(value))
        if param == "N":
            # target final coded-sample count; reached by ramping gamma = N/K
            if value < base.batch_size:
                raise ValidationError(f"N = {value:g} is below train.batch_size = "
                                      f"{base.batch_size}")
            return replace(base, method=replace(base.method, gamma=value / base.batch_size))
        return replace(base, method=replace(base.method, **{param: value}))
    except ValidationError as err:
        raise ValidationError(f"sweep.values has {value!r}: {err}") from None


def _sweep_rows(cells):
    """Train the cells in lockstep; one sweep.csv row per cell, in order."""
    from .train import train
    try:
        # sweep.csv reports the last epoch only, so only it is evaluated
        runs = train([replace(plan, seed=seed) for plan, _, _, seed in cells], every_epoch=False)
    except NumericError as err:
        _, param, value, seed = cells[err.index]
        raise NumericError(f"sweep cell {param} = {value:g}, seed {seed}: {err}") from None
    rows = []
    for (_, param, value, seed), (_, metrics) in zip(cells, runs):
        last = metrics.records[-1]
        rows.append((param, value, seed, last.test_metric, last.loss_main,
                     last.loss_coded, last.n_coded))
    return rows


def cmd_sweep(cfg: Config, args) -> dict:
    from .modelio import csv_table
    param, values, seeds = cfg.get("sweep.param"), cfg.get("sweep.values"), cfg.get("sweep.seeds")
    base = _train_plan(cfg)

    cells = [(_sweep_plan(base, param, v), param, v, s) for v in values for s in seeds]
    workers = min(args.threads, len(cells))
    if workers > 1:
        # imported here, so that no other command loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        # spawned workers load numpy afresh, under the package's BLAS thread
        # count; forked ones would inherit the parent's BLAS thread pool
        rows = [None] * len(cells)
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            # worker i trains cells i, i + workers, ... in lockstep
            groups = pool.map(_sweep_rows, [cells[i::workers] for i in range(workers)])
            for i, group in enumerate(groups):
                rows[i::workers] = group
    else:
        rows = _sweep_rows(cells)

    # rows are in cell order, which is deterministic parameter order
    print(f"sweep over {param}: {len(rows)} cells")
    return {"sweep.csv": csv_table("param,value,seed,test_metric,loss_main,loss_coded,N_final",
                                   rows)}


# ---------------------------------------------------------------- main

# command: (the key --seed overrides, parsed as that key's value, its function); a
# function prints its stdout and returns {file name: str | bytes}, or None when it writes no files
_COMMANDS = {
    "points": (None, cmd_points),
    "train": ("train.seed", cmd_train),
    "attack": ("attack.seed", cmd_attack),
    "simulate": ("sim.input_seed", cmd_simulate),
    "sweep": ("sweep.seeds", cmd_sweep),  # --seed S runs every value at seed S only
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    try:
        return parse_seed(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad value {text!r} ({err})") from None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="codedsmooth",
                                description="coded-smoothing experiments")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (seed_key, _) in _COMMANDS.items():
        sp = sub.add_parser(name)
        if seed_key is None:  # points: prints the point sets, reads no config
            sp.add_argument("K", type=int)
            sp.add_argument("N", type=int)
            sp.set_defaults(config=None, seed=None, out=None)
            continue
        sp.add_argument("--config")
        sp.add_argument("--out", default=f"runs/{name}")
        sp.add_argument("--seed", type=_seed)
        if name == "attack":
            sp.add_argument("--model", required=True)
        if name == "sweep":
            sp.add_argument("--threads", type=_positive_int, default=1,
                            help="processes; process i trains cells i, i + N, ... in lockstep")
    return p


def _check_out(out: str) -> None:
    """ValidationError unless ``out`` is a directory or can be made one."""
    if not out:
        raise ValidationError("--out '' is empty; name an output directory")
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ValidationError(f"--out {out}: {existing} is not a directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        cfg = Config(load_config(args.config) if args.config else {})
        seed_key, command = _COMMANDS[args.command]
        if args.seed is not None:
            cfg.get(seed_key)  # the config's own seed is checked all the same
            cfg.read[seed_key] = KEYS[seed_key].parse(str(args.seed))
        files = command(cfg, args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    if files is not None:
        files["config.resolved"] = dump_config(cfg.read)
        try:
            os.makedirs(args.out, exist_ok=True)
            for name, content in files.items():
                with open(os.path.join(args.out, name), "wb") as fh:
                    fh.write(content if isinstance(content, bytes) else content.encode("utf-8"))
        except OSError as err:
            print(f"error: --out {args.out}: cannot write: {err.strerror}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
