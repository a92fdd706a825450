"""Experiment command line: points | train | attack | simulate | sweep.

``points K N`` prints the two Chebyshev point sets. The error-rate
experiment is ``simulate`` with no stragglers (``sim.S_list = 0``).
Every run is deterministic given its config file (seeds live in the config;
--seed overrides). Each command returns its output files by name; ``main``
adds the fully-resolved configuration as ``config.resolved`` and only then
creates ``--out`` and writes them all, so a failed run leaves no directory.
Re-running from ``config.resolved`` reproduces every output file bit-exactly.

Exit codes: 0 success, 2 validation error, 3 numeric failure (NaN guard).
"""

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from .attack import FGSMSpec, PGDSpec, RCI, Standard, craft, robust_eval
from .coded import chebyshev_first, chebyshev_second
from .codedsim import BENCH_FUNCTIONS, fit_scaling_exponent, sample_inputs, sweep
from .config import KEYS, Config, dump_config, load_config
from .datasets import DatasetSpec, make_dataset, task_of
from .errors import NumericError, ValidationError
from .models import MLPSpec
from .modelio import csv_table, load_model, model_bytes
from .train import Coded, ERM, Mixup, TrainPlan, train

# thread-count variables of the BLAS builds numpy may load, and of OpenMP
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the architecture keys ``attack`` checks against the model file
_ARCH_KEYS = ("model.widths", "model.activation")


def _resolve(cfg: Config, command: str, seed_override=None) -> dict:
    """The value of every key ``command`` reads; also its ``config.resolved``.

    Keys of another train.method are left out, so an echo holds only what
    the run used. ``attack`` also gets the architecture keys the config
    sets, to check them against the model file.
    """
    prefixes, seed_key, _ = _COMMANDS[command]
    resolved = {key: cfg.get(key) for key, spec in KEYS.items()
                if key.startswith(prefixes)
                and (spec.method is None or spec.method == cfg.get("train.method"))}
    if command == "attack":
        resolved.update({key: cfg.get(key) for key in _ARCH_KEYS if key in cfg.raw})
    if seed_override is not None:
        resolved[seed_key] = seed_override
    return resolved


# ---------------------------------------------------------------- points

def cmd_points(r: dict, args) -> None:
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

def _dataset_spec(r: dict) -> DatasetSpec:
    return DatasetSpec(kind=r["data.kind"], n_train=r["data.n_train"],
                       n_test=r["data.n_test"], noise=r["data.noise"],
                       seed=r["data.seed"])


def _method(r: dict):
    name = r["train.method"]
    if name == "mixup":
        return Mixup(alpha=r["train.mixup_alpha"])
    if name == "coded":
        return Coded(mu=r["train.mu"], gamma=r["train.gamma"])
    return ERM()


def _method_desc(method) -> str:
    """The model file's method line: the method's name, then its fields."""
    return " ".join([type(method).__name__.lower()]
                    + [f"{f.name}={getattr(method, f.name):g}" for f in fields(method)])


def _train_plan(r: dict) -> TrainPlan:
    return TrainPlan(
        dataset=_dataset_spec(r),
        model=MLPSpec(widths=r["model.widths"], activation=r["model.activation"]),
        epochs=r["train.epochs"],
        batch_size=r["train.batch_size"],
        lr=r["train.lr"],
        lr_decay_epochs=r["train.lr_decay_epochs"],
        momentum=r["train.momentum"],
        seed=r["train.seed"],
        method=_method(r),
    )


def cmd_train(r: dict, args) -> dict:
    plan = _train_plan(r)
    model, metrics = train(plan)
    print(f"final test metric: {metrics.final_test_metric:.17g}")
    return {"metrics.csv": metrics.to_csv(),
            "model.bin": model_bytes(model, plan.seed, _method_desc(plan.method))}


# ---------------------------------------------------------------- attack

def cmd_attack(r: dict, args) -> dict:
    model, header = load_model(args.model)
    arch = dict(zip(_ARCH_KEYS, (model.spec.widths, model.spec.activation)))
    for key, have in arch.items():
        if r.get(key, have) != have:
            raise ValidationError(f"model file has {key} = {have!r}, config has {r[key]!r}")
    # echoed too, so a re-run from config.resolved checks the model file again
    r.update(arch)
    dspec = _dataset_spec(r)
    if task_of(dspec.kind) != "classification":
        raise ValidationError("attack evaluation needs a classification dataset")
    if r["attack.k_prime"] > dspec.n_test:
        raise ValidationError(f"attack.k_prime = {r['attack.k_prime']} exceeds data.n_test = "
                              f"{dspec.n_test}; RCI scores whole K' batches of the test set")
    data = make_dataset(dspec)
    # both modes score the same rows: the whole K' batches RCI can use
    used = dspec.n_test // r["attack.k_prime"] * r["attack.k_prime"]
    x, y = data.test_x[:used], data.test_y[:used]

    seed, epsilon, steps = r["attack.seed"], r["attack.epsilon"], r["attack.steps"]
    n_prime, kind = r["attack.n_prime"], r["attack.kind"]
    attacks = [("none", None),
               ("fgsm", FGSMSpec(epsilon=epsilon)),
               (f"pgd{steps}", PGDSpec(epsilon=epsilon, steps=steps,
                                       step_size=r["attack.step_size"],
                                       random_start=r["attack.random_start"]))]
    if kind != "all":
        attacks = [(nm, a) for nm, a in attacks if nm.startswith(kind)]
    modes = [("standard", Standard()),
             ("rci", RCI(n_prime=n_prime, k_prime=r["attack.k_prime"], seed=seed))]

    method = header.get("method", "unknown")
    rows = []
    for attack_name, attack in attacks:
        # crafted once against the standard pass, then scored under each mode
        x_adv = craft(model, x, y, attack, seed)
        n_steps = steps if attack_name.startswith("pgd") else (1 if attack_name == "fgsm" else 0)
        eps_out = 0.0 if attack is None else epsilon
        for mode_name, mode in modes:
            acc = robust_eval(model, x_adv, y, None, mode, trials=r["attack.trials"], seed=seed)
            npr = n_prime if mode_name == "rci" else 0
            rows.append((method, mode_name, attack_name, eps_out, n_steps, npr, seed, acc))
            print(f"{attack_name:>6s} | {mode_name:>8s} | accuracy {acc:.4f}")
    return {"results.csv": csv_table("method,inference_mode,attack,epsilon,steps,N_prime,"
                                     "seed,accuracy", rows)}


# ---------------------------------------------------------------- simulate

def cmd_simulate(r: dict, args) -> dict:
    fn_name, k, policy = r["sim.fn"], r["sim.K"], r["sim.policy"]
    n_list, s_list = r["sim.N_list"], r["sim.S_list"]

    f = BENCH_FUNCTIONS[fn_name]
    x = sample_inputs(k, r["sim.input_seed"])
    report = sweep(f, x, n_list, s_list, r["sim.seeds"], policy)
    try:
        exponent = fit_scaling_exponent(report)
        print(f"fitted exponent: {exponent:.3f}")
    except ValidationError as err:
        exponent = None
        print(f"fitted exponent: unavailable ({err})")

    summary = {"fn": fn_name, "K": k, "policy": policy,
               "cells": len(report.cell_means()), "runs": len(report.rows),
               "exponent": exponent}
    return {"sim_sweep.csv": report.to_csv(),
            "report.json": json.dumps(summary, indent=2, sort_keys=True) + "\n"}


# ---------------------------------------------------------------- sweep

def _sweep_plan(base: TrainPlan, param: str, value: float) -> TrainPlan:
    if param in ("batch_size", "N") and value != int(value):
        raise ValidationError(f"sweep.values has {value!r}; sweep.param = {param} "
                              f"takes whole numbers")
    if param == "batch_size":
        return replace(base, batch_size=int(value))
    if not isinstance(base.method, Coded):
        raise ValidationError(f"sweep over {param!r} requires train.method=coded")
    if param == "N":
        # target final coded-sample count; reached by ramping gamma = N/K
        n_target = int(value)
        if n_target < base.batch_size:
            raise ValidationError(f"N={n_target} below batch size {base.batch_size}")
        param, value = "gamma", n_target / base.batch_size
    return replace(base, method=replace(base.method, **{param: value}))


def _sweep_cell(args):
    plan, param, value, seed = args
    # sweep.csv reports the last epoch only, so only it is evaluated
    _, metrics = train(replace(plan, seed=seed), every_epoch=False)
    last = metrics.records[-1]
    return (param, value, seed, last.test_metric, last.loss_main,
            last.loss_coded, last.n_coded)


def cmd_sweep(r: dict, args) -> dict:
    param, threads = r["sweep.param"], args.threads
    base = _train_plan(r)

    cells = [(_sweep_plan(base, param, v), param, v, s)
             for v in r["sweep.values"] for s in r["sweep.seeds"]]
    if threads > 1:
        # imported here, so that no other command loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        # spawned workers load numpy afresh with one BLAS thread each; forked
        # ones inherit a multithreaded BLAS and oversubscribe the cores
        saved = {var: os.environ.pop(var) for var in _BLAS_THREAD_VARS if var in os.environ}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            with ProcessPoolExecutor(threads, mp_context=get_context("spawn")) as pool:
                rows = list(pool.map(_sweep_cell, cells))
        finally:
            for var in _BLAS_THREAD_VARS:
                del os.environ[var]
            os.environ.update(saved)
    else:
        rows = [_sweep_cell(c) for c in cells]

    # rows come back in cell order, which is deterministic parameter order
    print(f"sweep over {param}: {len(rows)} cells")
    return {"sweep.csv": csv_table("param,value,seed,test_metric,loss_main,loss_coded,N_final",
                                   rows)}


# ---------------------------------------------------------------- main

# command: (key prefixes it reads, the key --seed overrides, its function);
# a function prints its stdout and returns {file name: str | bytes}, or None
# when it writes no files
_COMMANDS = {
    "points": ((), None, cmd_points),
    "train": (("data.", "model.", "train."), "train.seed", cmd_train),
    "attack": (("data.", "attack."), "attack.seed", cmd_attack),
    "simulate": (("sim.",), "sim.input_seed", cmd_simulate),
    "sweep": (("data.", "model.", "train.", "sweep."), "train.seed", cmd_sweep),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="codedsmooth",
                                description="coded-smoothing experiments")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, seed_key, _) in _COMMANDS.items():
        sp = sub.add_parser(name)
        if seed_key is None:  # points: prints the point sets, reads no config
            sp.add_argument("K", type=int)
            sp.add_argument("N", type=int)
            sp.set_defaults(config=None, seed=None)
            continue
        sp.add_argument("--config")
        sp.add_argument("--out", default=f"runs/{name}")
        sp.add_argument("--seed", type=int)
        if name == "attack":
            sp.add_argument("--model", required=True)
        if name == "sweep":
            sp.add_argument("--threads", type=int, default=1)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = Config(load_config(args.config) if args.config else {})
        r = _resolve(cfg, args.command, args.seed)
        files = _COMMANDS[args.command][2](r, args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    if files is not None:
        files["config.resolved"] = dump_config(r)
        os.makedirs(args.out, exist_ok=True)
        for name, content in files.items():
            with open(os.path.join(args.out, name), "wb") as fh:
                fh.write(content if isinstance(content, bytes) else content.encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
