"""Experiment command line: points | lemma1 | train | attack | simulate | sweep.

Every run is deterministic given its config file (seeds live in the config;
--seed overrides). Each command echoes the fully-resolved configuration into
the output directory as ``config.resolved``; re-running from that file
reproduces every CSV bit-exactly and every SVG byte-exactly.

Exit codes: 0 success, 2 validation error, 3 numeric failure (NaN guard).
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

from .attack import FGSMSpec, PGDSpec, RCI, Standard, robust_eval
from .coded import chebyshev_first, chebyshev_second, get_module
from .codedsim import BENCH_FUNCTIONS, fit_scaling_exponent, sample_inputs, sweep
from .config import KEYS, Config, dump_config, load_config
from .datasets import DatasetSpec, make_dataset, task_of
from .errors import NumericError, ValidationError
from .models import MLPSpec
from .modelio import load_model, save_model
from .svgplot import line_plot_svg
from .train import Coded, ERM, Mixup, TrainPlan, train

_EXACT_FLOOR = 1e-18

# thread-count variables of the BLAS builds numpy may load, and of OpenMP
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# command: (key prefixes it reads, the key --seed overrides)
_COMMANDS = {
    "lemma1": (("lemma1.",), "lemma1.seed"),
    "train": (("data.", "model.", "train."), "train.seed"),
    "attack": (("data.", "attack."), "attack.seed"),
    "simulate": (("sim.",), "sim.input_seed"),
    "sweep": (("data.", "model.", "train.", "sweep."), "train.seed"),
}


def _ensure_out(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _write(out_dir, name, text):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _load_cfg(path) -> Config:
    return Config(load_config(path) if path else {})


def _resolve(cfg: Config, command: str, seed_override=None) -> dict:
    """The value of every key ``command`` reads; also its ``config.resolved``.

    Keys of another train.method are left out, so an echo holds only what
    the run used.
    """
    prefixes, seed_key = _COMMANDS[command]
    resolved = {key: cfg.get(key) for key, spec in KEYS.items()
                if key.startswith(prefixes)
                and (spec.method is None or spec.method == cfg.get("train.method"))}
    if seed_override is not None:
        resolved[seed_key] = seed_override
    return resolved


# ---------------------------------------------------------------- points

def cmd_points(k: int, n: int, stream=None) -> None:
    stream = stream or sys.stdout
    alpha = chebyshev_first(k)
    beta = chebyshev_second(n)
    stream.write(f"alpha (K={k}):\n")
    for i, v in enumerate(alpha, start=1):
        stream.write(f"  {i:4d}  {v:.12g}\n")
    stream.write(f"beta (N={n}):\n")
    for j, v in enumerate(beta, start=1):
        stream.write(f"  {j:4d}  {v:.12g}\n")


# ---------------------------------------------------------------- lemma1

def cmd_lemma1(cfg: Config, out_dir, seed_override=None) -> dict:
    r = _resolve(cfg, "lemma1", seed_override)
    k, n_list, fn_name = r["lemma1.K"], r["lemma1.N_list"], r["lemma1.fn"]

    f = BENCH_FUNCTIONS[fn_name]
    x = sample_inputs(k, r["lemma1.seed"])
    mses = [get_module(k, n).estimate_mse(x, f) for n in n_list]

    _ensure_out(out_dir)
    csv = "N,mse\n" + "".join(f"{n},{m:.17g}\n" for n, m in zip(n_list, mses))
    _write(out_dir, "lemma1.csv", csv)
    if max(mses) < _EXACT_FLOOR or any(m <= 0.0 for m in mses):
        slope = None
        print("fitted slope: exact (all MSE at rounding floor)")
    else:
        slope = float(np.polyfit(np.log2(n_list), np.log2(mses), 1)[0])
        print(f"fitted slope: {slope:.3f}")
        svg = line_plot_svg([(f"{fn_name}", n_list, mses)],
                            xlabel="coded samples N", ylabel="MSE",
                            title="estimate error vs N", loglog=True)
        _write(out_dir, "lemma1.svg", svg)
    _write(out_dir, "config.resolved", dump_config(r))
    return {"mses": mses, "slope": slope}


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
        return Coded(mu=r["train.mu"], gamma=r["train.gamma"],
                     n_schedule=r["train.n_schedule"])
    return ERM()


def _method_desc(method) -> str:
    if isinstance(method, ERM):
        return "erm"
    if isinstance(method, Mixup):
        return f"mixup alpha={method.alpha:g}"
    return f"coded mu={method.mu:g} gamma={method.gamma:g} schedule={method.n_schedule}"


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


def cmd_train(cfg: Config, out_dir, seed_override=None) -> dict:
    r = _resolve(cfg, "train", seed_override)
    plan = _train_plan(r)
    model, metrics = train(plan)
    _ensure_out(out_dir)
    _write(out_dir, "metrics.csv", metrics.to_csv())
    save_model(os.path.join(out_dir, "model.bin"), model, plan.seed,
               _method_desc(plan.method))
    _write(out_dir, "config.resolved", dump_config(r))
    print(f"final test metric: {metrics.final_test_metric:.17g}")
    return {"model": model, "metrics": metrics, "plan": plan}


# ---------------------------------------------------------------- attack

def cmd_attack(cfg: Config, model_path, out_dir, seed_override=None) -> dict:
    model, header = load_model(model_path)
    # echoed too, so a re-run from config.resolved checks the model file again
    arch = {"model.widths": model.spec.widths, "model.activation": model.spec.activation}
    for key, have in arch.items():
        if key in cfg.raw and cfg.get(key) != have:
            raise ValidationError(f"model file has {key} = {have!r}, "
                                  f"config has {cfg.get(key)!r}")

    r = {**_resolve(cfg, "attack", seed_override), **arch}
    dspec = _dataset_spec(r)
    if task_of(dspec.kind) != "classification":
        raise ValidationError("attack evaluation needs a classification dataset")
    data = make_dataset(dspec)

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
    rows = ["method,inference_mode,attack,epsilon,steps,N_prime,seed,accuracy\n"]
    results = {}
    for attack_name, attack in attacks:
        for mode_name, mode in modes:
            acc = robust_eval(model, data.test_x, data.test_y, attack, mode,
                              trials=r["attack.trials"], seed=seed)
            results[(attack_name, mode_name)] = acc
            n_steps = steps if attack_name.startswith("pgd") else (1 if attack_name == "fgsm" else 0)
            eps_out = 0.0 if attack is None else epsilon
            npr = n_prime if mode_name == "rci" else 0
            rows.append(f"{method},{mode_name},{attack_name},{eps_out:.17g},"
                        f"{n_steps},{npr},{seed},{acc:.17g}\n")
            print(f"{attack_name:>6s} | {mode_name:>8s} | accuracy {acc:.4f}")

    _ensure_out(out_dir)
    _write(out_dir, "results.csv", "".join(rows))
    _write(out_dir, "config.resolved", dump_config(r))
    return {"results": results, "model": model}


# ---------------------------------------------------------------- simulate

def cmd_simulate(cfg: Config, out_dir, seed_override=None) -> dict:
    r = _resolve(cfg, "simulate", seed_override)
    fn_name, k, policy = r["sim.fn"], r["sim.K"], r["sim.policy"]
    n_list, s_list = r["sim.N_list"], r["sim.S_list"]

    f = BENCH_FUNCTIONS[fn_name]
    x = sample_inputs(k, r["sim.input_seed"])
    report = sweep(f, x, n_list, s_list, r["sim.seeds"], policy)

    _ensure_out(out_dir)
    _write(out_dir, "sim_sweep.csv", report.to_csv())
    means = report.cell_means()
    try:
        exponent = fit_scaling_exponent(report)
        print(f"fitted exponent: {exponent:.3f}")
    except ValidationError as err:
        exponent = None
        print(f"fitted exponent: unavailable ({err})")

    positive = all(m > 0 for m in means.values())
    if positive and len(n_list) > 1:
        series = []
        for s in s_list:
            series.append((f"S={s}", list(n_list), [means[(n, s)] for n in n_list]))
        svg = line_plot_svg(series, xlabel="workers N", ylabel="mean MSE",
                            title=f"straggler sweep ({fn_name})", loglog=True)
        _write(out_dir, "sim_sweep.svg", svg)

    summary = {"fn": fn_name, "K": k, "policy": policy,
               "cells": len(means), "runs": len(report.rows),
               "exponent": exponent}
    _write(out_dir, "report.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write(out_dir, "config.resolved", dump_config(r))
    return {"report": report, "exponent": exponent}


# ---------------------------------------------------------------- sweep

def _sweep_plan(base: TrainPlan, param: str, value: float) -> TrainPlan:
    method = base.method
    if param in ("mu", "gamma", "N") and not isinstance(method, Coded):
        raise ValidationError(f"sweep over {param!r} requires train.method=coded")
    if param == "mu":
        return replace(base, method=Coded(mu=value, gamma=method.gamma,
                                          n_schedule=method.n_schedule))
    if param == "gamma":
        return replace(base, method=Coded(mu=method.mu, gamma=value,
                                          n_schedule=method.n_schedule))
    if param == "N":
        # target final coded-sample count; reached by ramping gamma = N/K
        n_target = int(round(value))
        if n_target < base.batch_size:
            raise ValidationError(f"N={n_target} below batch size {base.batch_size}")
        return replace(base, method=Coded(mu=method.mu,
                                          gamma=n_target / base.batch_size,
                                          n_schedule="linear_ramp"))
    return replace(base, batch_size=int(round(value)))  # param == "batch_size"


def _sweep_cell(args):
    plan, param, value, seed = args
    cell_plan = replace(plan, seed=seed)
    _, metrics = train(cell_plan)
    last = metrics.records[-1]
    return (param, value, seed, last.test_metric, last.loss_main,
            last.loss_coded, last.n_coded)


def cmd_sweep(cfg: Config, out_dir, threads: int = 1, seed_override=None) -> dict:
    r = _resolve(cfg, "sweep", seed_override)
    param = r["sweep.param"]
    base = _train_plan(r)

    cells = [(_sweep_plan(base, param, v), param, v, s)
             for v in r["sweep.values"] for s in r["sweep.seeds"]]
    if threads > 1:
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

    # merge in deterministic parameter order (already generated in order)
    out = ["param,value,seed,test_metric,loss_main,loss_coded,N_final\n"]
    for param_name, value, seed, metric, lm, lc, nf in rows:
        out.append(f"{param_name},{value:.17g},{seed},{metric:.17g},"
                   f"{lm:.17g},{lc:.17g},{nf}\n")
    _ensure_out(out_dir)
    _write(out_dir, "sweep.csv", "".join(out))
    _write(out_dir, "config.resolved", dump_config(r))
    print(f"sweep over {param}: {len(rows)} cells")
    return {"rows": rows}


# ---------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="codedsmooth",
                                description="coded-smoothing experiments")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("points", help="print encoding/decoding point sets")
    sp.add_argument("K", type=int, nargs="?")
    sp.add_argument("N", type=int, nargs="?")
    sp.add_argument("--config")

    for name in ("lemma1", "train", "simulate", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int)
        if name == "sweep":
            sp.add_argument("--threads", type=int, default=1)

    sp = sub.add_parser("attack")
    sp.add_argument("--config")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out")
    sp.add_argument("--seed", type=int)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_cfg(args.config)
        if args.command == "points":
            k = args.K if args.K is not None else cfg.get("points.K")
            n = args.N if args.N is not None else cfg.get("points.N")
            if k is None or n is None:
                raise ValidationError("points: K and N required (args or config)")
            cmd_points(k, n)
        elif args.command == "lemma1":
            cmd_lemma1(cfg, args.out or "runs/lemma1", args.seed)
        elif args.command == "train":
            cmd_train(cfg, args.out or "runs/train", args.seed)
        elif args.command == "attack":
            cmd_attack(cfg, args.model, args.out or "runs/attack", args.seed)
        elif args.command == "simulate":
            cmd_simulate(cfg, args.out or "runs/simulate", args.seed)
        elif args.command == "sweep":
            cmd_sweep(cfg, args.out or "runs/sweep", args.threads, args.seed)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
