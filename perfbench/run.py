#!/usr/bin/env python3
"""Benchmark of the codedsmooth CLI: three workloads, closed loop, one client.

    python3 perfbench/run.py --workload sweep_mu --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from ``./src``;
nothing is installed and no BLAS or OMP thread variable is set (their
values are recorded). Inputs come from generated configs: the workload
seed goes into every seed key, and seed 0 gives the canonical configs.

``--trace 0`` times fresh ``python -m codedsmooth`` processes back to back
for ``--seconds`` and prints the end-to-end metrics. ``--trace 1`` runs the
same command in-process, alternately untraced and traced (tracer.py), and
prints the per-layer metrics and the tracing overhead. Both modes check
every output (checks.py); the last stdout line is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

import checks
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
PROBES = 7              # set-up probes per run; setup_s is their median
IMPORT_PROBES = 3       # probes for cli.import_s in a traced run
MIN_COMMANDS = 3        # timed commands per run, however short --seconds is
MIN_TRACED = 2          # untraced/traced pairs per traced run
STOP_STARTING_S = 120   # no new command after this much of a run
COMMAND_TIMEOUT_S = 50
THREADS = 2             # the machine has 2 cores; never more workers


# ---------------------------------------------------------------- processes

@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    cpu_s: float


class Runner:
    """Starts one child at a time from the checkout root and waits for it."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self._count = 0

    def new_dir(self, tag):
        self._count += 1
        path = os.path.join(self.work, f"{tag}{self._count}")
        os.makedirs(path)
        return path

    def python(self, argv):
        """Run ``python argv``; wall time and the peak RSS of it or any child.

        ``os.wait4`` gives the rusage of this child alone (including the
        children it reaped), unlike RUSAGE_CHILDREN, which is a running
        maximum over every child of this process.
        """
        log = os.path.join(self.work, f"log{self._count}")
        self._count += 1
        with open(log, "w+b") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read().decode("utf-8", "replace")
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, text,
                    usage.ru_utime + usage.ru_stime)

    def cli(self, args):
        return self.python(["-m", "codedsmooth"] + args)

    def inproc(self, args, trace):
        """cli.main in a fresh process: (Proc, result dict or None)."""
        result = os.path.join(self.work, f"inproc{self._count}.json")
        argv = [os.path.join(HERE, "inproc.py"), "--result", result]
        proc = self.python(argv + (["--trace"] if trace else []) + ["--"] + args)
        if proc.code != 0 or not os.path.exists(result):
            return proc, None
        with open(result, encoding="utf-8") as fh:
            return proc, json.load(fh)


# ---------------------------------------------------------------- workloads

def write_config(runner, canonical, name, overrides):
    """Canonical config with ``overrides`` applied (None drops a key)."""
    with open(os.path.join(runner.root, "configs", canonical), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out, seen = [], set()
    for line in lines:
        key = line.split("=", 1)[0].strip() if "=" in line and not line.startswith("#") else None
        if key in overrides:
            seen.add(key)
            if overrides[key] is not None:
                out.append(f"{key} = {overrides[key]}")
        else:
            out.append(line)
    out += [f"{k} = {v}" for k, v in overrides.items() if k not in seen and v is not None]
    path = os.path.join(runner.work, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
    return path


def read_config(path):
    conf = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, eq, value = line.split("#", 1)[0].partition("=")
            if eq:
                conf[key.strip()] = value.strip()
    return conf


def ints(text):
    return [int(p) for p in text.split(",")]


@dataclass
class Workload:
    name: str
    item: str                 # what work_per_s counts
    items: int                # per command
    command: list             # CLI arguments, without --out
    contract: str             # contract file the command writes
    check: object             # text -> problems
    probe: list               # probe.py arguments
    threaded: list = None     # sweep only: the same sweep with --threads
    verify: object = None     # (runner, contract text) -> problems of each extra run


# Four cells, two plain-training (mu=0) and two coded (mu=0.5), on the
# canonical 100-epoch plan. The timed command is the serial sweep: at this
# commit `--threads 2` oversubscribes the cores and its wall time is
# bimodal from one command to the next, so it is measured in the traced run
# (cli.sweep.*), where nothing is bounded.
SWEEP_VALUES = (0.0, 0.5)


def prepare_sweep_mu(runner, seed):
    seeds = (2 * seed, 2 * seed + 1)
    cfg = write_config(runner, "sweep_mu.cfg", "sweep.cfg", {
        "data.seed": seed, "train.seed": 2 * seed,
        "sweep.values": ",".join(f"{v:g}" for v in SWEEP_VALUES),
        "sweep.seeds": ",".join(str(s) for s in seeds)})
    conf = read_config(cfg)
    k = int(conf["train.batch_size"])
    n_final = int(round(float(conf["train.gamma"]) * k))

    def verify(runner, sweep_text):
        """One plain ERM run per sweep seed; problems of each."""
        results = []
        for s in seeds:
            erm = write_config(runner, "sweep_mu.cfg", f"erm{s}.cfg", {
                "data.seed": seed, "train.seed": s, "train.method": "erm",
                "train.mu": None, "train.gamma": None,
                "sweep.param": None, "sweep.values": None, "sweep.seeds": None})
            out = runner.new_dir("erm")
            proc = runner.cli(["train", "--config", erm, "--out", out])
            row = None
            if proc.code == 0:
                with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as fh:
                    row = checks.final_metrics_row(fh.read())
            results.append(checks.run_check(checks.check_erm_match, sweep_text, s, row))
        return results

    command = ["sweep", "--config", cfg]
    return Workload(
        name="sweep_mu", item="cells", items=len(SWEEP_VALUES) * len(seeds),
        command=command, contract="sweep.csv",
        check=lambda text: checks.run_check(checks.check_sweep, text, SWEEP_VALUES,
                                            seeds, n_final, k),
        probe=["--config", cfg], threaded=command + ["--threads", str(THREADS)],
        verify=verify)


def prepare_attack_rci(runner, seed):
    train_cfg = write_config(runner, "train_coded_moons.cfg", "train.cfg",
                             {"data.seed": seed, "train.seed": seed})
    model_dir = runner.new_dir("model")
    # the model is trained once per benchmark run, untimed
    proc = runner.cli(["train", "--config", train_cfg, "--out", model_dir])
    if proc.code != 0:
        raise RuntimeError(f"training the attack model failed:\n{proc.stdout}")
    model = os.path.join(model_dir, "model.bin")
    cfg = write_config(runner, "attack_moons.cfg", "attack.cfg",
                       {"data.seed": seed, "attack.seed": seed})
    conf = read_config(cfg)
    if conf.get("attack.kind", "all") != "all":
        raise RuntimeError("attack_rci expects attack.kind = all")
    n_test, k_prime = int(conf["data.n_test"]), int(conf["attack.k_prime"])
    trials, n_prime = int(conf["attack.trials"]), int(conf["attack.n_prime"])
    # per attack: n_test rows under standard inference, plus the K'-multiple
    # of rows RCI uses, once per trial
    rows = 3 * (n_test + trials * (n_test // k_prime) * k_prime)
    return Workload(
        name="attack_rci", item="scored rows", items=rows,
        command=["attack", "--config", cfg, "--model", model], contract="results.csv",
        check=lambda text: checks.run_check(checks.check_results, text, n_prime),
        probe=["--config", cfg, "--model", model])


def prepare_straggler_sim(runner, seed):
    drop_seeds = [10 * seed + i for i in range(10)]
    cfg = write_config(runner, "simulate_stragglers.cfg", "sim.cfg", {
        "sim.input_seed": seed, "sim.seeds": ",".join(str(s) for s in drop_seeds)})
    conf = read_config(cfg)
    n_list, s_list = ints(conf["sim.N_list"]), ints(conf["sim.S_list"])
    policy = conf.get("sim.policy", "uniform_random")
    return Workload(
        name="straggler_sim", item="coded jobs",
        items=len(n_list) * len(s_list) * len(drop_seeds),
        command=["simulate", "--config", cfg], contract="sim_sweep.csv",
        check=lambda text: checks.run_check(checks.check_sim, text, int(conf["sim.K"]),
                                            n_list, s_list, drop_seeds, policy),
        probe=["--config", cfg])


PREPARE = {"sweep_mu": prepare_sweep_mu, "attack_rci": prepare_attack_rci,
           "straggler_sim": prepare_straggler_sim}
ITEM_METRIC = {"sweep_mu": "cells_per_s", "attack_rci": "scored_rows_per_s",
               "straggler_sim": "coded_jobs_per_s"}


# ---------------------------------------------------------------- runs

class Tally:
    """Runs attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None   # contract text of the first good command

    def add(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems[:3]]

    def output(self, what, wl, code, log, out_dir):
        """Check one command's exit code and contract file."""
        path = os.path.join(out_dir, wl.contract)
        if code != 0 or not os.path.exists(path):
            tail = log.strip().splitlines()[-1:] or [""]
            self.add(what, [f"exit {code}, no {wl.contract}: {tail[0]}"])
            return
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        problems = wl.check(text)
        if self.reference is None and not problems:
            self.reference = text
        elif self.reference is not None and text != self.reference:
            problems = problems + [f"{wl.contract} differs from the first run's"]
        self.add(what, problems)


def probe_setup(runner, wl, tally, count):
    """Wall times (and import times) of fresh set-up probes."""
    walls, imports = [], []
    for _ in range(count):
        proc = runner.python([os.path.join(HERE, "probe.py")] + wl.probe)
        tally.add("setup probe", [] if proc.code == 0 else [proc.stdout[-300:]])
        if proc.code == 0:
            walls.append(proc.wall_s)
            imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


def verify(runner, wl, tally):
    if wl.verify is not None and tally.reference is not None:
        for problems in wl.verify(runner, tally.reference):
            tally.add("verification", problems)


def timed_run(runner, wl, seconds, tally):
    setup, _ = probe_setup(runner, wl, tally, PROBES)
    walls, rss, cpu = [], [], []
    steal0 = steal_s()
    start = time.perf_counter()
    while (len(walls) < MIN_COMMANDS or time.perf_counter() - start < seconds) \
            and time.perf_counter() - start < STOP_STARTING_S:
        out = runner.new_dir("cmd")
        proc = runner.cli(wl.command + ["--out", out])
        tally.output("command", wl, proc.code, proc.stdout, out)
        walls.append(proc.wall_s)
        rss.append(proc.rss_mb)
        cpu.append(proc.cpu_s)
        shutil.rmtree(out)
    steal = steal_s() - steal0
    verify(runner, wl, tally)
    median = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
        "work_per_s": (wl.items / median, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [median] * 3
    notes = {
        "commands": len(walls),
        "command_s (median, quartiles)": f"{median:.4f} ({q[0]:.4f}, {q[2]:.4f})",
        ITEM_METRIC[wl.name]: f"{wl.items / median:.6g} ({wl.items} {wl.item} per command)",
        "setup probes": len(setup),
        "cpu_s per command (median)": f"{statistics.median(cpu):.4f}",
        "steal s during commands": f"{steal:.2f}",
    }
    return metrics, notes


def traced_run(runner, wl, seconds, tally):
    _, imports = probe_setup(runner, wl, tally, IMPORT_PROBES)
    plain, traced, layers, threaded = [], [], [], []
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED or time.perf_counter() - start < seconds) \
            and time.perf_counter() - start < STOP_STARTING_S:
        # alternate which side runs first, so order effects cancel
        for trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            out = runner.new_dir("inproc")
            proc, result = runner.inproc(wl.command + ["--out", out], trace)
            code = result["exit"] if result else proc.code
            tally.output("traced run" if trace else "in-process run", wl, code, proc.stdout, out)
            if result and result["exit"] == 0:
                (traced if trace else plain).append(result["wall_s"])
                if trace:
                    layers.append(result["metrics"])
            shutil.rmtree(out)
        if wl.threaded:
            out = runner.new_dir("threaded")
            proc = runner.cli(wl.threaded + ["--out", out])
            # the threaded sweep must equal the serial one (ROADMAP invariant)
            tally.output("threaded sweep", wl, proc.code, proc.stdout, out)
            threaded.append(proc.wall_s)
            shutil.rmtree(out)
    verify(runner, wl, tally)
    if not layers:
        return {}, {}
    if not tracing.counts_repeat(layers):
        tally.add("trace counts", ["counts differ between traced runs"])
    values = tracing.combine(layers)
    values["cli.import_s"] = statistics.median(imports) if imports else float("nan")
    values["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0
                                     if plain else float("nan"))
    if threaded:
        wall = statistics.median(threaded)
        values["cli.sweep.parallel_efficiency"] = values["train.cell_s_sum"] / (THREADS * wall)
        values["cli.sweep.threads2_cells_per_s"] = wl.items / wall
    else:
        values["cli.sweep.parallel_efficiency"] = 0.0
        values["cli.sweep.threads2_cells_per_s"] = 0.0
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    notes = {"traced runs": len(traced), "untraced in-process runs": len(plain),
             "threaded sweeps": len(threaded),
             "traced wall s (median)": f"{statistics.median(traced):.4f}",
             "untraced wall s (median)": f"{statistics.median(plain):.4f}" if plain else "-"}
    return metrics, notes


# ---------------------------------------------------------------- machine

def steal_s():
    """CPU time the hypervisor gave to others, summed over CPUs (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def machine(root):
    """What the numbers were measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '')})".strip(),
        **{var: os.environ.get(var, "unset")
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


# ---------------------------------------------------------------- main

with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PREPARE))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join("src", "codedsmooth", "cli.py"), "configs"]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from the root of a "
              f"codedsmooth checkout", file=sys.stderr)
        return 2

    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base)
    tally = Tally()
    try:
        runner = Runner(root, work)
        wl = PREPARE[args.workload](runner, args.seed)
        run = traced_run if args.trace else timed_run
        metrics, notes = run(runner, wl, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still has its directory there

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {tally.failed}/{tally.attempted}")
    for problem in tally.problems[:10]:
        print(f"  FAILED {problem}")
    print("machine " + json.dumps(machine(root), sort_keys=True))
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": max(tally.attempted, 1), "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
