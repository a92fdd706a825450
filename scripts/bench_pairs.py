#!/usr/bin/env python3
"""Paired benchmark of two checkouts: what a change does to each end-to-end metric.

    python3 scripts/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS [--seed S] [--json PATH]

PARENT and CHANGE are the roots of two checkouts. Each pair runs
``perfbench/run.py --workload WORKLOAD --seed S --trace 0`` once in each
checkout, from that checkout's root and with its own run length; the side
that runs first alternates from pair to pair. For every end-to-end metric
of the parent's BENCHMARK.json it prints both sides' medians and quartiles,
the pairs the change won (ties count for neither side) and a verdict:

- ``gain``: at least ``MIN_GAIN_PAIRS`` (10) pairs ran, the change won at
  least nine tenths of them and its median is better by more than the
  parent's interquartile range and by more than ``GAIN_FLOOR`` (a tenth)
  of the metric's bound: 2.5% for a bound of 0.25, 1% for 0.1. Without the
  floor a parent whose runs all read the same value (``ru_maxrss`` pages)
  has a range of 0, and a 0.05% move would pass;
- ``unresolved (fewer than 10 pairs)``: the same result from fewer pairs; a
  noisy box can give five one-sided pairs for a change that alters no
  arithmetic;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: neither, and the parent's interquartile range is wider
  than the bound, unless every change run reads better than every parent run;
- ``within bound``: otherwise.

It also prints each side's CPU seconds per command, which each run's notes
report (``cpu_s per command (median)``), with medians, quartiles and the
change's wins but no verdict: on short commands machine load moves the wall
time a good deal more than the CPU time.

With ``--json PATH`` it also writes the workload, the seed, both checkouts'
commits (``-dirty`` when a checkout has uncommitted changes) and, per
metric, each side's runs, median and quartiles, the wins and the verdict,
and the CPU time as ``cpu_s_per_command``.

Peak RSS depends on the lengths of the paths the benchmark hands the
program, so the script warns when the two checkout paths differ in length.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# fewest pairs a gain verdict rests on
MIN_GAIN_PAIRS = 10
# least gain, as a fraction of the metric's bound, a gain verdict rests on
GAIN_FLOOR = 0.1
# the note of a timed run that reports its commands' CPU time
CPU_NOTE = "cpu_s per command (median):"


def cpu_s(stdout):
    """The median CPU seconds per command that a run's notes report, or None."""
    for line in stdout.splitlines():
        if line.strip().startswith(CPU_NOTE):
            return float(line.split(":", 1)[1])
    return None


def run_once(root, workload, seed):
    """Metrics of one untraced benchmark run in the checkout at ``root``, with
    its CPU seconds per command as ``cpu_s_per_command``."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit {proc.returncode}\n"
                           f"{proc.stdout[-500:]}{proc.stderr[-500:]}")
    return dict(json.loads(lines[-1]), cpu_s_per_command=cpu_s(proc.stdout))


def commit_of(root):
    """The checkout's commit, suffixed ``-dirty`` when it has uncommitted changes."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values):
    q1, q3 = quartiles(values)
    return {"runs": values, "median": statistics.median(values), "quartiles": [q1, q3]}


def wins_of(parent, change, higher_better):
    """The pairs the change won; parent and change hold run i of pair i."""
    sign = 1.0 if higher_better else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent, change, higher_better, bound):
    """The paired rule for one metric: parent and change hold run i of pair i."""
    sign = 1.0 if higher_better else -1.0
    wins = wins_of(parent, change, higher_better)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (c_med - p_med)
    if wins >= 0.9 * len(parent) and gain > max(q3 - q1, GAIN_FLOOR * bound * abs(p_med)):
        if len(parent) < MIN_GAIN_PAIRS:
            return wins, f"unresolved (fewer than {MIN_GAIN_PAIRS} pairs)"
        return wins, "gain"
    if -gain > bound * abs(p_med):
        return wins, "worse"
    all_better = (min(change) > max(parent)) if higher_better else (max(change) < min(parent))
    if q3 - q1 > bound * abs(p_med) and not all_better:
        return wins, "unresolved"
    return wins, "within bound"


def describe(sides):
    """Both sides' medians and quartiles, as one line of the report."""
    return ", ".join(f"{side} {s['median']:.4g} [{s['quartiles'][0]:.4g}, "
                     f"{s['quartiles'][1]:.4g}]" for side, s in sides.items())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--json", metavar="PATH", help="also write the runs and verdicts here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"PAIRS must be at least 1, got {args.pairs}")
    roots = [os.path.realpath(args.parent), os.path.realpath(args.change)]
    if len(roots[0]) != len(roots[1]):
        print(f"warning: the checkout paths differ in length ({len(roots[0])} vs "
              f"{len(roots[1])} characters); peak_rss_mb can shift with path length",
              file=sys.stderr)
    with open(os.path.join(roots[0], "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    runs = ([], [])
    for pair in range(args.pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, args.seed))
        values = " ".join(f"{m['name']} {runs[0][-1]['metrics'][m['name']]['value']:.4g}/"
                          f"{runs[1][-1]['metrics'][m['name']]['value']:.4g}" for m in metrics)
        cpus = [runs[side][-1]["cpu_s_per_command"] for side in (0, 1)]
        if None not in cpus:
            values += f" cpu_s {cpus[0]:.4g}/{cpus[1]:.4g}"
        print(f"pair {pair + 1}/{args.pairs} (parent/change): {values}", flush=True)

    print(f"\nworkload {args.workload} seed {args.seed}, {args.pairs} pairs")
    for side, name in enumerate(("parent", "change")):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        incorrect = sum(not r["correct"] for r in runs[side])
        print(f"  {name}: failed {failed}/{attempted} operations, {incorrect} runs not correct")
    record = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
              "commits": {"parent": commit_of(roots[0]), "change": commit_of(roots[1])},
              "metrics": {}}
    for m in metrics:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs[0]]
        change = [r["metrics"][name]["value"] for r in runs[1]]
        wins, what = verdict(parent, change, m["better"] == "higher", m["bound"])
        sides = {"parent": summary(parent), "change": summary(change)}
        record["metrics"][name] = {"unit": m["unit"], "better": m["better"],
                                   "bound": m["bound"], **sides, "change_wins": wins,
                                   "verdict": what}
        print(f"  {name} ({m['unit']}, {m['better']} is better, bound {m['bound']:g}): "
              f"{describe(sides)}, change wins {wins}/{args.pairs}: {what}")
    cpu = [[r["cpu_s_per_command"] for r in side] for side in runs]
    if None not in cpu[0] + cpu[1]:
        wins = wins_of(cpu[0], cpu[1], higher_better=False)
        sides = {"parent": summary(cpu[0]), "change": summary(cpu[1])}
        record["cpu_s_per_command"] = {"unit": "s", "better": "lower", **sides,
                                       "change_wins": wins}
        print(f"  cpu_s per command (s, lower is better, no verdict): {describe(sides)}, "
              f"change wins {wins}/{args.pairs}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
