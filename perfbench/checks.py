"""Output checks on the CLI's contract files.

Each ``check_*`` takes the file's text and what the generated config asked
for, and returns a list of problems (empty when the file is right): the
header, the row count and order, finiteness, the ROADMAP invariants that
can be seen in one file, and the reference values in expectations.json.
"""

import json
import math
import os

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "expectations.json"), encoding="utf-8") as _fh:
    REFERENCES = json.load(_fh)["references"]

SWEEP_HEADER = "param,value,seed,test_metric,loss_main,loss_coded,N_final"
RESULTS_HEADER = "method,inference_mode,attack,epsilon,steps,N_prime,seed,accuracy"
SIM_HEADER = "N,S,policy,seed,mse"
METRICS_HEADER = "epoch,loss_main,loss_coded,test_metric,N"


def run_check(check, *args):
    """``check(*args)``, with a row that does not even parse reported as a problem."""
    try:
        return check(*args)
    except (ValueError, IndexError) as err:
        return [f"malformed row: {err}"]


def read_table(text, header):
    """(rows as lists of fields, problems) for a CSV with a known header."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"header is {lines[0] if lines else ''!r}, expected {header!r}"]
    return [line.split(",") for line in lines[1:]], []


def _number(field):
    try:
        return float(field)
    except ValueError:
        return math.nan


def _rows_match(rows, expected_keys, key_of):
    if len(rows) != len(expected_keys):
        return [f"{len(rows)} rows, expected {len(expected_keys)}"]
    for i, (row, want) in enumerate(zip(rows, expected_keys)):
        if key_of(row) != want:
            return [f"row {i + 1} is {row[:4]}, expected key {want}"]
    return []


def check_sweep(text, values, seeds, n_final_coded, batch_size):
    """sweep.csv of a mu sweep: one row per (value, seed), value-major."""
    rows, problems = read_table(text, SWEEP_HEADER)
    if problems:
        return problems
    ref = REFERENCES["sweep_mu"]
    want = [("mu", v, s) for v in values for s in seeds]
    problems = _rows_match(rows, want, lambda r: (r[0], _number(r[1]), int(r[2]))
                           if len(r) == 7 else None)
    if problems:
        return problems
    for row in rows:
        value = _number(row[1])
        metric, loss_main, loss_coded = (_number(f) for f in row[3:6])
        if not (math.isfinite(metric) and math.isfinite(loss_main)):
            problems.append(f"non-finite value in {row}")
        # loss_coded is nan exactly when no coded path ran (mu = 0)
        if math.isnan(loss_coded) != (value == 0.0) or math.isinf(loss_coded):
            problems.append(f"loss_coded {row[5]} wrong for mu={row[1]}")
        if int(row[6]) != (batch_size if value == 0.0 else n_final_coded):
            problems.append(f"N_final {row[6]} wrong for mu={row[1]}")
        if not abs(metric - ref["value"]) <= ref["abs_tolerance"]:
            problems.append(f"test_metric {row[3]} outside {ref['value']} +- {ref['abs_tolerance']}")
    return problems


def final_metrics_row(text):
    """Last row of a metrics.csv as a list of fields, or None."""
    rows, problems = read_table(text, METRICS_HEADER)
    return rows[-1] if rows and not problems else None


def check_erm_match(sweep_text, seed, erm_row):
    """The mu=0 cell of ``seed`` equals a plain ERM run with that seed.

    ``erm_row`` is the final metrics.csv row of the ERM run (None if it
    failed). Both files print floats with 17 significant digits, so equal
    strings mean equal bits (ROADMAP invariant).
    """
    if erm_row is None:
        return [f"no ERM result for seed {seed}"]
    rows, problems = read_table(sweep_text, SWEEP_HEADER)
    cells = [r for r in rows if _number(r[1]) == 0.0 and int(r[2]) == seed]
    if problems or len(cells) != 1:
        return problems or [f"no mu=0 cell for seed {seed}"]
    cell = cells[0]
    if (cell[3], cell[4], cell[5], cell[6]) != (erm_row[3], erm_row[1], erm_row[2], erm_row[4]):
        return [f"mu=0 cell {cell[3:]} differs from ERM {erm_row[1:]}"]
    return []


def check_results(text, n_prime):
    """results.csv of `attack --kind all`: three attacks x standard/rci."""
    rows, problems = read_table(text, RESULTS_HEADER)
    if problems:
        return problems
    ref = REFERENCES["attack_rci"]
    want = [(a, m) for a in ("none", "fgsm", "pgd") for m in ("standard", "rci")]
    problems = _rows_match(rows, want, lambda r: (r[2].rstrip("0123456789"), r[1])
                           if len(r) == 8 else None)
    if problems:
        return problems
    for row in rows:
        acc = _number(row[7])
        if not 0.0 <= acc <= 1.0:
            problems.append(f"accuracy {row[7]} not in [0, 1]")
        if int(row[5]) != (n_prime if row[1] == "rci" else 0):
            problems.append(f"N_prime {row[5]} wrong for {row[1]}")
    clean = _number(rows[0][7])
    if not abs(clean - ref["value"]) <= ref["abs_tolerance"]:
        problems.append(f"clean standard accuracy {rows[0][7]} outside "
                        f"{ref['value']} +- {ref['abs_tolerance']}")
    return problems


def check_sim(text, k, n_list, s_list, seeds, policy):
    """sim_sweep.csv: one row per (N, S, seed); S=0 rows are exact and seed-free."""
    rows, problems = read_table(text, SIM_HEADER)
    if problems:
        return problems
    ref = REFERENCES["straggler_sim"]
    want = [(n, s, policy, d) for n in n_list for s in s_list for d in seeds]
    problems = _rows_match(rows, want, lambda r: (int(r[0]), int(r[1]), r[2], int(r[3]))
                           if len(r) == 5 else None)
    if problems:
        return problems
    s0 = {}
    for row in rows:
        mse = _number(row[4])
        if not (math.isfinite(mse) and mse >= 0.0):
            problems.append(f"mse {row[4]} not finite and >= 0")
        if row[1] == "0":
            s0.setdefault(int(row[0]), set()).add(row[4])
    previous = math.inf
    for n in n_list:
        if len(s0.get(n, ())) != 1:
            problems.append(f"S=0 rows at N={n} differ across drop seeds")
            continue
        mse = _number(next(iter(s0[n])))
        if mse >= previous:
            problems.append(f"S=0 MSE does not decrease at N={n}")
        previous = mse
        expected = ref["value"].get(str(n)) if k == ref["K"] else None
        if expected is not None and not (
                mse > 0 and abs(math.log10(mse / expected)) <= ref["log10_tolerance"]):
            problems.append(f"S=0 MSE {mse:.3e} at N={n} not within 10^"
                            f"{ref['log10_tolerance']} of {expected:.3e}")
    return problems
