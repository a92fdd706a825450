"""Outside-in span tracer for the codedsmooth layers.

The program is not edited: ``installed`` replaces each traced function at
every binding callers look it up through (module attributes, including the
names other modules imported with ``from .x import f``, and class attributes
such as ``MLP.__call__``, which is the same function object as
``MLP.forward``), and puts the originals back on exit.

A span is ``[name, start, end, parent, note]``; ``parent`` is the index of
the enclosing span (or -1) and ``note`` is whatever the target's note
function extracted from the call. Self time is a span's duration minus the
durations of its direct children. Spans stay in memory until the run ends.
"""

import contextlib
import functools
import hashlib
import importlib
import statistics
import sys
import time


def _fingerprint(args, kwargs, result):
    """Identity of a crafted adversarial set: attack, inputs, labels, spec."""
    x, y, spec = args[1:4]
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(spec).encode())
    digest.update(x.tobytes())
    digest.update(y.tobytes())
    return digest.hexdigest()


def _rows_used(args, kwargs, result):
    """(rows scored per trial, rows available) for an RCI evaluation, else None."""
    x = args[1]
    mode = kwargs["mode"] if "mode" in kwargs else args[4]
    k_prime = getattr(mode, "k_prime", None)
    if k_prime is None:
        return None
    return ((x.shape[0] // k_prime) * k_prime, x.shape[0])


def _returned(args, kwargs, result):
    """(workers returned, workers) for one straggler scenario."""
    return (len(result), args[0].n_workers)


# (span name, module, function or Class.method, note function)
TARGETS = (
    ("config.load_config", "codedsmooth.config", "load_config", None),
    ("datasets.make_dataset", "codedsmooth.datasets", "make_dataset", None),
    ("modelio.load_model", "codedsmooth.modelio", "load_model", None),
    ("train.train", "codedsmooth.train", "train", None),
    ("train.evaluate_model", "codedsmooth.train", "evaluate_model", None),
    ("autodiff.backward", "codedsmooth.autodiff", "Tensor.backward", None),
    ("autodiff.sgd_momentum_step", "codedsmooth.autodiff", "sgd_momentum_step", None),
    ("models.forward", "codedsmooth.models", "MLP.forward", None),
    ("models.predict", "codedsmooth.models", "MLP.predict", None),
    ("coded.get_module", "codedsmooth.coded", "get_module", None),
    ("coded.encode", "codedsmooth.coded", "CodedSmoothingModule.encode", None),
    ("coded.decode", "codedsmooth.coded", "CodedSmoothingModule.decode", None),
    ("spline.build_operator", "codedsmooth.spline", "build_operator", None),
    ("attack.fgsm", "codedsmooth.attack", "fgsm", _fingerprint),
    ("attack.pgd", "codedsmooth.attack", "pgd", _fingerprint),
    ("attack.rci_forward", "codedsmooth.attack", "rci_forward", None),
    ("attack.robust_eval", "codedsmooth.attack", "robust_eval", _rows_used),
    ("codedsim.run_coded_job", "codedsmooth.codedsim", "run_coded_job", None),
    ("codedsim.returned_indices", "codedsmooth.codedsim", "returned_indices", _returned),
)


class Tracer:
    """Collects spans from the wrappers it makes; one thread only."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced


def bindings(targets=TARGETS):
    """Every (owner, attribute, function) binding of each target's function."""
    found = []
    package = [m for n, m in list(sys.modules.items())
               if n == "codedsmooth" or n.startswith("codedsmooth.")]
    for name, module_name, attr, note in targets:
        module = importlib.import_module(module_name)
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            owners = [getattr(module, cls_name)]
            original = vars(owners[0])[fn_name]
        else:
            owners = package
            original = getattr(module, fn_name)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    found.append((name, note, owner, key, original))
    return found


@contextlib.contextmanager
def installed(tracer, targets=TARGETS):
    """Trace every target while the block runs; the originals return on exit."""
    patched = []
    wrappers = {}
    try:
        for name, note, owner, key, original in bindings(targets):
            if name not in wrappers:
                wrappers[name] = tracer.wrap(name, original, note)
            setattr(owner, key, wrappers[name])
            patched.append((owner, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)


# --------------------------------------------------------------- summary

COUNT_METRICS = (
    "train.steps", "autodiff.backward.calls", "models.predict.calls",
    "coded.get_module.calls", "coded.get_module.misses", "coded.get_module.hit_ratio",
    "spline.build_operator.calls", "attack.craft.calls", "attack.craft_unique_frac",
    "attack.rci_forward.calls", "attack.rci.rows_used_frac",
    "codedsim.run_coded_job.calls", "codedsim.returned_frac",
)

TIME_METRICS = (
    "config.load_config.self_s", "datasets.make_dataset.self_s",
    "modelio.load_model.self_s", "train.cell_s_p50", "train.cell_s_max",
    "train.evaluate_model.self_s", "autodiff.backward.self_s",
    "autodiff.backward.call_us_p50", "autodiff.backward.call_us_p90",
    "autodiff.sgd_momentum_step.self_s", "models.forward.self_s",
    "models.predict.self_s", "coded.encode.self_s", "coded.decode.self_s",
    "spline.build_operator.self_s", "spline.build_operator.call_us_p50",
    "spline.build_operator.call_us_p90", "attack.craft.self_s",
    "attack.rci_forward.self_s", "attack.rci_forward.call_us_p50",
    "attack.rci_forward.call_us_p90", "codedsim.run_coded_job.self_s",
    "codedsim.run_coded_job.call_us_p50", "codedsim.run_coded_job.call_us_p90",
    "codedsim.returned_indices.self_s",
)


def _quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(spans):
    """Per-layer metrics of one traced run (COUNT_METRICS + TIME_METRICS)."""
    child = [0.0] * len(spans)
    builds_under = set()
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
            if name == "spline.build_operator" and spans[parent][0] == "coded.get_module":
                builds_under.add(parent)
    dur, self_s, notes = {}, {}, {}
    for i, (name, start, end, _, note) in enumerate(spans):
        dur.setdefault(name, []).append(end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        notes.setdefault(name, []).append(note)

    def calls(name):
        return len(dur.get(name, ()))

    def us(name, q):
        return 1e6 * _quantile(dur.get(name, []), q)

    crafts = notes.get("attack.fgsm", []) + notes.get("attack.pgd", [])
    rci_rows = [n for n in notes.get("attack.robust_eval", []) if n is not None]
    returned = notes.get("codedsim.returned_indices", [])
    lookups = calls("coded.get_module")
    cells = dur.get("train.train", [])
    out = {
        "train.steps": calls("autodiff.sgd_momentum_step"),
        "autodiff.backward.calls": calls("autodiff.backward"),
        "models.predict.calls": calls("models.predict"),
        "coded.get_module.calls": lookups,
        "coded.get_module.misses": len(builds_under),
        "coded.get_module.hit_ratio": _ratio(lookups - len(builds_under), lookups),
        "spline.build_operator.calls": calls("spline.build_operator"),
        "attack.craft.calls": len(crafts),
        "attack.craft_unique_frac": _ratio(len(set(crafts)), len(crafts)),
        "attack.rci_forward.calls": calls("attack.rci_forward"),
        "attack.rci.rows_used_frac": _ratio(sum(u for u, _ in rci_rows),
                                            sum(n for _, n in rci_rows)),
        "codedsim.run_coded_job.calls": calls("codedsim.run_coded_job"),
        "codedsim.returned_frac": _ratio(sum(r for r, _ in returned),
                                         sum(n for _, n in returned)),
        "train.cell_s_p50": _quantile(cells, 0.5),
        "train.cell_s_max": max(cells, default=0.0),
        "attack.craft.self_s": self_s.get("attack.fgsm", 0.0) + self_s.get("attack.pgd", 0.0),
        "train.cell_s_sum": sum(cells),
    }
    for name in ("autodiff.backward", "spline.build_operator", "attack.rci_forward",
                 "codedsim.run_coded_job"):
        out[f"{name}.call_us_p50"] = us(name, 0.5)
        out[f"{name}.call_us_p90"] = us(name, 0.9)
    for metric in TIME_METRICS:
        if metric.endswith(".self_s") and metric not in out:
            out[metric] = self_s.get(metric[:-len(".self_s")], 0.0)
    return out


def combine(runs):
    """Counts of the first run (they must repeat) and median times over runs."""
    counts = {m: runs[0][m] for m in COUNT_METRICS}
    times = {m: statistics.median(r[m] for r in runs) for m in TIME_METRICS + ("train.cell_s_sum",)}
    return {**counts, **times}


def counts_repeat(runs):
    """True when every run reports exactly the counts of the first."""
    return all(r[m] == runs[0][m] for r in runs for m in COUNT_METRICS)
