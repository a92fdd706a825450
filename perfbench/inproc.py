"""Run one codedsmooth CLI command inside this process, traced or not.

    python3 perfbench/inproc.py [--trace] --result FILE -- <cli arguments>

``codedsmooth`` must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH). Writes ``{"exit": code, "wall_s": seconds of cli.main,
"metrics": per-layer metrics or null}`` to FILE. Each run is a fresh
process, so the module cache starts empty exactly as it does for a user.
"""

import argparse
import contextlib
import importlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--result", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    cli = importlib.import_module("codedsmooth.cli")
    tracer = tracing.Tracer()
    scope = tracing.installed(tracer) if args.trace else contextlib.nullcontext()
    with scope:
        start = time.perf_counter()
        code = cli.main(cli_args)
        wall = time.perf_counter() - start
    metrics = tracing.summarize(tracer.spans) if args.trace else None
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "wall_s": wall, "metrics": metrics}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
