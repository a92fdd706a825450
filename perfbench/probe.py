"""Get a fresh process ready to work, then exit: the set-up a CLI user pays.

    python3 perfbench/probe.py --config FILE [--model FILE]

Imports codedsmooth, loads the config and builds the inputs the command
would build before its first unit of work: the dataset when the config has
``data.*`` keys, the model file when given, and the straggler inputs when
the config has ``sim.*`` keys. Prints ``{"import_s": ...}``.
"""

import argparse
import json
import time


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--model")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from codedsmooth.codedsim import sample_inputs
    from codedsmooth.config import Config, load_config
    from codedsmooth.datasets import DatasetSpec, make_dataset
    from codedsmooth.modelio import load_model
    import_s = time.perf_counter() - start

    cfg = Config(load_config(args.config))
    if "data.kind" in cfg.raw:
        make_dataset(DatasetSpec(kind=cfg.get_str("data.kind"),
                                 n_train=cfg.get_int("data.n_train"),
                                 n_test=cfg.get_int("data.n_test"),
                                 noise=cfg.get_float("data.noise"),
                                 seed=cfg.get_int("data.seed")))
    if args.model:
        load_model(args.model)
    if "sim.K" in cfg.raw:
        sample_inputs(cfg.get_int("sim.K"), cfg.get_int("sim.input_seed"))
    print(json.dumps({"import_s": import_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
