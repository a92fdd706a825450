#!/bin/sh
# Run the ten canonical configs into OUT_DIR, one sub-directory per config,
# with each command's stdout saved as OUT_DIR/<config>.stdout, and save the
# stdout of `points 8 12` as OUT_DIR/points.stdout. `attack` scores the model
# that train_coded_moons writes. Two trees made from two checkouts are
# byte-identical exactly when `diff -r` between them is empty.
#
#   scripts/canonical_outputs.sh OUT_DIR
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

run() {
    name=$1
    shift
    python3 -m codedsmooth "$@" --out "$out/$name" > "$out/$name.stdout"
}

cfg="$root/configs"
python3 -m codedsmooth points 8 12 > "$out/points.stdout"
run rate_sin simulate --config "$cfg/rate_sin.cfg"
run train_coded_moons train --config "$cfg/train_coded_moons.cfg"
run train_erm_moons train --config "$cfg/train_erm_moons.cfg"
run train_mixup_moons train --config "$cfg/train_mixup_moons.cfg"
run train_coded_sinusoid train --config "$cfg/train_coded_sinusoid.cfg"
run train_coded_gaussian8 train --config "$cfg/train_coded_gaussian8.cfg"
run attack_moons attack --config "$cfg/attack_moons.cfg" \
    --model "$out/train_coded_moons/model.bin"
run simulate_stragglers simulate --config "$cfg/simulate_stragglers.cfg"
run simulate_adversarial simulate --config "$cfg/simulate_adversarial.cfg"
run sweep_mu sweep --config "$cfg/sweep_mu.cfg"
