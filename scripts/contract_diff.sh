#!/bin/sh
# Check that the working tree writes the same contract files as git revision
# REV (default HEAD): export REV with `git archive`, run
# scripts/canonical_outputs.sh in that export and in the working tree, and
# `diff -r` the two output trees. Prints the diff and exits with its status:
# 0 when every file is byte-identical, 1 when some differ. The temporary
# directories are removed on exit. Takes about 30 s.
#
#   scripts/contract_diff.sh [REV]
set -eu

if [ "$#" -gt 1 ]; then
    echo "usage: $0 [REV]" >&2
    exit 2
fi
rev=${1:-HEAD}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
sh "$tmp/rev/scripts/canonical_outputs.sh" "$tmp/rev-out"
sh "$root/scripts/canonical_outputs.sh" "$tmp/tree-out"

status=0
diff -r "$tmp/rev-out" "$tmp/tree-out" || status=$?
exit "$status"
