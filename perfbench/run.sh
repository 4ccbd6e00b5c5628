#!/usr/bin/env bash
# Build the benchmark runner from source, then run it with the given
# arguments. Run from anywhere; it works from the checkout root, e.g.
#   bash perfbench/run.sh --workload stream-64 --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
