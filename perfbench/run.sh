#!/usr/bin/env bash
# Build the benchmark from source and run one measurement:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root or anywhere else; the build lands in _build.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
