#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through:
#   bash perfbench/run.sh --workload serve-plane --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
# Run from the repository root.  Build output goes to stderr, so the
# last line of stdout is the benchmark's result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
PERFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT
exec ./_build/default/perfbench/main.exe "$@"
