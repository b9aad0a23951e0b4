#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything is built under _build/ in the checkout; dune's shared cache is
# switched off so nothing is written outside it.  Build output goes to
# stderr: the last line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: needs a full checkout of the repository (no dune-project or lib/ here)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
