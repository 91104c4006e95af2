#!/bin/sh
# Build the benchmark and the library it measures from this checkout,
# then run it:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the run's JSON result.
set -e
if command -v dune >/dev/null 2>&1; then
  DUNE=dune
else
  DUNE="opam exec -- dune"
fi
DUNE_CACHE=disabled $DUNE build --root . --profile perf ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
