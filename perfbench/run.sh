#!/usr/bin/env bash
# Build the benchmark from source and run it; every argument is passed
# through (--workload NAME --seed N --seconds S --trace 0|1).  Run from
# the root of the repository.  Build output goes to stderr so the last
# line of stdout stays the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
