#!/usr/bin/env bash
# Builds the pipeline benchmark from source, then runs it from the root of
# the repository, e.g.
#   bash bench/pipeline/bench.sh --workload grid --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . bench/pipeline/pipeline.exe 1>&2
exec ./_build/default/bench/pipeline/pipeline.exe "$@"
