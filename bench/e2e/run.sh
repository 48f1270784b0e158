#!/usr/bin/env bash
# Build the server under test and the load generator from this checkout,
# then run the benchmark with the given arguments, for example
#
#   bash bench/e2e/run.sh --workload hot --seed 1 --seconds 28 --trace 0
#
# Run it from the root of the checkout.  Build output goes to stderr, so
# the last line of stdout is the benchmark's JSON result.
set -euo pipefail

# the dune cache would write outside the checkout
export DUNE_CACHE=disabled
dune build --root . bin/adept_cli.exe bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe --adept ./_build/default/bin/adept_cli.exe "$@"
