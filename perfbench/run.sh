#!/bin/sh
# Build the benchmark from this checkout's sources, then run one workload.
#
#   sh perfbench/run.sh --workload lubm-lookup|dbpedia-analytic \
#                       --seed N --seconds S --trace 0|1
#
# Build output goes to standard error; the benchmark's last line of
# standard output is its JSON result. Exits non-zero, printing no
# result, when the build fails.
set -e
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# Keep every build artifact and temporary file inside the checkout.
export DUNE_CACHE=disabled
mkdir -p .perfbench_out/tmp
export TMPDIR="$PWD/.perfbench_out/tmp"
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
