#!/usr/bin/env bash
# Build the benchmark and hlsc from this checkout, then run it.
#   bash flowbench/run.sh --workload synth-large --seed 1 --seconds 20 --trace 0
#   bash flowbench/run.sh --check
# Build output goes to stderr; the result is the last line of stdout.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "flowbench: not a checkout of the hls sources: $(pwd)" >&2
  exit 2
fi
# the shared dune cache lives outside the checkout; keep the build inside it
DUNE_CACHE=disabled dune build --root . flowbench/main.exe bin/hlsc.exe 1>&2 || exit 2
exec ./_build/default/flowbench/main.exe \
  --hlsc ./_build/default/bin/hlsc.exe --workdir .flowbench-work "$@"
