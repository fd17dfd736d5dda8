#!/usr/bin/env bash
# Build the benchmark from source with dune, then run it; arguments go
# to the benchmark (see main.ml).  Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec --root . --cache=disabled --display=quiet --no-print-directory \
  ./perfbench/main.exe -- "$@"
