#!/usr/bin/env bash
# Builds the servebench binary from this checkout and runs it with the
# given arguments. Run it from the repository root, for example
#
#   bash servebench/run.sh --workload kv-update --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and everything a run writes stay under
# .bench_build/ in the current directory. The build needs the module in
# the parent directory; without it the build fails and so does the run.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C servebench build -o "$out/servebench.bin.tmp" .
mv -f "$out/servebench.bin.tmp" "$out/servebench.bin"
exec "$out/servebench.bin" --out "$out" "$@"
