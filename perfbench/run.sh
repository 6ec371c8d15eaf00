#!/usr/bin/env bash
# Builds detmt-server, detmt-gateway and the benchmark driver from the
# source tree into .bench_build/ and runs one benchmark pass:
#
#   bash perfbench/run.sh --workload seq-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# server data directories, span files) stays under .bench_build/ in the
# checkout. Build output goes to stderr; the last stdout line is the
# result JSON.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/bin/" ./cmd/detmt-server ./cmd/detmt-gateway >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" -spec "$root/BENCHMARK.json" "$@"
