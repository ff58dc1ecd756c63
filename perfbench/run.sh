#!/usr/bin/env bash
# Builds the serving benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload pdq-flythrough --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, data files, results, traces) goes under
# .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
