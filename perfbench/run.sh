#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# root of the repository:
#
#	bash perfbench/run.sh --workload extract --seed 1 --seconds 25 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
