#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#
#   bash perfbench/run.sh --workload access --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (binary, Go build cache,
# temporary files of the Go tool, the C compiler and the benchmark)
# stays under .bench_build/ in the checkout. The perfbench module pulls
# in the library through a replace directive on its parent directory, so
# the build fails, and no result is printed, outside a full checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Run as a child, not through exec: max_rss_mb reads the peak resident
# set of the benchmark's own children, which must not include the build.
"$out/perfbench" "$@"
