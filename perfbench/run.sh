#!/usr/bin/env bash
# Builds the benchmark and the crawlerboxd daemon from this checkout, then
# runs the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay --seed 42 --seconds 20 --trace 0
#
# Every build product and run file stays under .bench_build/ in the
# checkout, including the Go build cache and the go command's own
# configuration directory. Go telemetry is switched off there before the
# first go command, because with it on the go command may start a detached
# upload process that outlives the run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
build="$root/.bench_build"
if [[ ! -f go.mod || ! -d cmd/crawlerboxd ]]; then
	echo "run.sh: no CrawlerBox checkout in $root (go.mod and cmd/crawlerboxd are missing)" >&2
	exit 1
fi
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config/go/telemetry"
printf 'off\n' >"$build/config/go/telemetry/mode"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$build/bin/crawlerboxd" ./cmd/crawlerboxd
(cd "$here" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
