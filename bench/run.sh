#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json's command):
#
#	bash bench/run.sh --workload fed --seed 3 --seconds 12 --trace 0
#
# It builds cwxbench from bench/ (a module of its own) and runs one workload
# in four slices; cwxbench builds cwxd from the checkout bench/ sits in.
# Everything the Go toolchain writes — build cache, module cache, temporary
# files, its own configuration — goes under .bench_build/ in the checkout:
# the script needs no HOME, writes nothing outside the checkout, and does not
# ask a network, a C compiler or a version-control tool for anything.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -d cmd/cwxd ]]; then
	echo "bench/run.sh: $root has no go.mod and cmd/cwxd: nothing to benchmark" >&2
	exit 3
fi

build=$root/.bench_build
mkdir -p "$build/home" "$build/tmp"
export HOME=$build/home TMPDIR=$build/tmp GOTMPDIR=$build/tmp
unset XDG_CACHE_HOME XDG_CONFIG_HOME
export GOCACHE=$build/go-cache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOENV=off GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd bench && go build -o "$build/cwxbench" ./cmd/cwxbench)
exec "$build/cwxbench" -out "$build" -slices 4 "$@"
