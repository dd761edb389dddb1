#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it. Run it
# from the repository root:
#
#   bash _perfbench/run.sh --workload mipsy-figs --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
