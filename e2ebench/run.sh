#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload fleet_days --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, scratch files, span and profile dumps) goes under .bench_build/
# there; the build needs no network and never rewrites go.mod.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --dir "$out" "$@"
