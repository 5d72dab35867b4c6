#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#   bash hibbench/run.sh --workload oltp-hib --seed 1 --seconds 30 --trace 0
# The Go build cache and the binary live under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/hibbench/go.mod" ]]; then
	echo "hibbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build/hibbench"
mkdir -p "$out"
# XDG_CONFIG_HOME and GOTMPDIR keep the go command's config, telemetry and
# temporary files inside the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/hibbench" && go build -o "$out/hibbench" .)
exec "$out/hibbench" --out "$out" "$@"
