#!/usr/bin/env bash
# Builds the slot benchmark from this checkout's sources and runs it.
# Run from the repository root; arguments pass through, for example
#   bash slotbench/run.sh --workload slot-udp --seed 1 --seconds 20 --trace 0
# Build outputs, span dumps and CPU profiles go to .bench_build/.
set -euo pipefail
root=$PWD
if [[ ! -f $root/go.mod || ! -d $root/internal/core || ! -f $root/slotbench/go.mod ]]; then
	echo "slotbench: run from the root of a PANDAS checkout (go.mod, internal/ and slotbench/ are needed)" >&2
	exit 2
fi
out=$root/.bench_build
mkdir -p "$out/home"
# Keep the Go build cache and any tool state inside the checkout, and
# never reach for the network.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	HOME=$out/home XDG_CONFIG_HOME=$out/home/.config \
	GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/slotbench" && go build -o "$out/slotbench" .)
exec "$out/slotbench" --out "$out" "$@"
