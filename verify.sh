#!/bin/sh
# Tier-1 verification for the PANDAS reproduction (referenced from
# ROADMAP.md). Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

# slotbench is a nested module that ./... skips; vet and test it so an
# internal API change that breaks the benchmark fails here.
echo "== slotbench: go vet + go test"
(cd slotbench && go vet . && go test .)

echo "== go test -race (membership, core, fetch, blob, rs, gf65536, kzg, obsv, transport, wire, adversary, gateway, simnet, swarm)"
go test -race ./internal/membership ./internal/core ./internal/fetch \
	./internal/blob ./internal/rs ./internal/gf65536 ./internal/kzg \
	./internal/obsv ./internal/transport ./internal/wire \
	./internal/adversary ./internal/gateway ./internal/simnet \
	./internal/swarm

echo "== swarm smoke (8 processes, 1 slot, real UDP)"
go run ./cmd/pandas-swarm -n 8 -k 4 -samples 4 -slots 1 -timeout 90s -q

echo "verify: OK"
