#!/bin/sh
# Erasure-coding benchmark harness: runs the ECC micro- and macro-
# benchmarks and records the results as BENCH_ecc.json at the repo root,
# so codec performance is tracked alongside the code.
#
# Usage: scripts/bench.sh [benchtime]
#   benchtime   go test -benchtime value (default 1x: one measured
#               iteration per benchmark, fast enough for CI; use e.g.
#               2s locally for stable numbers).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-1x}"
OUT="BENCH_ecc.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== ECC benchmarks (benchtime=$BENCHTIME)"
go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" \
	./internal/gf65536 ./internal/rs ./internal/blob | tee "$RAW"

# --- Builder pipeline --------------------------------------------------
# The slot-critical prepare path (32 MiB extend + commit + prove) is
# gated, not just tracked: PrepareBlob must hold >= 5x the pre-pipeline
# 20.17 MB/s baseline (i.e. >= 100.85 MB/s), and the steady-state prove
# loop must stay at zero allocations per row. The gated benchmarks use
# fixed iteration counts so the gate measurements are stable regardless
# of the harness benchtime argument (the prepare benchmark additionally
# warms its arenas with one unmeasured iteration).
echo "== builder pipeline (gates: PrepareBlob >= 100.85 MB/s, prove loop 0 allocs/row)"
go test -run '^$' -bench 'BenchmarkBuilderPrepareBlob' -benchmem \
	-benchtime 4x . | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkCommitterSlot' -benchmem \
	-benchtime "$BENCHTIME" ./internal/kzg | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkProveRowSteady' -benchmem \
	-benchtime 10000x ./internal/kzg | tee -a "$RAW"

# Parse `Benchmark<Name>[-procs] N ns/op [MB/s] [B/op] [allocs/op]`
# lines into a JSON object keyed by benchmark name, applying the
# builder-pipeline gates.
awk -v benchtime="$BENCHTIME" '
BEGIN { n = 0; fail = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; mbs = ""; allocs = ""
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		if ($(i+1) == "MB/s") mbs = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	if (ns == "") next
	line = sprintf("    \"%s\": {\"ns_per_op\": %s", name, ns)
	if (mbs != "") line = line sprintf(", \"mb_per_s\": %s", mbs)
	if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
	line = line "}"
	out[n++] = line
	if (name == "BenchmarkBuilderPrepareBlob" && mbs + 0 < 100.85) {
		printf "GATE FAIL: %s %s MB/s < 100.85 (5x pre-pipeline baseline)\n", name, mbs > "/dev/stderr"
		fail = 1
	}
	if (name == "BenchmarkProveRowSteady" && allocs + 0 > 0) {
		printf "GATE FAIL: %s %s allocs/op > 0\n", name, allocs > "/dev/stderr"
		fail = 1
	}
}
END {
	printf "{\n  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"gate\": {\"benchmark\": \"BenchmarkBuilderPrepareBlob\", \"min_mb_per_s\": 100.85, \"prove_loop_max_allocs_per_op\": 0},\n"
	# Pre-optimization seed-codec numbers (log/exp scalar kernels,
	# sequential extension), measured on the same 1-core Xeon 2.10GHz
	# before the split-table/FFT pipeline landed. Kept for comparison.
	printf "  \"pre_pr_baseline\": {\n"
	printf "    \"BenchmarkExtend32MB\": {\"ns_per_op\": 39139022293, \"mb_per_s\": 0.86, \"allocs_per_op\": 197387},\n"
	printf "    \"BenchmarkReconstructLine\": {\"ns_per_op\": 67927269, \"mb_per_s\": 3.86, \"allocs_per_op\": 1355}\n"
	printf "  },\n"
	# Pre-pipeline builder numbers (scalar tails, per-cell pooled hash
	# round-trips, monolithic prepare), same machine, before the
	# word-parallel kernel / alloc-free prover PR landed.
	printf "  \"pre_pipeline_baseline\": {\n"
	printf "    \"BenchmarkBuilderPrepareBlob\": {\"ns_per_op\": 1663644213, \"mb_per_s\": 20.17, \"allocs_per_op\": 788009},\n"
	printf "    \"BenchmarkExtend32MB\": {\"ns_per_op\": 882685390, \"mb_per_s\": 38.01, \"allocs_per_op\": 530}\n"
	printf "  },\n"
	printf "  \"benchmarks\": {\n"
	for (i = 0; i < n; i++) printf "%s%s\n", out[i], (i < n-1 ? "," : "")
	printf "  }\n}\n"
	exit fail
}' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c 'ns_per_op' "$OUT") benchmarks, builder gates passed)"

# --- Observability overhead -------------------------------------------
# The disabled-recorder path is on every protocol hot path, so it is
# gated, not just tracked: a nil-check must stay <= 2 ns/op with zero
# allocations. The enabled path is recorded for reference. A fixed
# iteration count keeps the gate measurement stable regardless of the
# harness benchtime argument.
OBSV_OUT="BENCH_obsv.json"
OBSV_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$OBSV_RAW"' EXIT

echo "== obsv benchmarks (gate: disabled Emit <= 2 ns/op, 0 allocs)"
go test -run '^$' -bench 'BenchmarkEmit|BenchmarkRingRecord' -benchmem \
	-benchtime 2000000x ./internal/obsv | tee "$OBSV_RAW"

awk '
BEGIN { fail = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; allocs = ""
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	if (ns == "") next
	out[n++] = sprintf("    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, allocs)
	if (name == "BenchmarkEmitDisabled") {
		if (ns + 0 > 2) { printf "GATE FAIL: %s %s ns/op > 2\n", name, ns > "/dev/stderr"; fail = 1 }
		if (allocs + 0 > 0) { printf "GATE FAIL: %s %s allocs/op > 0\n", name, allocs > "/dev/stderr"; fail = 1 }
	}
}
END {
	printf "{\n  \"gate\": {\"benchmark\": \"BenchmarkEmitDisabled\", \"max_ns_per_op\": 2, \"max_allocs_per_op\": 0},\n"
	printf "  \"benchmarks\": {\n"
	for (i = 0; i < n; i++) printf "%s%s\n", out[i], (i < n-1 ? "," : "")
	printf "  }\n}\n"
	exit fail
}' "$OBSV_RAW" > "$OBSV_OUT"

echo "wrote $OBSV_OUT (disabled-recorder gate passed)"

# --- Sampling gateway --------------------------------------------------
# Gateway micro-benches (hit path, miss path, cache) plus the acceptance
# workload: 100k concurrent synthetic light clients per slot against a
# simnet cluster. Gate: the coalescer+cache must cut upstream fetches by
# >= 10x on the zipf workload (the subsystem's reason to exist).
GW_OUT="BENCH_gateway.json"
GW_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$OBSV_RAW" "$GW_RAW"' EXIT

echo "== gateway benchmarks (gate: upstream reduction >= 10x at 100k clients)"
go test -run '^$' -bench 'BenchmarkQueryCacheHit|BenchmarkQueryMissVerified|BenchmarkCacheAddGet' \
	-benchmem -benchtime "$BENCHTIME" ./internal/gateway | tee "$GW_RAW"
go test -run '^$' -bench 'BenchmarkVerifyBatch64' -benchmem \
	-benchtime "$BENCHTIME" ./internal/kzg | tee -a "$GW_RAW"
go test -run '^$' -bench 'BenchmarkGatewayLoad100k' -benchtime 1x \
	-timeout 20m ./internal/experiments | tee -a "$GW_RAW"

awk '
BEGIN { fail = 0; n = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	line = ""
	for (i = 2; i < NF; i++) {
		unit = $(i+1)
		key = ""
		if (unit == "ns/op") key = "ns_per_op"
		else if (unit == "B/op") key = "bytes_per_op"
		else if (unit == "allocs/op") key = "allocs_per_op"
		else if (unit == "qps") key = "qps"
		else if (unit == "p50_us") key = "p50_us"
		else if (unit == "p99_us") key = "p99_us"
		else if (unit == "hit_%") key = "hit_rate_pct"
		else if (unit == "reduction_x") key = "upstream_reduction_x"
		else if (unit == "coalesce_x") key = "coalesce_x"
		if (key == "") continue
		if (line != "") line = line ", "
		line = line sprintf("\"%s\": %s", key, $i)
		if (name == "BenchmarkGatewayLoad100k" && key == "upstream_reduction_x" && $i + 0 < 10) {
			printf "GATE FAIL: %s reduction %s < 10x\n", name, $i > "/dev/stderr"
			fail = 1
		}
	}
	if (line == "") next
	out[n++] = sprintf("    \"%s\": {%s}", name, line)
}
END {
	printf "{\n  \"gate\": {\"benchmark\": \"BenchmarkGatewayLoad100k\", \"min_upstream_reduction_x\": 10, \"clients_per_slot\": 100000},\n"
	printf "  \"benchmarks\": {\n"
	for (i = 0; i < n; i++) printf "%s%s\n", out[i], (i < n-1 ? "," : "")
	printf "  }\n}\n"
	exit fail
}' "$GW_RAW" > "$GW_OUT"

echo "wrote $GW_OUT (gateway reduction gate passed)"

# --- Simulator capacity ------------------------------------------------
# The discrete-event engine and the per-node state footprint back the
# 100k-node simulation claims, so both are gated: the pooled sharded
# heap must schedule+execute an event in <= 1000 ns with zero
# allocations on the hot path, and a full 100k-node metadata slot must
# complete with <= 512 KiB resident per node and >= 20k events/s
# end-to-end protocol throughput.
SIM_OUT="BENCH_simnet.json"
SIM_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$OBSV_RAW" "$GW_RAW" "$SIM_RAW"' EXIT

echo "== simnet benchmarks (gates: engine <= 1000 ns/event 0 allocs; 100k slot <= 524288 bytes/node, >= 20000 events/s)"
go test -run '^$' -bench 'BenchmarkEngineThroughput' -benchmem \
	-benchtime "$BENCHTIME" ./internal/simnet | tee "$SIM_RAW"
go test -run '^$' -bench 'BenchmarkSimnetScale100k' -benchtime 1x \
	-timeout 45m ./internal/experiments | tee -a "$SIM_RAW"

awk '
BEGIN { fail = 0; n = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	line = ""
	for (i = 2; i < NF; i++) {
		unit = $(i+1)
		key = ""
		if (unit == "ns/op") key = "ns_per_op"
		else if (unit == "ns/event") key = "ns_per_event"
		else if (unit == "B/op") key = "bytes_per_op"
		else if (unit == "allocs/op") key = "allocs_per_op"
		else if (unit == "bytes/node") key = "bytes_per_node"
		else if (unit == "events/sec") key = "events_per_sec"
		if (key == "") continue
		if (line != "") line = line ", "
		line = line sprintf("\"%s\": %s", key, $i)
		if (name == "BenchmarkEngineThroughput") {
			if (key == "ns_per_event" && $i + 0 > 1000) {
				printf "GATE FAIL: %s %s ns/event > 1000\n", name, $i > "/dev/stderr"; fail = 1
			}
			if (key == "allocs_per_op" && $i + 0 > 0) {
				printf "GATE FAIL: %s %s allocs/op > 0\n", name, $i > "/dev/stderr"; fail = 1
			}
		}
		if (name == "BenchmarkSimnetScale100k") {
			if (key == "bytes_per_node" && $i + 0 > 524288) {
				printf "GATE FAIL: %s %s bytes/node > 524288\n", name, $i > "/dev/stderr"; fail = 1
			}
			if (key == "events_per_sec" && $i + 0 < 20000) {
				printf "GATE FAIL: %s %s events/sec < 20000\n", name, $i > "/dev/stderr"; fail = 1
			}
		}
	}
	if (line == "") next
	out[n++] = sprintf("    \"%s\": {%s}", name, line)
}
END {
	printf "{\n  \"gate\": {\"engine_max_ns_per_event\": 1000, \"engine_max_allocs_per_op\": 0, \"scale_nodes\": 100000, \"scale_max_bytes_per_node\": 524288, \"scale_min_events_per_sec\": 20000},\n"
	# Pre-compaction numbers on the same 1-core machine: the pointer
	# heap boxed every event (3 allocs/op) and a 10k-node metadata slot
	# ran at ~13.6k events/s with ~547 KB resident per node; 100k nodes
	# did not complete. Kept for comparison.
	printf "  \"pre_pr_baseline\": {\n"
	printf "    \"BenchmarkSimnetScale10k\": {\"bytes_per_node\": 546705, \"events_per_sec\": 13603}\n"
	printf "  },\n"
	printf "  \"benchmarks\": {\n"
	for (i = 0; i < n; i++) printf "%s%s\n", out[i], (i < n-1 ? "," : "")
	printf "  }\n}\n"
	exit fail
}' "$SIM_RAW" > "$SIM_OUT"

echo "wrote $SIM_OUT (simulator capacity gates passed)"

# --- Wire codec --------------------------------------------------------
# The UDP data plane encodes every datagram into a pooled buffer and
# decodes each received datagram into one cell slice and one payload
# block, so allocations per datagram are gated: encoding a paper-geometry
# seed datagram into a reused buffer must allocate nothing, and decoding
# one must take at most 3 allocations (message, cells, payload block).
# Each benchmark runs 5 times for 1 s and the median is recorded.
WIRE_OUT="BENCH_wire.json"
WIRE_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$OBSV_RAW" "$GW_RAW" "$SIM_RAW" "$WIRE_RAW"' EXIT

echo "== wire benchmarks (gates: AppendEncodeSeed 0 allocs/op, DecodeSeed <= 3 allocs/op; median of 5 x 1s)"
go test -run '^$' -bench 'BenchmarkAppendEncodeSeed|BenchmarkDecodeSeed' -benchmem \
	-benchtime 1s -count 5 ./internal/wire | tee "$WIRE_RAW"

awk '
function median(list,    v, k, i, j, t) {
	k = split(list, v, " ")
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	return v[int((k + 1) / 2)]
}
BEGIN { fail = 0; n = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (!(name in ns)) order[n++] = name
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op") ns[name] = ns[name] " " $i
		if ($(i+1) == "MB/s") mbs[name] = mbs[name] " " $i
		if ($(i+1) == "allocs/op") allocs[name] = allocs[name] " " $i
	}
}
END {
	printf "{\n  \"method\": \"median of -count 5 at -benchtime 1s\",\n"
	printf "  \"gate\": {\"BenchmarkAppendEncodeSeed_max_allocs_per_op\": 0, \"BenchmarkDecodeSeed_max_allocs_per_op\": 3},\n"
	printf "  \"benchmarks\": {\n"
	for (i = 0; i < n; i++) {
		name = order[i]
		a = median(allocs[name])
		printf "    \"%s\": {\"ns_per_op\": %s, \"mb_per_s\": %s, \"allocs_per_op\": %s}%s\n",
			name, median(ns[name]), median(mbs[name]), a, (i < n-1 ? "," : "")
		if (name == "BenchmarkAppendEncodeSeed" && a + 0 > 0) {
			printf "GATE FAIL: %s %s allocs/op > 0\n", name, a > "/dev/stderr"; fail = 1
		}
		if (name == "BenchmarkDecodeSeed" && a + 0 > 3) {
			printf "GATE FAIL: %s %s allocs/op > 3\n", name, a > "/dev/stderr"; fail = 1
		}
	}
	printf "  }\n}\n"
	if (n < 2) { print "GATE FAIL: wire benchmarks missing" > "/dev/stderr"; fail = 1 }
	exit fail
}' "$WIRE_RAW" > "$WIRE_OUT"

echo "wrote $WIRE_OUT (wire allocation gates passed)"
