#!/usr/bin/env bash
# bench.sh — run the repo's tracked benchmark suites and record them as
# diffable JSON in the repo root, so perf regressions are visible across
# PRs. These files are written:
#
#   BENCH_4.json  table-level, engine, and tracing-span benchmarks.
#                 BenchmarkSpanDisabled is the disabled-tracing overhead
#                 number: its allocs_per_op must be 0 (the obs package's
#                 zero-alloc contract; TestSpanDisabledZeroAlloc gates
#                 it, this file just records the ns/op).
#   BENCH_5.json  greedy-round candidate pricing, full vs delta
#                 (BenchmarkGreedyRoundFull / BenchmarkGreedyRoundDelta
#                 with one sub-benchmark per measure). The delta-vs-full
#                 speedup CI reports comes from this file; the
#                 acceptance bar is >= 5x on the BFS-family measures.
#   BENCH_7.json  CSR snapshot backend vs the adjacency-map backend
#                 (BenchmarkCSR{Freeze,BFS,Brandes,GreedyRound} with
#                 map/csr sub-benchmarks), plus the 10^6-node / 10^7-edge
#                 scale demonstration BenchmarkCSRMillionSweep run once.
#                 The acceptance bar is csr >= 2x map on the BFS sweep.
#   BENCH_9.json  the trace pipeline (DESIGN.md §14): BenchmarkSpanDisabled
#                 re-run with the flight/runtime code in the tree (its
#                 allocs_per_op must stay 0), the enabled span path with a
#                 flight recorder attached, flight-recorder retention,
#                 trace export, and the engine with the full pipeline live
#                 (BenchmarkEnginePooledFlight). The acceptance bar —
#                 checked by bench_report.sh — is EnginePooledFlight
#                 within 5% of EnginePooled.
#   BENCH_10.json promod serving-daemon saturation curve (DESIGN.md §15).
#                 promod is booted on a generated BA host (default 10^6
#                 nodes, k=10; override with PROMOD_BENCH_N/_K for quick
#                 local runs), promoload sweeps request rates recording
#                 OK/shed/error counts and latency percentiles per level,
#                 then a low-load pair prices the admission path against
#                 a -max-inflight 0 run. Bars — checked by
#                 bench_report.sh — are >= 5000 sustained OK RPS at some
#                 level and admission-path p50 within 5% of the
#                 no-admission p50; the per-level shed counts document
#                 that overload is refused with 429s, not queued.
#
# Non-gating: CI uploads the files as artifacts but never fails on their
# contents.
#
# Usage: scripts/bench.sh [count]
#   count  -count passed to `go test` (default 3)
#   BENCH_SECTIONS  comma list of suites to (re)run: any of 4,5,7,9,10
#                   (default all) — e.g. BENCH_SECTIONS=10 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${1:-3}"
SECTIONS="${BENCH_SECTIONS:-all}"
# want <n>: is suite n selected?
want() { [[ "$SECTIONS" == all || ",$SECTIONS," == *",$1,"* ]]; }
RAW="$(mktemp)"
PROMOD_PID=""
trap 'kill "$PROMOD_PID" 2>/dev/null || true; rm -f "$RAW" "$RAW".*' EXIT

# parse_bench < raw-bench-output > json: fold `go test -bench` lines
# into a JSON object mapping each benchmark to the mean ns/op, B/op, and
# allocs/op over its -count runs.
parse_bench() {
    awk -v count="$COUNT" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)       # strip the GOMAXPROCS suffix
    ns[name]     += $3; seen[name]++
    bytes[name]  += $5
    allocs[name] += $7
}
END {
    printf "{\n  \"count\": %d,\n  \"benchmarks\": {\n", count
    n = 0
    for (name in seen) order[++n] = name
    # Sort names for a stable file.
    for (i = 1; i <= n; i++)
        for (j = i + 1; j <= n; j++)
            if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f}%s\n",
            name, ns[name] / seen[name], bytes[name] / seen[name], allocs[name] / seen[name],
            (i < n) ? "," : ""
    }
    printf "  }\n}\n"
}'
}

if want 4; then
go test -run '^$' -bench 'BenchmarkTable|BenchmarkEngine|BenchmarkSpan' -benchmem -benchtime 2s -count "$COUNT" . ./internal/obs | tee "$RAW"
parse_bench < "$RAW" > BENCH_4.json
echo "wrote BENCH_4.json"
fi

# The (Full|Delta) alternation deliberately excludes the plain
# BenchmarkGreedyRound end-to-end benchmark — BENCH_5 tracks the two
# candidate-pricing paths in isolation.
if want 5; then
go test -run '^$' -bench 'BenchmarkGreedyRound(Full|Delta)' -benchmem -benchtime 1s -count "$COUNT" . | tee "$RAW"
parse_bench < "$RAW" > BENCH_5.json
echo "wrote BENCH_5.json"
fi

# BENCH_7: the backend comparison runs -count times like the others; the
# 10^6-node scale case is appended from a single -benchtime 1x run (its
# setup alone builds a 10^7-edge host, so repetition buys nothing).
if want 7; then
go test -run '^$' -bench 'BenchmarkCSR(Freeze|BFS|Brandes|GreedyRound)' -benchmem -benchtime 1s -count "$COUNT" . | tee "$RAW"
go test -run '^$' -bench 'BenchmarkCSRMillionSweep' -benchmem -benchtime 1x -count 1 -timeout 1800s . | tee -a "$RAW"
parse_bench < "$RAW" > BENCH_7.json
echo "wrote BENCH_7.json"
fi

# BENCH_9: the trace pipeline. The obs-side benches price each layer in
# isolation (disabled fast path, enabled path with flight attached,
# flight retention, trace export); the engine pair prices the whole
# pipeline against the untraced baseline within one file so
# bench_report.sh can compute the overhead ratio from a single run.
if want 9; then
go test -run '^$' -bench 'BenchmarkSpanDisabled$|BenchmarkSpanEnabledRecorder$|BenchmarkTraceExport$|BenchmarkFlightRecorder$' -benchmem -benchtime 2s -count "$COUNT" ./internal/obs | tee "$RAW"
go test -run '^$' -bench 'BenchmarkEnginePooled$|BenchmarkEnginePooledFlight$' -benchmem -benchtime 2s -count "$COUNT" . | tee -a "$RAW"
parse_bench < "$RAW" > BENCH_9.json
echo "wrote BENCH_9.json"
fi

# BENCH_10: the promod serving daemon. The sweep runs against an
# admission-configured server (inflight gate deliberately below
# promoload's worker count so saturation produces 429s rather than an
# unbounded queue); the low-load pair then isolates what the admission
# stack itself costs on the p50 by re-running one gentle level against
# a -max-inflight 0 server. The host defaults to the paper-scale
# 10^6-node BA snapshot; PROMOD_BENCH_N/_K shrink it for quick local
# iterations (the JSON records whatever was used).
if want 10; then
PROMOD_N="${PROMOD_BENCH_N:-1000000}"
PROMOD_K="${PROMOD_BENCH_K:-10}"
PROMOD_RPS="${PROMOD_BENCH_RPS:-1000,2500,5000,8000,16000}"
PROMOD_DUR="${PROMOD_BENCH_DUR:-5s}"
PROMOD_LOW_RPS="${PROMOD_BENCH_LOW_RPS:-200}"
go build -o "$RAW.promod" ./cmd/promod
go build -o "$RAW.promoload" ./cmd/promoload

# boot_promod <extra promod flags...>: start the daemon on a free port
# over the BA host and set PROMOD_ADDR/PROMOD_PID. Startup includes
# generating and freezing the host, so the poll budget is generous.
boot_promod() {
    : > "$RAW.promod.err"
    "$RAW.promod" -listen 127.0.0.1:0 -gen-ba "$PROMOD_N,$PROMOD_K" "$@" \
        2> "$RAW.promod.err" &
    PROMOD_PID=$!
    PROMOD_ADDR=""
    for _ in $(seq 1 6000); do
        PROMOD_ADDR="$(sed -n 's/^promod: listening on //p' "$RAW.promod.err" | head -1)"
        [[ -n "$PROMOD_ADDR" ]] && return 0
        if ! kill -0 "$PROMOD_PID" 2>/dev/null; then break; fi
        sleep 0.1
    done
    echo "promod never announced its listen address:" >&2
    cat "$RAW.promod.err" >&2
    exit 1
}

stop_promod() {
    kill -TERM "$PROMOD_PID" 2>/dev/null || true
    wait "$PROMOD_PID" 2>/dev/null || true
    PROMOD_PID=""
}

# get_p50 <promoload-report>: p50_ms of the report's single level.
get_p50() {
    awk '/"p50_ms"/ { sub(/.*"p50_ms": /, ""); sub(/[^0-9.].*/, ""); print; exit }' "$1"
}

# The sweep server gets the whole admission stack: the inflight gate
# and waiter room bound concurrency, and the per-tenant budget is the
# deterministic saturation backstop — cheap cached answers on a shared
# loopback core drain too fast to pile up 48 concurrent requests, so
# it is the tenant bucket that produces the 429 evidence once demand
# passes its refill rate. 6000/s sits above the 5k-RPS bar but below
# what the shared core can generate, so the top sweep levels shed.
echo "BENCH_10: booting promod on a ${PROMOD_N}-node BA host (k=$PROMOD_K)"
boot_promod -max-inflight 32 -queue 16 -queue-wait 5ms \
    -tenant-rate 6000 -tenant-burst 600
"$RAW.promoload" -addr "$PROMOD_ADDR" -rps "$PROMOD_RPS" -duration "$PROMOD_DUR" \
    -p 4 -targets 64 -workers 64 -tenant bench -out "$RAW.sweep.json"
stop_promod

# Admission-overhead pair: the per-request admission work (one bucket
# take + two channel ops) is tens of nanoseconds against a ~0.6 ms
# loopback p50, so boot-to-boot variance dwarfs the effect. Measure
# each config on two alternating boots and keep the min p50 — min
# filters the boots that landed on a noisy scheduler phase.
ADM_P50=""
NOADM_P50=""
for round in 1 2; do
    boot_promod -max-inflight 32 -queue 16 -queue-wait 5ms \
        -tenant-rate 6000 -tenant-burst 600
    "$RAW.promoload" -addr "$PROMOD_ADDR" -rps "$PROMOD_LOW_RPS" -duration 5s \
        -warmup 2s -p 4 -targets 64 -workers 16 -tenant bench -out "$RAW.adm.json"
    stop_promod
    P="$(get_p50 "$RAW.adm.json")"
    ADM_P50="$(awk -v a="${ADM_P50:-$P}" -v b="$P" 'BEGIN { print (a < b ? a : b) }')"
    boot_promod -max-inflight 0
    "$RAW.promoload" -addr "$PROMOD_ADDR" -rps "$PROMOD_LOW_RPS" -duration 5s \
        -warmup 2s -p 4 -targets 64 -workers 16 -out "$RAW.noadm.json"
    stop_promod
    P="$(get_p50 "$RAW.noadm.json")"
    NOADM_P50="$(awk -v a="${NOADM_P50:-$P}" -v b="$P" 'BEGIN { print (a < b ? a : b) }')"
done
{
    printf '{\n'
    printf '  "host": {"n": %s, "k": %s, "seed": 42, "backend": "csr"},\n' "$PROMOD_N" "$PROMOD_K"
    printf '  "shed_overhead": {\n'
    printf '    "rps": %s,\n' "$PROMOD_LOW_RPS"
    printf '    "admission_p50_ms": %s,\n' "${ADM_P50:-0}"
    printf '    "no_admission_p50_ms": %s\n' "${NOADM_P50:-0}"
    printf '  },\n'
    printf '  "sweep": '
    cat "$RAW.sweep.json"
    printf '}\n'
} > BENCH_10.json
echo "wrote BENCH_10.json (admission p50 ${ADM_P50:-?}ms vs no-admission ${NOADM_P50:-?}ms at $PROMOD_LOW_RPS rps)"
fi
