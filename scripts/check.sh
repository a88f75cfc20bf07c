#!/usr/bin/env bash
# check.sh — the full correctness gate, runnable locally and in CI.
#
#   ./scripts/check.sh          # everything
#   ./scripts/check.sh quick    # skip the race and promodebug test passes
#
# Order is cheapest-first so formatting and vet problems surface before
# the slower test passes.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { echo "== $*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet ./..."
go vet ./...

step "go build ./... (default and promodebug)"
go build ./...
go build -tags promodebug ./...

step "promolint ./... (16-analyzer suite, findings saved to lint-findings.json)"
# One promolint invocation analyzes both build-tag sets (default and
# promodebug) and dedupes shared files. lint-findings.json is a per-run
# artifact (gitignored), regenerated from scratch every time so stale
# findings can never leak between runs; it is written even on failure
# so CI can upload it.
rm -f lint-findings.json
if ! go run ./cmd/promolint -json ./... > lint-findings.json; then
    cat lint-findings.json >&2
    exit 1
fi

step "hotpath-alloc runtime cross-check (BenchmarkSpanDisabled, 0 allocs/op)"
# The static hotpath-alloc analyzer cannot see allocations hidden behind
# cross-package calls; the obs disabled-path benchmark closes that blind
# spot. Both gates must hold together.
bench_out=$(go test ./internal/obs/ -run '^$' -bench BenchmarkSpanDisabled -benchtime 100x -benchmem)
echo "$bench_out" | grep BenchmarkSpanDisabled
if ! echo "$bench_out" | grep -q '\b0 allocs/op'; then
    echo "BenchmarkSpanDisabled allocates — the obs disabled fast path regressed" >&2
    exit 1
fi

step "promod snapshot-swap and pinned-state race suite (go test -race)"
# The swap protocol's whole contract — every admitted request is served
# from exactly one pinned snapshot, reloads never tear a view or drop an
# in-flight request — and the per-snapshot serving state (built once,
# never rebuilt by answer-cache churn, fresh on every reload) only fail
# under concurrency, so these tests run under the race detector even in
# quick mode (the full -race pass below covers them too, but attributing
# a failure to the swap protocol directly is worth the few extra
# seconds).
go test -race -run 'TestConcurrentSnapshotSwap|TestRankIndexSurvivesCacheChurn|TestServingStateFreshAfterReload' ./internal/promod

step "delta-batch worker-pool race suite (go test -race)"
# Betweenness candidate batches fan out over the engine's worker pool
# even on small hosts, and each worker shares the memoized base with the
# others; run the delta suite under the race detector in quick mode too.
go test -race -run 'TestDeltaBatch' ./internal/engine

step "benchmark module tests (cd bench && go test ./...)"
# bench/ is a module of its own, so the root go test never reaches it.
# Its toy-scale end-to-end runs validate every promod answer, so a
# serving change that breaks an answer fails here.
(cd bench && go test ./...)

if [[ "${1:-}" == "quick" ]]; then
    step "go test ./... (quick mode: no -race, no promodebug pass)"
    go test ./...
    echo "OK (quick)"
    exit 0
fi

step "go test -race ./..."
go test -race ./...

step "go test -tags promodebug ./... (runtime invariant checks active)"
go test -tags promodebug ./...

echo "OK"
