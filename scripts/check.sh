#!/usr/bin/env bash
# Repository health check: static analysis, full build, race-enabled tests
# on the hot-path packages (plus the full suite), and a short benchmark
# smoke run proving the benchmarks still execute. CI and pre-commit both
# call this; README "Development" documents it.
set -euo pipefail
cd "$(dirname "$0")/.."

# `check.sh chaos` runs only the fault-injection soak: the full stack under
# -race with deterministic faults at every site (WAL, compaction, snapshot
# rename, job errors + panics, HTTP handlers, client requests), asserting
# the traced factors stay bit-identical to a fault-free run.
if [[ "${1:-}" == "chaos" ]]; then
    echo "== chaos soak (-race, deterministic fault injection, fixed seed)"
    go test -race -run 'TestChaosSoak' -count=1 -v ./internal/server/
    exit 0
fi

echo "== gofmt -l (root module; bench/ is the benchmark's own module)"
unformatted="$(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -exec gofmt -l {} +)"
if [[ -n "$unformatted" ]]; then
    echo "gofmt would reformat:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go vet (bench/, a nested module the root ./... skips)"
(cd bench && go vet ./...)

echo "== deadcode (every non-test function has a non-test caller or a keep-list reason)"
go run ./scripts/deadcode

echo "== go build ./..."
go build ./...

echo "== go test -race (hot paths: nn, core, bitset, protocol)"
go test -race ./internal/nn/... ./internal/core/... ./internal/bitset/... ./internal/protocol/...

echo "== go test -race (service layer: store, jobs, server, telemetry, flight)"
go test -race ./internal/store/... ./internal/jobs/... ./internal/server/... ./internal/telemetry/... ./internal/flight/...

echo "== go test -race (valuation engine + round stream + FL trainer, parallel paths exercised)"
go test -race ./internal/valuation/... ./internal/rounds/... ./internal/fl/...
go test -race -short ./internal/experiments/...

echo "== go test -race (adversarial robustness: attack matrix + ContAvg defense)"
go test -race ./internal/attack/...

echo "== attack-matrix smoke (one attack x one scheme through both valuation paths)"
go test -run=TestMatrixAcrossWorkers -count=1 ./internal/attack/

echo "== go test ./... (full suite)"
go test ./...

echo "== zero-alloc pins (training hot loop; disabled fault injector; cached utility; coalition scoring)"
go test -run=TestTrainInnerLoopZeroAlloc -count=1 -v ./internal/nn/ | grep -E 'PASS|FAIL|allocates'
go test -run=TestBatchGradAllocs -count=1 -v ./internal/nn/ | grep -E 'PASS|FAIL|allocates'
go test -run=TestEvalCoalitionSteadyStateAllocs -count=1 -v ./internal/rounds/ | grep -E 'PASS|FAIL|allocates'
go test -run=TestDisabledInjectorZeroAlloc -count=1 -v ./internal/faults/ | grep -E 'PASS|FAIL|allocates'
go test -run=TestUtilityCacheHitZeroAlloc -count=1 -v ./internal/valuation/ | grep -E 'PASS|FAIL|allocates'

echo "== zero-alloc pins (tracing kernel; index append into an existing group)"
go test -run=TestTraceKernelAllocs -count=1 -v ./internal/core/ | grep -E 'PASS|FAIL|allocates'
go test -run=TestIndexAppendExistingGroupZeroAlloc -count=1 -v ./internal/core/ | grep -E 'PASS|FAIL|allocates'

echo "== zero-alloc pins (wire-protocol ingest + predict hot paths)"
go test -run=TestValidateUploadFrameZeroAlloc -count=1 -v ./internal/protocol/ | grep -E 'PASS|FAIL|allocates'
go test -run=TestValidateRoundUpdateFrameZeroAlloc -count=1 -v ./internal/protocol/ | grep -E 'PASS|FAIL|allocates'
go test -run=TestBinarizedScoreBatchZeroAlloc -count=1 -v ./internal/nn/ | grep -E 'PASS|FAIL|allocates'

echo "== zero-alloc pin (flight recorder steady state)"
go test -run=TestRecordSteadyStateZeroAlloc -count=1 -v ./internal/flight/ | grep -E 'PASS|FAIL|allocates'

echo "== fuzz smoke (wire-protocol decoders, WAL replay and the CSV parser, 3s each)"
for tgt in FuzzUploadFrame FuzzParseFrame FuzzPredictRequest FuzzTraceResult FuzzRoundUpdate FuzzScoresSnapshot FuzzWALSegment; do
    go test -run=NONE -fuzz="^${tgt}\$" -fuzztime=3s ./internal/protocol/ | tail -1
done
go test -run=NONE -fuzz='^FuzzReplay$' -fuzztime=3s ./internal/store/ | tail -1
go test -run=NONE -fuzz='^FuzzReadCSVColumns$' -fuzztime=3s ./internal/dataset/ | tail -1

echo "== bench smoke (1 iteration per hot-path benchmark)"
go test -run=NONE -bench='BenchmarkTraceIndexed|BenchmarkTrainEpochs' -benchtime=1x \
    ./internal/core/ ./internal/nn/
go test -run=NONE -bench='BenchmarkOracleBatch|BenchmarkSampledShapleyParallel' -benchtime=1x \
    ./internal/valuation/
go test -run=NONE -bench='BenchmarkTraceResult|BenchmarkUploadIngest' -benchtime=1x \
    ./internal/protocol/
go test -run=NONE -bench='BenchmarkRoundIngest|BenchmarkIncrementalScores|BenchmarkRoundCompute' -benchtime=1x \
    ./internal/rounds/
go test -run=NONE -bench='BenchmarkFlightRecord' -benchtime=1x \
    ./internal/flight/

echo "== observability smoke (boot ctflsrv, scrape /metrics, graceful drain)"
tmpbin="$(mktemp -d)"
trap 'rm -rf "$tmpbin"' EXIT
go build -o "$tmpbin/ctflsrv" ./cmd/ctflsrv
go run ./scripts/metricsmoke -bin "$tmpbin/ctflsrv"

echo "== benchdiff (pinned hot paths vs newest BENCH_*.json, >20% ns/op regression fails)"
go run ./scripts/benchdiff

echo "OK: all checks passed"
