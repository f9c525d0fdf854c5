package core

// Hot-path benchmarks for the tracing kernel, isolated from the experiment
// harness: a trained bench-scale model, an 8-participant federation, and a
// few thousand indexed training uploads. BENCH_*.json (repo root) records
// the before/after trajectory of these numbers across PRs; regenerate with
// `go run ./cmd/ctfl bench` (see README "Performance").

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// benchFixture trains one bench-scale model on the synthetic adult data and
// indexes the federation's training uploads.
func benchFixture(b *testing.B, trainRows, testRows int) (*Tracer, *dataset.Table) {
	return benchFixtureCfg(b, trainRows, testRows, Config{TauW: 0.9})
}

// benchFixtureCfg is benchFixture with a caller-chosen tracer config (used
// by the telemetry-overhead benchmarks).
func benchFixtureCfg(b *testing.B, trainRows, testRows int, cfg Config) (*Tracer, *dataset.Table) {
	b.Helper()
	r := stats.NewRNG(7)
	tab := dataset.Adult(r, trainRows+testRows)
	idx := r.Perm(tab.Len())
	train, test := tab.Subset(idx[:trainRows]), tab.Subset(idx[trainRows:])
	enc, err := dataset.NewEncoder(tab.Schema, 10, r)
	if err != nil {
		b.Fatal(err)
	}
	xs, ys := enc.EncodeTable(train)
	m, err := nn.New(enc.Width(), nn.Config{
		Hidden: []int{64}, Epochs: 8, Grafting: true, Seed: 2,
		L1Logic: 2e-4, L2Head: 1e-3,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.TrainEpochs(xs, ys, m.Config().Epochs)
	rs := rules.Extract(m, enc)
	parts := fl.PartitionSkewSample(train, 8, 2.0, r)
	return NewTracer(rs, parts, cfg), test
}

// BenchmarkTraceIndexed measures a full tracing pass (Eq. 4 for every test
// instance plus allocation bookkeeping) against 4000 indexed uploads.
func BenchmarkTraceIndexed(b *testing.B) {
	tracer, test := benchFixture(b, 4000, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tracer.Trace(test)
	}
}

// BenchmarkTraceIndexedObserved is BenchmarkTraceIndexed with the full
// tracer telemetry (strategy counters, latency histograms) enabled, so
// BENCH_*.json pins the instrumentation overhead against the plain run.
func BenchmarkTraceIndexedObserved(b *testing.B) {
	reg := telemetry.NewRegistry()
	tracer, test := benchFixtureCfg(b, 4000, 400, Config{TauW: 0.9, Obs: NewObs(reg)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tracer.Trace(test)
	}
}

// BenchmarkTraceActivations measures the single-pattern Eq. 4 primitive,
// traceOne, on rotating test patterns.
func BenchmarkTraceActivations(b *testing.B) {
	tracer, test := benchFixture(b, 4000, 64)
	acts, pred := tracer.Rules().ActivationsTable(test)
	sides := make([]*bitset.Set, len(acts))
	for i, a := range acts {
		sides[i] = a.Clone().And(tracer.Rules().ClassMask(pred[i]))
	}
	weights := tracer.Rules().Weights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % len(sides)
		_ = tracer.traceOne(sides[s], sides[s].WeightedCount(weights), pred[s])
	}
}

// BenchmarkNewTracer measures index construction: deduplicating every
// upload into its pattern group, then the view's owner histograms.
func BenchmarkNewTracer(b *testing.B) {
	tracer, _ := benchFixture(b, 4000, 64)
	rs := tracer.Rules()
	uploads := make([]TrainingUpload, tracer.NumTraining())
	for j, u := range tracer.v.group {
		uploads[j] = TrainingUpload{
			Owner:       tracer.TrainOwner(j),
			Label:       int(tracer.v.label[u]),
			Activations: tracer.v.pat[u],
		}
	}
	cfg := tracer.Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewTracerFromUploads(rs, tracer.NumParticipants(), uploads, cfg)
	}
}
