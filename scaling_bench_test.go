package repro

// Scaling benchmarks backing the complexity claims of Section III-C: CTFL's
// tracing cost grows linearly in training and test set sizes (and is
// embarrassingly parallel), while the coalition-retraining baselines grow
// with the number of *coalitions* — exponential in participants for exact
// schemes, Θ(n² log n) trainings for the sampled ones. These benches sweep
// each axis in isolation.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/valuation"
)

// tracingFixture builds a trained model once per benchmark and reuses it.
func tracingFixture(b *testing.B, trainRows, testRows int) (*rules.Set, []*fl.Participant, *dataset.Table) {
	b.Helper()
	r := stats.NewRNG(1)
	tab := dataset.Adult(r, trainRows+testRows)
	idx := r.Perm(tab.Len())
	train := tab.Subset(idx[:trainRows])
	test := tab.Subset(idx[trainRows:])
	enc, err := dataset.NewEncoder(tab.Schema, 10, r)
	if err != nil {
		b.Fatal(err)
	}
	xs, ys := enc.EncodeTable(train)
	m, err := nn.New(enc.Width(), nn.Config{
		Hidden: []int{64}, Epochs: 10, Grafting: true, Seed: 2,
		L1Logic: 2e-4, L2Head: 1e-3,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.TrainEpochs(xs, ys, m.Config().Epochs)
	rs := rules.Extract(m, enc)
	parts := fl.PartitionSkewSample(train, 8, 2.0, r)
	return rs, parts, test
}

// BenchmarkScalingTrainingRows sweeps |D_N| at fixed |D_te|: tracing is a
// linear scan over training activation vectors per unique test pattern.
func BenchmarkScalingTrainingRows(b *testing.B) {
	for _, rows := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("train=%d", rows), func(b *testing.B) {
			rs, parts, test := tracingFixture(b, rows, 300)
			tracer := core.NewTracer(rs, parts, core.Config{TauW: 0.9})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tracer.Trace(test)
			}
		})
	}
}

// BenchmarkScalingTestRows sweeps |D_te| at fixed |D_N|: pattern dedup makes
// the marginal cost of an extra test row with a seen pattern near zero.
func BenchmarkScalingTestRows(b *testing.B) {
	for _, rows := range []int{100, 300, 900} {
		b.Run(fmt.Sprintf("test=%d", rows), func(b *testing.B) {
			rs, parts, test := tracingFixture(b, 1500, rows)
			tracer := core.NewTracer(rs, parts, core.Config{TauW: 0.9})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tracer.Trace(test)
			}
		})
	}
}

// BenchmarkScalingParticipantsShapley shows the baseline pain: distinct
// coalition trainings needed by the sampled Shapley at the paper's budget,
// as a reported metric, versus CTFL's constant single training. The utility
// function here is a stub counter (no actual training), isolating the
// combinatorial growth itself.
func BenchmarkScalingParticipantsShapley(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var distinct float64
			for i := 0; i < b.N; i++ {
				seen := map[uint64]bool{}
				v := func(mask uint64) (float64, error) {
					seen[mask] = true
					return float64(mask%97) / 97, nil
				}
				_, err := valuation.SampledShapley(n, v, valuation.ShapleyConfig{
					Rand: stats.NewRNG(int64(i)),
				})
				if err != nil {
					b.Fatal(err)
				}
				distinct = float64(len(seen))
			}
			b.ReportMetric(distinct, "distinct-coalitions")
			b.ReportMetric(1, "ctfl-trainings")
		})
	}
}
