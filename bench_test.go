// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VI), plus ablations of the design choices called out in
// DESIGN.md §4. Each benchmark prints the same rows/series the paper
// reports (visible with `go test -bench=. -v`) and exports the headline
// numbers as custom benchmark metrics.
//
// Scale note: benchmark workloads are laptop-sized (hundreds of rows, 5
// participants) so the whole suite completes in minutes; `ctfl run <exp>`
// exposes the full-size configurations. The paper's comparisons are about
// shape (who wins, by what factor), which is preserved at this scale.
package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/stats"
)

// benchWorkload returns a bench-scale workload for the named dataset.
func benchWorkload(name string, skewLabel bool) experiments.Workload {
	return experiments.Workload{
		Dataset:      name,
		Rows:         600,
		Participants: 5,
		SkewLabel:    skewLabel,
		Seed:         1,
		Rounds:       2,
		LocalEpochs:  8,
		Hidden:       48,
	}
}

// BenchmarkTable2 regenerates the Table II motivating example: coalition
// utilities for {A,B,C} and the scores each classical scheme derives.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(7)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			res.Render(&buf)
			b.Log("\n" + buf.String())
			b.ReportMetric(res.Utilities["A,B,C"], "v(ABC)")
			b.ReportMetric(res.Utilities["A,B"], "v(AB)")
		}
	}
}

// BenchmarkFig4 regenerates the remove-top-contributors curves, one
// sub-benchmark per dataset × skew case. The AUC of the CTFL-micro curve is
// exported as a metric (smaller = better contribution ranking).
func BenchmarkFig4(b *testing.B) {
	for _, ds := range []string{"tic-tac-toe", "adult", "bank", "dota2"} {
		for _, skew := range []struct {
			name  string
			label bool
		}{{"skew-sample", false}, {"skew-label", true}} {
			b.Run(ds+"/"+skew.name, func(b *testing.B) {
				// The paper drops Shapley/LeastCore on dota2.
				expensive := ds != "dota2"
				for i := 0; i < b.N; i++ {
					s, err := experiments.Materialize(benchWorkload(ds, skew.label))
					if err != nil {
						b.Fatal(err)
					}
					res, err := experiments.RunFig4(s, 4, expensive)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						var buf bytes.Buffer
						res.Render(&buf)
						b.Log("\n" + buf.String())
						for _, m := range res.Methods {
							if m.Name == "CTFL-micro" {
								b.ReportMetric(m.AUC, "ctfl-micro-AUC")
							}
						}
					}
				}
			})
		}
	}
}

// BenchmarkFig5 regenerates the execution-time comparison. The speedup of
// CTFL-micro over the slowest combinatorial scheme is exported; the paper
// reports 2-3 orders of magnitude at full scale.
func BenchmarkFig5(b *testing.B) {
	for _, ds := range []string{"tic-tac-toe", "adult", "bank", "dota2"} {
		b.Run(ds, func(b *testing.B) {
			expensive := ds != "dota2"
			for i := 0; i < b.N; i++ {
				s, err := experiments.Materialize(benchWorkload(ds, true))
				if err != nil {
					b.Fatal(err)
				}
				res, err := experiments.RunFig5(s, expensive)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var buf bytes.Buffer
					res.Render(&buf)
					b.Log("\n" + buf.String())
					b.ReportMetric(res.SpeedupOver("CTFL-micro"), "ctfl-speedup-x")
				}
			}
		})
	}
}

// BenchmarkFig6 regenerates the robustness study: relative contribution
// change of attacked participants under replication, low-quality data and
// label flipping, per scheme.
func BenchmarkFig6(b *testing.B) {
	for _, ds := range []string{"tic-tac-toe", "bank"} {
		b.Run(ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := experiments.Materialize(benchWorkload(ds, true))
				if err != nil {
					b.Fatal(err)
				}
				res, err := experiments.RunFig6(s, 2, ds == "tic-tac-toe")
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var buf bytes.Buffer
					res.Render(&buf)
					b.Log("\n" + buf.String())
					for _, row := range res.Rows {
						if row.Behaviour != experiments.Replication {
							continue
						}
						for _, m := range row.Methods {
							if m.Name == "CTFL-macro" {
								b.ReportMetric(m.MeanChange, "macro-replication-drift")
							}
						}
					}
				}
			}
		})
	}
}

// BenchmarkFig7 regenerates the tic-tac-toe interpretability case study.
func BenchmarkFig7(b *testing.B) {
	benchInterpret(b, "tic-tac-toe")
}

// BenchmarkTableV regenerates the adult interpretability case study.
func BenchmarkTableV(b *testing.B) {
	benchInterpret(b, "adult")
}

func benchInterpret(b *testing.B, ds string) {
	for i := 0; i < b.N; i++ {
		w := experiments.Workload{
			Dataset: ds, Rows: 1200, Participants: 3, SkewLabel: true,
			Seed: 5, Rounds: 8, LocalEpochs: 15,
		}
		s, err := experiments.Materialize(w)
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiments.RunInterpret(s, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			res.Render(&buf)
			b.Log("\n" + buf.String())
			b.ReportMetric(res.Accuracy, "model-accuracy")
		}
	}
}

// trainedFixture trains one model on a bench workload and returns the
// pieces needed for tracing-level ablations.
func trainedFixture(b *testing.B, ds string, rows int) (*experiments.Setup, *rules.Set) {
	b.Helper()
	w := benchWorkload(ds, true)
	w.Rows = rows
	s, err := experiments.Materialize(w)
	if err != nil {
		b.Fatal(err)
	}
	model, err := s.Trainer.Train(s.Parts)
	if err != nil {
		b.Fatal(err)
	}
	return s, rules.Extract(model, s.Trainer.Encoder())
}

// BenchmarkAblationTau sweeps the tracing threshold tau_w (Eq. 4): higher
// thresholds acknowledge fewer related rows (larger coverage gap), lower
// thresholds spread credit more evenly. The paper recommends [0.8, 1].
func BenchmarkAblationTau(b *testing.B) {
	s, rs := trainedFixture(b, "tic-tac-toe", 0)
	for _, tau := range []float64{0.6, 0.8, 0.9, 1.0} {
		b.Run(fmt.Sprintf("tau=%.1f", tau), func(b *testing.B) {
			var gap, spread float64
			for i := 0; i < b.N; i++ {
				tracer := core.NewTracer(rs, s.Parts, core.Config{TauW: tau})
				res := tracer.Trace(s.Test)
				gap = res.CoverageGap()
				micro := res.MicroScores()
				lo, hi := stats.MinMax(micro)
				spread = hi - lo
			}
			b.ReportMetric(gap, "coverage-gap")
			b.ReportMetric(spread, "score-spread")
		})
	}
}

// BenchmarkAblationGrafting compares the paper's gradient-grafted training
// against continuous training with post-hoc 0.5-binarization. The metric is
// the binarized test accuracy — grafting exists to close this gap.
func BenchmarkAblationGrafting(b *testing.B) {
	tab := dataset.TicTacToe()
	for _, grafting := range []bool{true, false} {
		name := "grafted"
		if !grafting {
			name = "posthoc-binarize"
		}
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				r := stats.NewRNG(1)
				train, test := tab.Split(r, 0.2)
				enc, err := dataset.NewEncoder(tab.Schema, 10, r)
				if err != nil {
					b.Fatal(err)
				}
				xtr, ytr := enc.EncodeTable(train)
				xte, yte := enc.EncodeTable(test)
				m, err := nn.New(enc.Width(), nn.Config{
					Hidden: []int{64}, Epochs: 40, Grafting: grafting, Seed: 7,
					L1Logic: 2e-4, L2Head: 1e-3,
				})
				if err != nil {
					b.Fatal(err)
				}
				m.TrainEpochs(xtr, ytr, m.Config().Epochs)
				acc = m.Accuracy(xte, yte)
			}
			b.ReportMetric(acc, "binarized-accuracy")
		})
	}
}

// BenchmarkAblationMacroDelta sweeps the macro threshold delta (Eq. 6),
// showing the progressive score generation the paper highlights as free.
func BenchmarkAblationMacroDelta(b *testing.B) {
	s, rs := trainedFixture(b, "bank", 800)
	tracer := core.NewTracer(rs, s.Parts, core.Config{TauW: 0.85})
	res := tracer.Trace(s.Test)
	for _, delta := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				sum = stats.Sum(res.MacroScoresAt(delta))
			}
			b.ReportMetric(sum, "allocated-credit")
		})
	}
}

// BenchmarkAblationDP sweeps the local-DP budget on uploaded activation
// vectors (randomized response; Section V privacy analysis). The metric is
// the Spearman rank agreement between DP scores and exact scores — the
// privacy/fidelity trade-off curve.
func BenchmarkAblationDP(b *testing.B) {
	s, rs := trainedFixture(b, "tic-tac-toe", 0)
	base := core.NewTracer(rs, s.Parts, core.Config{TauW: 0.9})
	exact := base.Trace(s.Test).MicroScores()
	for _, eps := range []float64{0.5, 1, 3, 8} {
		b.Run(fmt.Sprintf("eps=%.1f", eps), func(b *testing.B) {
			var corr float64
			for i := 0; i < b.N; i++ {
				noisy := base.WithLocalDP(eps, int64(i)).Trace(s.Test).MicroScores()
				corr = stats.Spearman(exact, noisy)
			}
			b.ReportMetric(corr, "rank-agreement")
		})
	}
}

// BenchmarkTracingThroughput measures the core tracing loop in isolation:
// test instances traced per second against an indexed federation, the
// quantity behind CTFL's single-pass speed claim.
func BenchmarkTracingThroughput(b *testing.B) {
	s, rs := trainedFixture(b, "adult", 1500)
	tracer := core.NewTracer(rs, s.Parts, core.Config{TauW: 0.9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tracer.Trace(s.Test)
	}
	b.ReportMetric(float64(s.Test.Len()), "test-rows/trace")
}

// BenchmarkFedAvgRound measures one FedAvg aggregation round end-to-end.
func BenchmarkFedAvgRound(b *testing.B) {
	w := benchWorkload("adult", false)
	w.Rounds = 1
	w.LocalEpochs = 2
	s, err := experiments.Materialize(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Trainer.Train(s.Parts); err != nil {
			b.Fatal(err)
		}
	}
}
