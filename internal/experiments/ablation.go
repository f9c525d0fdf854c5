package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/stats"
)

// AblationResult sweeps CTFL's own design knobs on one workload: the
// tracing threshold tau_w (Eq. 4), the macro delta (Eq. 6), and the
// local-DP budget on uploaded activation vectors. One global model is
// trained; every row below is a re-trace.
type AblationResult struct {
	Workload Workload
	Accuracy float64

	TauRows   []TauRow
	DeltaRows []DeltaRow
	DPRows    []DPRow
}

// TauRow is one tau_w setting's outcome.
type TauRow struct {
	Tau         float64
	CoverageGap float64
	ScoreSpread float64 // max-min micro score: how discriminating tracing is
	MeanRelated float64 // average related instances per covered test row
}

// DeltaRow is one macro-delta setting's outcome.
type DeltaRow struct {
	Delta           int
	AllocatedCredit float64 // sum of macro scores (≤ accuracy)
}

// DPRow is one local-DP budget's outcome.
type DPRow struct {
	Epsilon       float64
	RankAgreement float64 // Spearman vs the exact (non-DP) micro scores
}

// RunAblation trains once on the workload and sweeps the tracing knobs.
func RunAblation(s *Setup) (*AblationResult, error) {
	model, err := s.Trainer.Train(s.Parts)
	if err != nil {
		return nil, err
	}
	rs := rules.Extract(model, s.Trainer.Encoder())
	res := &AblationResult{Workload: s.Workload}

	// tau_w sweep.
	for _, tau := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
		tr := core.NewTracer(rs, s.Parts, core.Config{TauW: tau, Delta: s.Workload.Delta})
		out := tr.Trace(s.Test)
		if res.Accuracy == 0 {
			res.Accuracy = out.Accuracy()
		}
		micro := out.MicroScores()
		lo, hi := stats.MinMax(micro)
		covered, related := 0, 0
		for te := 0; te < out.TestSize; te++ {
			total := 0
			for _, c := range out.Counts[te] {
				total += c
			}
			if total > 0 {
				covered++
				related += total
			}
		}
		mean := 0.0
		if covered > 0 {
			mean = float64(related) / float64(covered)
		}
		res.TauRows = append(res.TauRows, TauRow{
			Tau:         tau,
			CoverageGap: out.CoverageGap(),
			ScoreSpread: hi - lo,
			MeanRelated: mean,
		})
	}

	// Macro delta sweep reuses one trace (allocation is independent of
	// tracing, as the paper stresses).
	base := core.NewTracer(rs, s.Parts, core.Config{TauW: s.Workload.TauW}).Trace(s.Test)
	for _, delta := range []int{1, 2, 4, 8, 16} {
		res.DeltaRows = append(res.DeltaRows, DeltaRow{
			Delta:           delta,
			AllocatedCredit: stats.Sum(base.MacroScoresAt(delta)),
		})
	}

	// Local-DP sweep.
	exactTracer := core.NewTracer(rs, s.Parts, core.Config{TauW: s.Workload.TauW})
	exact := exactTracer.Trace(s.Test).MicroScores()
	for _, eps := range []float64{0.5, 1, 2, 4, 8} {
		noisy := exactTracer.WithLocalDP(eps, s.Workload.Seed).Trace(s.Test).MicroScores()
		res.DPRows = append(res.DPRows, DPRow{
			Epsilon:       eps,
			RankAgreement: stats.Spearman(exact, noisy),
		})
	}
	return res, nil
}

// Render prints the three ablation tables.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablations on %s (model accuracy %.4f)\n\n", r.Workload.String(), r.Accuracy)

	t1 := NewTable("tau_w sweep (Eq. 4 tracing threshold)",
		"tau", "coverage-gap", "score-spread", "mean-related")
	for _, row := range r.TauRows {
		t1.AddRow(fmt.Sprintf("%.1f", row.Tau),
			fmt.Sprintf("%.4f", row.CoverageGap),
			fmt.Sprintf("%.4f", row.ScoreSpread),
			fmt.Sprintf("%.1f", row.MeanRelated))
	}
	t1.Render(w)
	fmt.Fprintln(w)

	t2 := NewTable("macro delta sweep (Eq. 6 threshold)", "delta", "allocated-credit")
	for _, row := range r.DeltaRows {
		t2.AddRow(fmt.Sprintf("%d", row.Delta), fmt.Sprintf("%.4f", row.AllocatedCredit))
	}
	t2.Render(w)
	fmt.Fprintln(w)

	t3 := NewTable("local-DP on uploaded activation vectors", "epsilon", "rank-agreement")
	for _, row := range r.DPRows {
		t3.AddRow(fmt.Sprintf("%.1f", row.Epsilon), fmt.Sprintf("%.4f", row.RankAgreement))
	}
	t3.Render(w)
}
