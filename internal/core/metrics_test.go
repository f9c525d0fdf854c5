package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func TestWeightedScoresReducesToMicro(t *testing.T) {
	f := buildFig2(t)
	res := NewTracer(f.rs, f.parts, Config{TauW: 0.6}).Trace(f.test)
	uniform := make([]float64, res.TestSize)
	for i := range uniform {
		uniform[i] = 1 / float64(res.TestSize)
	}
	approxSlice(t, res.WeightedScores(uniform), res.MicroScores(), 1e-12, "uniform weights vs micro")
}

func TestWeightedScoresPanicsOnLengthMismatch(t *testing.T) {
	f := buildFig2(t)
	res := NewTracer(f.rs, f.parts, Config{TauW: 0.6}).Trace(f.test)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	res.WeightedScores([]float64{1})
}

func TestWeightedScoresGroupRationality(t *testing.T) {
	f := buildFig2(t)
	res := NewTracer(f.rs, f.parts, Config{TauW: 0.6}).Trace(f.test)
	// Arbitrary weights: scores must sum to the metric over covered correct
	// instances.
	w := []float64{0.4, 0.1, 0.3, 0.2}
	want := 0.0
	for te := 0; te < res.TestSize; te++ {
		if !res.Correct(te) {
			continue
		}
		total := 0
		for _, c := range res.Counts[te] {
			total += c
		}
		if total > 0 {
			want += w[te]
		}
	}
	got := stats.Sum(res.WeightedScores(w))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("weighted group rationality: sum %v, want %v", got, want)
	}
}

func TestRecallScores(t *testing.T) {
	f := buildFig2(t)
	res := NewTracer(f.rs, f.parts, Config{TauW: 0.6}).Trace(f.test)
	posRecall := res.RecallScores(1)
	negRecall := res.RecallScores(0)
	// Positive recall: only te0 of the 3 positive instances is correct and
	// covered → credit 1/3 split A 4/6, C 2/6.
	approxSlice(t, posRecall, []float64{(1.0 / 3) * (4.0 / 6), 0, (1.0 / 3) * (2.0 / 6)}, 1e-12, "pos recall")
	// Negative recall: te2 is the only negative instance → full credit.
	approxSlice(t, negRecall, []float64{0, 6.0 / 8, 2.0 / 8}, 1e-12, "neg recall")
	// Additivity across metrics: balanced accuracy = (recall+ + recall-)/2.
	// Its weights are 1/6 per positive instance and 1/2 for the negative
	// one: te0 credit 1/6 splits A 4/6, C 2/6; te2 credit 1/2 splits B 6/8,
	// C 2/8.
	balanced := []float64{
		(1.0 / 6) * (4.0 / 6),
		(1.0 / 2) * (6.0 / 8),
		(1.0/6)*(2.0/6) + (1.0/2)*(2.0/8),
	}
	for i := range posRecall {
		sum := (posRecall[i] + negRecall[i]) / 2
		if math.Abs(sum-balanced[i]) > 1e-12 {
			t.Fatalf("additivity over metrics violated at %d: %v, want %v", i, sum, balanced[i])
		}
	}
}

func TestMergeResultsEquivalentToUnionTrace(t *testing.T) {
	f := buildFig2(t)
	tr := NewTracer(f.rs, f.parts, Config{TauW: 0.6})
	half1 := &dataset.Table{Schema: f.test.Schema, Instances: f.test.Instances[:2]}
	half2 := &dataset.Table{Schema: f.test.Schema, Instances: f.test.Instances[2:]}
	merged, err := MergeResults(tr.Trace(half1), tr.Trace(half2))
	if err != nil {
		t.Fatal(err)
	}
	full := tr.Trace(f.test)

	approxSlice(t, merged.MicroScores(), full.MicroScores(), 1e-12, "merged micro")
	approxSlice(t, merged.MacroScores(), full.MacroScores(), 1e-12, "merged macro")
	approxSlice(t, merged.MicroLossScores(), full.MicroLossScores(), 1e-12, "merged loss")
	approxSlice(t, merged.UselessRatio(), full.UselessRatio(), 1e-12, "merged useless ratio")
	if merged.Accuracy() != full.Accuracy() {
		t.Fatalf("merged accuracy %v vs %v", merged.Accuracy(), full.Accuracy())
	}
	// Interpretability counters must merge too.
	mp := merged.Profile(0, 0)
	fp := full.Profile(0, 0)
	if len(mp.Beneficial) != len(fp.Beneficial) {
		t.Fatalf("merged profile rules %d vs %d", len(mp.Beneficial), len(fp.Beneficial))
	}
	for i := range mp.Beneficial {
		if math.Abs(mp.Beneficial[i].Credit-fp.Beneficial[i].Credit) > 1e-12 {
			t.Fatalf("merged profile credit mismatch at %d", i)
		}
	}
}

func TestMergeResultsRejectsDifferentTracers(t *testing.T) {
	f := buildFig2(t)
	a := NewTracer(f.rs, f.parts, Config{TauW: 0.6}).Trace(f.test)
	b := NewTracer(f.rs, f.parts, Config{TauW: 0.6}).Trace(f.test)
	if _, err := MergeResults(a, b); err == nil {
		t.Fatal("different tracers should be rejected")
	}
}
