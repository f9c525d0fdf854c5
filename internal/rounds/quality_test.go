package rounds

import (
	"testing"

	"repro/internal/telemetry"
)

func TestQualityInstruments(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fix := fixture(t)
	reg := telemetry.NewRegistry()
	obs := NewObs(reg)
	e := streamAll(t, fix, Config{
		Model: fix.sim.Model, EvalX: fix.evalX, EvalY: fix.evalY,
		Seed: 9, Permutations: 12, Epsilon: -1, Obs: obs, QualityWindow: 4,
	})

	if n := len(e.driftWindow); n != 4 {
		t.Fatalf("drift window holds %d snapshots after 8 rounds with window 4", n)
	}
	snap := reg.Snapshot()
	drift, _ := snap["ctfl_rounds_score_drift"].(float64)
	trunc, _ := snap["ctfl_rounds_truncation_rate"].(float64)
	variance, _ := snap["ctfl_rounds_sampling_variance"].(float64)
	width, _ := snap["ctfl_rounds_confidence_width"].(float64)
	if drift <= 0 {
		t.Fatalf("drift = %v for a still-moving stream", drift)
	}
	if trunc < 0 || trunc > 1 {
		t.Fatalf("truncation rate = %v", trunc)
	}
	if variance < 0 || width < 0 {
		t.Fatalf("negative quality values: variance %v, width %v", variance, width)
	}
	// A sampled estimate over a non-trivial game carries real spread.
	if variance == 0 || width == 0 {
		t.Fatalf("sampling spread reported as exactly zero: variance %v, width %v", variance, width)
	}
}

// qualityGauges reads the four score-quality gauges.
func qualityGauges(obs *Obs) [4]float64 {
	return [4]float64{
		obs.ScoreDrift.Value(), obs.TruncationRate.Value(),
		obs.SamplingVariance.Value(), obs.ConfidenceWidth.Value(),
	}
}

func TestQualityDriftTracksTrailingWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fix := fixture(t)
	obs := NewObs(telemetry.NewRegistry())
	e, err := New(Config{
		Model: fix.sim.Model, EvalX: fix.evalX, EvalY: fix.evalY,
		Seed: 9, Permutations: 8, Epsilon: -1, QualityWindow: 2, Obs: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	var prev []float64
	pushed := 0
	for round, ups := range fix.sim.Updates {
		if len(ups) == 0 {
			continue
		}
		before := e.Snapshot().Scores
		pushRound(t, e, round, toParts(ups))
		pushed++
		if pushed < 2 {
			prev = before
			continue
		}
		// Window 2: drift compares the current scores against the previous
		// applied snapshot.
		cur := e.Snapshot().Scores
		want := 0.0
		for id, c := range cur {
			old := 0.0
			if id < len(before) {
				old = before[id]
			}
			if d := abs(c - old); d > want {
				want = d
			}
		}
		if got := obs.ScoreDrift.Value(); got != want {
			t.Fatalf("round %d drift = %v, want %v", round, got, want)
		}
		prev = before
	}
	_ = prev
	if pushed < 3 {
		t.Fatalf("fixture pushed only %d rounds", pushed)
	}
}

func TestQualityDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fix := fixture(t)
	obs := NewObs(telemetry.NewRegistry())
	e := streamAll(t, fix, Config{
		Model: fix.sim.Model, EvalX: fix.evalX, EvalY: fix.evalY,
		Seed: 9, Permutations: 8, Epsilon: -1, QualityWindow: -1, Obs: obs,
	})
	if q := qualityGauges(obs); q != [4]float64{} || len(e.driftWindow) != 0 {
		t.Fatalf("disabled quality tracked state: gauges %v, window %d", q, len(e.driftWindow))
	}
}

// TestQualityReplayRestartsCold pins the documented restart semantics:
// replayed payloads rebuild scores (so drift resumes) but carry no
// sampling diagnostics, which stay zero until the next live-scored round.
func TestQualityReplayRestartsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fix := fixture(t)
	liveObs := NewObs(telemetry.NewRegistry())
	live := streamAll(t, fix, Config{
		Model: fix.sim.Model, EvalX: fix.evalX, EvalY: fix.evalY,
		Seed: 9, Permutations: 8, Epsilon: -1, QualityWindow: 4, Obs: liveObs,
	})
	if liveObs.SamplingVariance.Value() == 0 {
		t.Fatal("live engine has no sampling diagnostics to contrast with")
	}
	obs := NewObs(telemetry.NewRegistry())
	replayed, err := New(Config{
		Model: fix.sim.Model, EvalX: fix.evalX, EvalY: fix.evalY,
		Seed: 9, Permutations: 8, Epsilon: -1, QualityWindow: 4, Obs: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range live.Payloads() {
		if err := replayed.ApplyPayload(p); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(replayed.driftWindow); n != 4 || obs.ScoreDrift.Value() != liveObs.ScoreDrift.Value() {
		t.Fatalf("replayed drift diverged: window %d, drift %v vs %v",
			n, obs.ScoreDrift.Value(), liveObs.ScoreDrift.Value())
	}
	if q := qualityGauges(obs); q[1] != 0 || q[2] != 0 || q[3] != 0 {
		t.Fatalf("replayed engine claims sampling diagnostics it never computed: %v", q)
	}
}
