package core

import (
	"math"
	"testing"

	"repro/internal/bitset"
	"repro/internal/stats"
)

func TestFlipProbability(t *testing.T) {
	// eps -> 0 gives p -> 0.5 (pure noise); eps large gives p -> 0.
	if p := flipProbability(1e-9); math.Abs(p-0.5) > 1e-6 {
		t.Fatalf("flipProbability(~0) = %v, want ~0.5", p)
	}
	if p := flipProbability(10); p > 0.001 {
		t.Fatalf("flipProbability(10) = %v, want ~0", p)
	}
	if a, b := flipProbability(1), flipProbability(2); a <= b {
		t.Fatalf("flip probability must decrease with eps: %v vs %v", a, b)
	}
}

func TestPerturbActivationsFlipRate(t *testing.T) {
	r := stats.NewRNG(3)
	const width, trials = 200, 50
	eps := 1.0
	want := flipProbability(eps)
	flips := 0
	for trial := 0; trial < trials; trial++ {
		s := bitset.New(width)
		for i := 0; i < width; i += 3 {
			s.Set(i)
		}
		noisy := PerturbActivations(s, eps, r)
		for i := 0; i < width; i++ {
			if s.Test(i) != noisy.Test(i) {
				flips++
			}
		}
	}
	got := float64(flips) / float64(width*trials)
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("empirical flip rate %v, want %v", got, want)
	}
}

func TestPerturbActivationsDoesNotMutateInput(t *testing.T) {
	r := stats.NewRNG(4)
	s := bitset.New(64)
	for _, i := range []int{1, 5, 9} {
		s.Set(i)
	}
	before := s.String()
	PerturbActivations(s, 0.5, r)
	if s.String() != before {
		t.Fatal("input bitset mutated")
	}
}

func TestPerturbActivationsPanicsOnBadEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for eps <= 0")
		}
	}()
	PerturbActivations(bitset.New(8), 0, stats.NewRNG(1))
}

func TestWithLocalDPHighEpsilonPreservesScores(t *testing.T) {
	f := buildFig2(t)
	base := NewTracer(f.rs, f.parts, Config{TauW: 0.6})
	exact := base.Trace(f.test).MicroScores()
	// eps=50: essentially no flips, scores identical.
	dp := base.WithLocalDP(50, 9)
	noisy := dp.Trace(f.test).MicroScores()
	for i := range exact {
		if math.Abs(exact[i]-noisy[i]) > 1e-12 {
			t.Fatalf("eps=50 changed scores: %v vs %v", exact, noisy)
		}
	}
}

func TestWithLocalDPLowEpsilonDegradesGracefully(t *testing.T) {
	f := buildFig2(t)
	base := NewTracer(f.rs, f.parts, Config{TauW: 0.6})
	exact := base.Trace(f.test).MicroScores()
	// Average rank agreement over several DP draws must beat random for a
	// moderate budget and stay defined (no panics) for a harsh one.
	var corr float64
	const reps = 10
	for s := int64(0); s < reps; s++ {
		noisy := base.WithLocalDP(3, s).Trace(f.test).MicroScores()
		corr += stats.Spearman(exact, noisy)
	}
	corr /= reps
	if corr < 0.3 {
		t.Fatalf("eps=3 rank agreement too low: %v", corr)
	}
	// Harsh budget still produces a valid score vector.
	harsh := base.WithLocalDP(0.1, 1).Trace(f.test).MicroScores()
	if len(harsh) != 3 {
		t.Fatalf("harsh DP broke scoring: %v", harsh)
	}
	// The DP tracer must not share mutated state with the base tracer.
	again := base.Trace(f.test).MicroScores()
	for i := range exact {
		if exact[i] != again[i] {
			t.Fatal("WithLocalDP corrupted the base tracer")
		}
	}
}
