package valuation

// Tests for the concurrent coalition-valuation engine: mask guarding,
// singleflight dedup, batch evaluation, and the determinism contract —
// every scheme's output is bit-identical to the sequential path regardless
// of worker count. Synthetic oracles (no FedAvg cost) exercise the
// machinery; one integration test pins the contract on real training.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fl"
)

// newSyntheticOracle builds an oracle over n virtual participants whose
// "training" is fn: the engine's concurrency, dedup and determinism
// machinery without FedAvg cost.
func newSyntheticOracle(n int, fn func(mask uint64) (float64, error)) *Oracle {
	o, err := NewFuncOracle(n, fn)
	if err != nil {
		panic(err)
	}
	return o
}

// syntheticUtility is a deterministic, mask-pure utility cheap enough to
// evaluate thousands of coalitions. Safe for concurrent use.
func syntheticUtility(mask uint64) (float64, error) {
	h := mask * 0x9E3779B97F4A7C15
	return float64(h%1000) / 1000, nil
}

func TestNewOracleRejectsOversizedFederation(t *testing.T) {
	parts := make([]*fl.Participant, MaxParticipants+1)
	for i := range parts {
		parts[i] = &fl.Participant{ID: i}
	}
	if _, err := NewOracle(nil, parts, nil); err == nil {
		t.Fatal("NewOracle accepted 65 participants; masks would alias")
	}
}

func TestOracleRejectsAliasingMask(t *testing.T) {
	o := newSyntheticOracle(8, syntheticUtility)
	if _, err := o.Utility(1 << 8); err == nil {
		t.Fatal("Utility accepted a mask bit outside the federation")
	}
	if _, err := o.Utility(1 << 63); err == nil {
		t.Fatal("Utility accepted bit 63 in an 8-participant federation")
	}
	if _, err := o.Utility(0b1011); err != nil {
		t.Fatalf("valid mask rejected: %v", err)
	}
}

// TestUtilityCacheHitZeroAlloc pins the memo's hot path: serving a cached
// utility — what every scheme does thousands of times per run — allocates
// nothing.
func TestUtilityCacheHitZeroAlloc(t *testing.T) {
	o := newSyntheticOracle(8, syntheticUtility)
	const mask = uint64(0b1011)
	if _, err := o.Utility(mask); err != nil { // fill the cache
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := o.Utility(mask); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("cache-hit Utility allocates %v/op, want 0", n)
	}
}

func TestFullMask64(t *testing.T) {
	if got := fullMask(64); got != ^uint64(0) {
		t.Fatalf("fullMask(64) = %#x", got)
	}
	if got := fullMask(3); got != 0b111 {
		t.Fatalf("fullMask(3) = %#x", got)
	}
}

func TestOracleSingleflightDedup(t *testing.T) {
	var trainings atomic.Int64
	o := newSyntheticOracle(8, func(mask uint64) (float64, error) {
		trainings.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the in-flight window
		return syntheticUtility(mask)
	})
	o.Workers = 8

	const callers = 16
	var wg sync.WaitGroup
	vals := make([]float64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u, err := o.Utility(0b1010)
			if err != nil {
				t.Error(err)
				return
			}
			vals[i] = u
		}(i)
	}
	wg.Wait()
	if n := trainings.Load(); n != 1 {
		t.Fatalf("trainings = %d, want 1 (singleflight dedup)", n)
	}
	if o.Evals() != 1 {
		t.Fatalf("Evals = %d, want 1", o.Evals())
	}
	for i := 1; i < callers; i++ {
		if vals[i] != vals[0] {
			t.Fatalf("caller %d saw %v, caller 0 saw %v", i, vals[i], vals[0])
		}
	}
}

func TestEvalBatchDedupAndErrors(t *testing.T) {
	var trainings atomic.Int64
	boom := errors.New("boom")
	o := newSyntheticOracle(8, func(mask uint64) (float64, error) {
		trainings.Add(1)
		if mask == 0b11 {
			return 0, boom
		}
		return syntheticUtility(mask)
	})
	o.Workers = 4

	plan := []uint64{0b1, 0b10, 0b1, 0b10, 0b100, 0, 0b100}
	if err := o.EvalBatch(plan); err != nil {
		t.Fatal(err)
	}
	if n := trainings.Load(); n != 3 {
		t.Fatalf("trainings = %d, want 3 (dedup within batch; empty mask free)", n)
	}
	// Re-submitting the same plan is free.
	if err := o.EvalBatch(plan); err != nil {
		t.Fatal(err)
	}
	if n := trainings.Load(); n != 3 {
		t.Fatalf("trainings after warm resubmit = %d, want 3", n)
	}
	if err := o.EvalBatch([]uint64{0b1000, 0b11}); !errors.Is(err, boom) {
		t.Fatalf("EvalBatch error = %v, want boom", err)
	}
	// Failed masks are not cached as done: a retry re-trains them.
	if err := o.EvalBatch([]uint64{0b11}); !errors.Is(err, boom) {
		t.Fatalf("retry error = %v, want boom", err)
	}
}

func TestPlanHelpers(t *testing.T) {
	if got := PlanIndividual(3); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("PlanIndividual(3) = %v", got)
	}
	loo := PlanLeaveOneOut(3)
	want := []uint64{0b111, 0b110, 0b101, 0b011}
	if len(loo) != len(want) {
		t.Fatalf("PlanLeaveOneOut(3) = %v", loo)
	}
	for i := range want {
		if loo[i] != want[i] {
			t.Fatalf("PlanLeaveOneOut(3)[%d] = %#x, want %#x", i, loo[i], want[i])
		}
	}
	perms := [][]int{{2, 0, 1}, {1, 2, 0}}
	pp := PlanPermutationPrefixes(3, perms, 1)
	wantPP := []uint64{0, 0b111, 0b100, 0b010}
	if len(pp) != len(wantPP) {
		t.Fatalf("PlanPermutationPrefixes = %v", pp)
	}
	for i := range wantPP {
		if pp[i] != wantPP[i] {
			t.Fatalf("PlanPermutationPrefixes[%d] = %#x, want %#x", i, pp[i], wantPP[i])
		}
	}
}

// legacySampledShapley is the pre-engine sequential implementation, kept
// verbatim as the reference the parallel walker must match bit-for-bit.
func legacySampledShapley(n int, v Utility, perms int, eps float64, r *rand.Rand) ([]float64, error) {
	full := fullMask(n)
	vFull, err := v(full)
	if err != nil {
		return nil, err
	}
	vEmpty, err := v(0)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for p := 0; p < perms; p++ {
		order := r.Perm(n)
		mask := uint64(0)
		prev := vEmpty
		truncated := false
		for _, i := range order {
			if truncated {
				continue
			}
			mask |= 1 << uint(i)
			cur, err := v(mask)
			if err != nil {
				return nil, err
			}
			out[i] += cur - prev
			prev = cur
			if eps > 0 && absf(vFull-cur) < eps {
				truncated = true
			}
		}
	}
	for i := range out {
		out[i] /= float64(perms)
	}
	return out, nil
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestSampledShapleyMatchesLegacySequential(t *testing.T) {
	const n, perms = 10, 24
	for _, eps := range []float64{0, 0.05, 0.5} {
		ref, err := legacySampledShapley(n, syntheticUtility, perms, eps, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 8} {
			o := newSyntheticOracle(n, syntheticUtility)
			o.Workers = workers
			got, err := SampledShapley(n, o.Utility, ShapleyConfig{
				Permutations:  perms,
				TruncationEps: eps,
				Rand:          rand.New(rand.NewSource(42)),
				Workers:       workers,
				Warm:          o.EvalBatch,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("eps=%v workers=%d: phi[%d] = %v, legacy %v (must be bit-identical)",
						eps, workers, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestSampledLeastCoreWarmMatchesUnwarmed(t *testing.T) {
	const n = 8
	ref, err := SampledLeastCore(n, syntheticUtility, LeastCoreConfig{
		Samples: 40, Rand: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		o := newSyntheticOracle(n, syntheticUtility)
		o.Workers = workers
		got, err := SampledLeastCore(n, o.Utility, LeastCoreConfig{
			Samples: 40, Rand: rand.New(rand.NewSource(7)), Warm: o.EvalBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: phi[%d] = %v, sequential %v (must be bit-identical)",
					workers, i, got[i], ref[i])
			}
		}
	}
}

// TestSchemesWorkerInvariance pins the determinism contract end-to-end on
// real FedAvg training: every baseline's Scores are bit-identical across
// worker counts 1, 4 and 8, and the engine performed the same number of
// coalition trainings each time. Run under -race this also exercises
// concurrent batches against the shared trainer.
func TestSchemesWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	trainer, parts, test := tinyFederation(t)
	build := func(workers int) []Scheme {
		return []Scheme{
			&Individual{Trainer: trainer, Workers: workers},
			&LeaveOneOut{Trainer: trainer, Workers: workers},
			&ShapleyValue{Trainer: trainer, Permutations: 4, Seed: 1, Workers: workers},
			&LeastCore{Trainer: trainer, Samples: 8, Seed: 1, Workers: workers},
		}
	}
	ref := make(map[string][]float64)
	for _, s := range build(1) {
		scores, err := s.Scores(parts, test)
		if err != nil {
			t.Fatalf("%s sequential: %v", s.Name(), err)
		}
		ref[s.Name()] = scores
	}
	for _, workers := range []int{4, 8} {
		for _, s := range build(workers) {
			scores, err := s.Scores(parts, test)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", s.Name(), workers, err)
			}
			for i := range scores {
				if scores[i] != ref[s.Name()][i] {
					t.Fatalf("%s workers=%d: phi[%d] = %v, sequential %v (must be bit-identical)",
						s.Name(), workers, i, scores[i], ref[s.Name()][i])
				}
			}
		}
	}
}

// TestSharedOracleConcurrentSchemes drives all four baselines concurrently
// against one shared oracle (the experiments' cell-parallel pattern) and
// checks both the scores and that the dedup collapsed the overlapping
// coalition work. Under -race this is the engine's main concurrency test.
func TestSharedOracleConcurrentSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	trainer, parts, test := tinyFederation(t)
	ref := make(map[string][]float64)
	for _, s := range []Scheme{
		&Individual{Trainer: trainer, Workers: 1},
		&LeaveOneOut{Trainer: trainer, Workers: 1},
		&ShapleyValue{Trainer: trainer, Permutations: 4, Seed: 1, Workers: 1},
		&LeastCore{Trainer: trainer, Samples: 8, Seed: 1, Workers: 1},
	} {
		scores, err := s.Scores(parts, test)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		ref[s.Name()] = scores
	}

	shared, err := NewOracle(trainer, parts, test)
	if err != nil {
		t.Fatal(err)
	}
	shared.Workers = 4
	schemes := []Scheme{
		&Individual{Trainer: trainer, SharedOracle: shared},
		&LeaveOneOut{Trainer: trainer, SharedOracle: shared},
		&ShapleyValue{Trainer: trainer, Permutations: 4, Seed: 1, Workers: 4, SharedOracle: shared},
		&LeastCore{Trainer: trainer, Samples: 8, Seed: 1, SharedOracle: shared},
	}
	got := make([][]float64, len(schemes))
	var wg sync.WaitGroup
	errs := make([]error, len(schemes))
	for i, s := range schemes {
		wg.Add(1)
		go func(i int, s Scheme) {
			defer wg.Done()
			got[i], errs[i] = s.Scores(parts, test)
		}(i, s)
	}
	wg.Wait()
	for i, s := range schemes {
		if errs[i] != nil {
			t.Fatalf("%s: %v", s.Name(), errs[i])
		}
		for j := range got[i] {
			if got[i][j] != ref[s.Name()][j] {
				t.Fatalf("%s concurrent shared: phi[%d] = %v, sequential %v",
					s.Name(), j, got[i][j], ref[s.Name()][j])
			}
		}
	}
	// The four schemes overlap heavily on a 3-participant game (singletons,
	// leave-one-outs, the grand coalition); the shared cache trains each of
	// its 7 non-empty coalitions at most once.
	if shared.Evals() > 7 {
		t.Fatalf("shared oracle trained %d coalitions of 7", shared.Evals())
	}
}

// TestSyntheticWorkerInvarianceShort is the -short variant of the
// determinism contract: synthetic utilities, heavy fan-out, no training.
func TestSyntheticWorkerInvarianceShort(t *testing.T) {
	const n = 12
	ref, err := SampledShapley(n, syntheticUtility, ShapleyConfig{
		Permutations: 50, TruncationEps: 0.02, Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		o := newSyntheticOracle(n, syntheticUtility)
		o.Workers = workers
		got, err := SampledShapley(n, o.Utility, ShapleyConfig{
			Permutations: 50, TruncationEps: 0.02, Rand: rand.New(rand.NewSource(3)),
			Workers: workers, Warm: o.EvalBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: phi[%d] differs from sequential", workers, i)
			}
		}
	}
}

// TestObsWiring: the oracle's counter observes every coalition training,
// and a cache-served utility trains nothing.
func TestObsWiring(t *testing.T) {
	o := newSyntheticOracle(6, syntheticUtility)
	if err := o.EvalBatch(PlanLeaveOneOut(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Utility(fullMask(6)); err != nil {
		t.Fatal(err)
	}
	if got := o.Evals(); got != 7 {
		t.Fatalf("evals = %d, want 7", got)
	}
}

func TestOracleUtilityErrorMessageNamesLimit(t *testing.T) {
	parts := make([]*fl.Participant, MaxParticipants+3)
	for i := range parts {
		parts[i] = &fl.Participant{ID: i}
	}
	_, err := NewOracle(nil, parts, nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if want := fmt.Sprintf("%d", MaxParticipants); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the %s-participant limit", err, want)
	}
}
