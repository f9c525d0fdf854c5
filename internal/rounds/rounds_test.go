package rounds

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fedsim"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/valuation"
)

// streamFixture is a federation engineered for clear contribution ranking:
// participant quality degrades monotonically — two clean clients with very
// different data sizes, then three with increasingly flipped labels — so
// both batch Shapley and the streaming estimate should order them 0 > 1 >
// 2 > 3 > 4 with wide gaps.
type streamFixture struct {
	enc     *dataset.Encoder
	trainer *fl.Trainer
	parts   []*fl.Participant
	test    *dataset.Table
	sim     *fedsim.Result
	evalX   [][]float64
	evalY   []int
}

var (
	fixOnce sync.Once
	fixVal  *streamFixture
	fixErr  error
)

func buildStreamFixture(hidden []int) (*streamFixture, error) {
	tab := dataset.TicTacToe()
	r := stats.NewRNG(23)
	train, test := tab.Split(r, 0.25)
	enc, err := dataset.NewEncoder(tab.Schema, 4, r)
	if err != nil {
		return nil, err
	}

	// Manual size-skewed partition: fractions of the shuffled training set,
	// decreasing with participant id.
	perm := r.Perm(train.Len())
	fracs := []float64{0.30, 0.25, 0.20, 0.15, 0.10}
	parts := make([]*fl.Participant, len(fracs))
	at := 0
	for i, f := range fracs {
		n := int(f * float64(train.Len()))
		if i == len(fracs)-1 {
			n = train.Len() - at
		}
		parts[i] = &fl.Participant{ID: i, Name: string(rune('A' + i)), Data: train.Subset(perm[at : at+n])}
		at += n
	}
	// Graded label poisoning aligned with the size skew: every participant
	// is both smaller and dirtier than the one before, so size and quality
	// push the ranking the same way.
	parts[1] = fl.FlipLabels(parts[1], 0.12, r)
	parts[2] = fl.FlipLabels(parts[2], 0.30, r)
	parts[3] = fl.FlipLabels(parts[3], 0.60, r)
	parts[4] = fl.FlipLabels(parts[4], 1.0, r)

	model := nn.Config{Hidden: hidden, Seed: 7, BatchSize: 128}
	trainer := fl.NewTrainer(enc, fl.TrainConfig{
		Rounds: 2, LocalEpochs: 3, Parallel: true, Model: model, Seed: 23,
	})
	sim, err := fedsim.Run(enc, parts, test, fedsim.Config{
		Rounds: 8, LocalEpochs: 3, Model: model, Seed: 23,
	})
	if err != nil {
		return nil, err
	}
	evalX, evalY := enc.EncodeTable(test)
	return &streamFixture{
		enc: enc, trainer: trainer, parts: parts, test: test,
		sim: sim, evalX: evalX, evalY: evalY,
	}, nil
}

func fixture(t *testing.T) *streamFixture {
	t.Helper()
	fixOnce.Do(func() { fixVal, fixErr = buildStreamFixture([]int{16}) })
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixVal
}

// toParts converts one fedsim round's updates into wire participants.
func toParts(ups []fedsim.ClientUpdate) []protocol.RoundParticipant {
	out := make([]protocol.RoundParticipant, len(ups))
	for i, u := range ups {
		out[i] = protocol.RoundParticipant{ID: u.Participant, Weight: u.Weight, Params: u.Params}
	}
	return out
}

// pushRound frames and ingests one round into the engine.
func pushRound(t *testing.T, e *Engine, round int, parts []protocol.RoundParticipant) *Outcome {
	t.Helper()
	frame, err := protocol.AppendRoundUpdate(nil, round, parts)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := protocol.ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	u, err := protocol.ParseRoundUpdate(f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Compute(u)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// streamAll pushes the whole fedsim update stream into a fresh engine.
func streamAll(t *testing.T, fix *streamFixture, cfg Config) *Engine {
	t.Helper()
	if cfg.Model == nil {
		cfg.Model = fix.sim.Model
		cfg.EvalX = fix.evalX
		cfg.EvalY = fix.evalY
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round, ups := range fix.sim.Updates {
		if len(ups) == 0 {
			continue
		}
		pushRound(t, e, round, toParts(ups))
	}
	return e
}

// TestStreamingMatchesBatchShapley pins the subsystem's reason to exist:
// the streaming per-round estimate, with both truncations active, must
// rank participants like retraining-based batch Shapley ground truth.
func TestStreamingMatchesBatchShapley(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fix := fixture(t)

	oracle, err := valuation.NewOracle(fix.trainer, fix.parts, fix.test)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := valuation.ExactShapley(len(fix.parts), oracle.Utility)
	if err != nil {
		t.Fatal(err)
	}

	e := streamAll(t, fix, Config{Seed: 9, Permutations: 24, InnerEpsilon: -1})
	snap := e.Snapshot()
	if len(snap.Scores) != len(fix.parts) {
		t.Fatalf("streamed scores for %d participants, want %d", len(snap.Scores), len(fix.parts))
	}
	rho := stats.Spearman(snap.Scores, truth)
	t.Logf("streaming scores %v", snap.Scores)
	t.Logf("batch Shapley    %v  (rho %.3f, %d evals, %d/%d rounds skipped)",
		truth, rho, e.Evals(), snap.Skipped, snap.Rounds)
	if rho < 0.9 {
		t.Fatalf("Spearman rho %.3f < 0.9 against batch Shapley", rho)
	}
	// The fully poisoned participant must not look like a contributor.
	if snap.Scores[4] >= snap.Scores[0] {
		t.Fatalf("label-flipped participant outscored the largest clean one: %v", snap.Scores)
	}
}

// TestStreamDeterministicAcrossWorkers pins the determinism contract:
// bit-identical scores at any concurrency.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fix := fixture(t)
	base := streamAll(t, fix, Config{Seed: 9, Workers: 1, Epsilon: -1})
	want := base.Snapshot()
	for _, workers := range []int{2, 8} {
		got := streamAll(t, fix, Config{Seed: 9, Workers: workers, Epsilon: -1}).Snapshot()
		if got.Rounds != want.Rounds || got.Skipped != want.Skipped || len(got.Scores) != len(want.Scores) {
			t.Fatalf("workers=%d: snapshot %+v, want %+v", workers, got, want)
		}
		for i := range want.Scores {
			if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
				t.Fatalf("workers=%d: score %d = %x, want %x",
					workers, i, math.Float64bits(got.Scores[i]), math.Float64bits(want.Scores[i]))
			}
		}
	}
}

// TestBetweenRoundTruncationSkips pins the GTG between-round cut: pushing
// the same updates again as the next round moves the global utility by
// exactly zero, which must skip the round at the cost of one evaluation.
func TestBetweenRoundTruncationSkips(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fix := fixture(t)
	e, err := New(Config{Model: fix.sim.Model, EvalX: fix.evalX, EvalY: fix.evalY, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ups []fedsim.ClientUpdate
	for _, u := range fix.sim.Updates {
		if len(u) > 0 {
			ups = u
			break
		}
	}
	first := pushRound(t, e, 0, toParts(ups))
	if first.Skipped {
		t.Fatal("first round skipped; nothing to compare against yet")
	}
	evalsBefore := e.Evals()
	second := pushRound(t, e, 1, toParts(ups))
	if !second.Skipped {
		t.Fatalf("identical round not skipped (vFull %v vs %v)", second.VFull, first.VFull)
	}
	if cost := e.Evals() - evalsBefore; cost > 1 {
		t.Fatalf("skipped round cost %d evaluations, want at most 1", cost)
	}
	snap := e.Snapshot()
	if snap.Skipped != 1 || snap.Rounds != 2 {
		t.Fatalf("snapshot = %+v, want 1 skipped of 2", snap)
	}
}

// TestStaleAndConflictingRounds pins the exactly-once ingest guards.
func TestStaleAndConflictingRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fix := fixture(t)
	e, err := New(Config{Model: fix.sim.Model, EvalX: fix.evalX, EvalY: fix.evalY, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ups []fedsim.ClientUpdate
	for _, u := range fix.sim.Updates {
		if len(u) > 0 {
			ups = u
			break
		}
	}
	frame, err := protocol.AppendRoundUpdate(nil, 0, toParts(ups))
	if err != nil {
		t.Fatal(err)
	}
	f, _, _ := protocol.ParseFrame(frame)
	u, err := protocol.ParseRoundUpdate(f)
	if err != nil {
		t.Fatal(err)
	}

	// Two outcomes computed against the same basis: the second apply must
	// fail with ErrConflict, not silently double-count.
	out1, err := e.Compute(u)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := e.Compute(u)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(out1); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(out2); err == nil {
		t.Fatal("conflicting outcome applied")
	}
	// A retried (already-applied) round is stale at Compute time.
	if _, err := e.Compute(u); err == nil {
		t.Fatal("duplicate round recomputed")
	}
}

// TestCrashResumeReplaysBitIdentical kills the engine mid-stream and
// restores it from a real WAL: the replayed engine must hold bit-identical
// scores without evaluating a single coalition, then continue the stream
// exactly like the uninterrupted engine.
func TestCrashResumeReplaysBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fix := fixture(t)
	dir := t.TempDir()
	st, events, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("fresh store replayed %d events", len(events))
	}

	cfg := Config{Model: fix.sim.Model, EvalX: fix.evalX, EvalY: fix.evalY, Seed: 9}
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rounds [][]protocol.RoundParticipant
	for _, ups := range fix.sim.Updates {
		if len(ups) > 0 {
			rounds = append(rounds, toParts(ups))
		}
	}
	cut := len(rounds) / 2
	for i := 0; i < cut; i++ {
		out := pushRound(t, live, i, rounds[i])
		if err := st.Append(store.Event{Type: store.EventRound, Payload: out.Payload()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash": the live engine is gone; a new process reopens the WAL.
	st2, events, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Type != store.EventRound {
			t.Fatalf("unexpected replay event type %d", ev.Type)
		}
		if err := restored.ApplyPayload(ev.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if restored.Evals() != 0 {
		t.Fatalf("replay evaluated %d coalitions, want 0", restored.Evals())
	}
	requireSameSnapshot(t, "after replay", restored.Snapshot(), live.Snapshot())

	// The resumed engine continues the stream identically.
	for i := cut; i < len(rounds); i++ {
		pushRound(t, live, i, rounds[i])
		pushRound(t, restored, i, rounds[i])
	}
	requireSameSnapshot(t, "after resume", restored.Snapshot(), live.Snapshot())
	if restored.Evals() >= live.Evals() {
		t.Fatalf("resumed engine evaluated %d coalitions, uninterrupted %d — resume should cost strictly less",
			restored.Evals(), live.Evals())
	}
}

func requireSameSnapshot(t *testing.T, stage string, got, want protocol.ScoresSnapshot) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Skipped != want.Skipped || len(got.Scores) != len(want.Scores) {
		t.Fatalf("%s: snapshot %+v, want %+v", stage, got, want)
	}
	for i := range want.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("%s: score %d = %x, want %x", stage, i,
				math.Float64bits(got.Scores[i]), math.Float64bits(want.Scores[i]))
		}
	}
}

// TestOutcomeCodecRoundTrip pins the durable record format.
func TestOutcomeCodecRoundTrip(t *testing.T) {
	cases := []*Outcome{
		{Round: 0, VFull: 0.75, IDs: []int{0, 2, 5}, Deltas: []float64{0.1, -0.05, math.NaN()}},
		{Round: 7, VFull: math.Inf(1), Skipped: true},
	}
	for _, o := range cases {
		got, err := DecodeOutcome(o.Payload())
		if err != nil {
			t.Fatal(err)
		}
		if got.Round != o.Round || got.Skipped != o.Skipped ||
			math.Float64bits(got.VFull) != math.Float64bits(o.VFull) ||
			len(got.IDs) != len(o.IDs) {
			t.Fatalf("decoded %+v, want %+v", got, o)
		}
		for i := range o.IDs {
			if got.IDs[i] != o.IDs[i] || math.Float64bits(got.Deltas[i]) != math.Float64bits(o.Deltas[i]) {
				t.Fatalf("entry %d changed: %+v vs %+v", i, got, o)
			}
		}
	}

	bad := [][]byte{
		{},
		cases[0].Payload()[:10],
		append(cases[0].Payload(), 0),
	}
	for i, p := range bad {
		if _, err := DecodeOutcome(p); err == nil {
			t.Errorf("bad payload %d accepted", i)
		}
	}
}

// TestEvalCoalitionSteadyStateAllocs pins the scratch pooling: once the
// per-evaluation pool is warm, reconstructing and scoring a coalition heap-
// allocates nothing — the averaging buffers and the patched snapshot are
// reused (BENCH_7 measured 1043 allocs/op on BenchmarkIncrementalScores
// before the pool; a regression here is how that number comes back).
func TestEvalCoalitionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached items under -race")
	}
	const width, nParts = 10, 4
	// The coalitions are scored directly, not through the oracle, and a
	// snapshot's CountCorrect is serial: no worker goroutine charges its
	// stack to AllocsPerRun.
	model, err := nn.New(width, nn.Config{Hidden: []int{6}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(17)
	evalX := make([][]float64, 32)
	evalY := make([]int, len(evalX))
	for i := range evalX {
		row := make([]float64, width)
		for j := range row {
			row[j] = float64(r.Intn(2))
		}
		evalX[i] = row
		evalY[i] = r.Intn(2)
	}
	e, err := New(Config{Model: model, EvalX: evalX, EvalY: evalY, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	paramCount := len(model.Params())
	parts := make([]protocol.RoundParticipant, nParts)
	for i := range parts {
		params := make([]float64, paramCount)
		for j := range params {
			params[j] = r.NormFloat64()
		}
		parts[i] = protocol.RoundParticipant{ID: i, Weight: float64(1 + i), Params: params}
	}
	frame, err := protocol.AppendRoundUpdate(nil, 0, parts)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := protocol.ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	u, err := protocol.ParseRoundUpdate(f)
	if err != nil {
		t.Fatal(err)
	}

	p := e.newPlan(u)
	full := uint64(1)<<nParts - 1
	if _, err := p.evalCoalition(full); err != nil { // warm the pool
		t.Fatal(err)
	}
	mask := uint64(0)
	avg := testing.AllocsPerRun(50, func() {
		mask = mask%full + 1 // cycle every non-empty coalition
		if _, err := p.evalCoalition(mask); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("evalCoalition allocates %.1f objects per call in steady state, want 0", avg)
	}
}
