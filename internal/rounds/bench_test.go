package rounds

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fedsim"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// benchWorld is a cheap synthetic setup: a small model, a 64-row eval set,
// and a deterministic generator of per-round participant updates. Benches
// measure engine arithmetic, not federated training.
type benchWorld struct {
	cfg    Config
	nParts int
	rng    func(round int) []protocol.RoundParticipant
}

func newBenchWorld(b *testing.B) *benchWorld {
	b.Helper()
	const width, nParts = 12, 6
	model, err := nn.New(width, nn.Config{Hidden: []int{8}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(41)
	evalX := make([][]float64, 64)
	evalY := make([]int, len(evalX))
	for i := range evalX {
		row := make([]float64, width)
		for j := range row {
			row[j] = float64(r.Intn(2))
		}
		evalX[i] = row
		evalY[i] = r.Intn(2)
	}
	paramCount := len(model.Params())
	base := make([]float64, paramCount)
	for j := range base {
		base[j] = r.NormFloat64()
	}
	gen := func(round int) []protocol.RoundParticipant {
		pr := stats.NewRNG(int64(1000 + round))
		parts := make([]protocol.RoundParticipant, nParts)
		for i := range parts {
			params := make([]float64, paramCount)
			for j := range params {
				params[j] = base[j] + 0.1*pr.NormFloat64()
			}
			parts[i] = protocol.RoundParticipant{ID: i, Weight: float64(10 + i), Params: params}
		}
		return parts
	}
	return &benchWorld{
		cfg:    Config{Model: model, EvalX: evalX, EvalY: evalY, Seed: 5},
		nParts: nParts,
		rng:    gen,
	}
}

func benchUpdate(b *testing.B, round int, parts []protocol.RoundParticipant) protocol.RoundUpdate {
	b.Helper()
	frame, err := protocol.AppendRoundUpdate(nil, round, parts)
	if err != nil {
		b.Fatal(err)
	}
	f, _, err := protocol.ParseFrame(frame)
	if err != nil {
		b.Fatal(err)
	}
	u, err := protocol.ParseRoundUpdate(f)
	if err != nil {
		b.Fatal(err)
	}
	return u
}

func benchIngest(b *testing.B, e *Engine, u protocol.RoundUpdate) {
	b.Helper()
	out, err := e.Compute(u)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Apply(out); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRoundIngest measures the steady-state cost of a converged
// stream: every round after the first moves the global utility by less
// than epsilon, so ingest is one grand-coalition reconstruction plus the
// between-round truncation check — the GTG fast path.
func BenchmarkRoundIngest(b *testing.B) {
	w := newBenchWorld(b)
	e, err := New(w.cfg)
	if err != nil {
		b.Fatal(err)
	}
	parts := w.rng(0)
	benchIngest(b, e, benchUpdate(b, 0, parts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchIngest(b, e, benchUpdate(b, i+1, parts))
	}
	b.StopTimer()
	if snap := e.Snapshot(); snap.Skipped != b.N {
		b.Fatalf("expected every benched round skipped, got %d of %d", snap.Skipped, b.N)
	}
}

// BenchmarkIncrementalScores measures a full incremental score update: a
// round whose utility moved, so the engine runs truncated permutation
// sampling over reconstructed coalition models.
func BenchmarkIncrementalScores(b *testing.B) {
	w := newBenchWorld(b)
	w.cfg.Epsilon = -1 // never skip: every round pays the sampling path
	e, err := New(w.cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u := benchUpdate(b, i, w.rng(i))
		b.StartTimer()
		benchIngest(b, e, u)
	}
}

// BenchmarkBatchRevaluation measures what a new round costs without the
// streaming engine: re-scoring the entire stream from scratch. With an
// 8-round history this is the bill the incremental path amortizes away —
// compare against BenchmarkIncrementalScores in BENCH_7.json.
func BenchmarkBatchRevaluation(b *testing.B) {
	const history = 8
	w := newBenchWorld(b)
	w.cfg.Epsilon = -1
	updates := make([]protocol.RoundUpdate, history)
	for i := range updates {
		updates[i] = benchUpdate(b, i, w.rng(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(w.cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, u := range updates {
			benchIngest(b, e, u)
		}
	}
}

// computeWorld is the shape of bench/'s stream workload: a fedsim-trained
// adult federation of 8 participants with one 64-node logical layer, its 16
// rounds of updates, and a 128-row evaluation set.
type computeWorld struct {
	model        *nn.Model
	evalX        [][]float64
	evalY        []int
	rounds       [][]protocol.RoundParticipant
	contestedAll [][]protocol.RoundParticipant
}

var (
	computeOnce sync.Once
	computeVal  *computeWorld
	computeErr  error
)

func buildComputeWorld() (*computeWorld, error) {
	const participants, rowsEach, evalRows, rounds = 8, 400, 128, 16
	r := stats.NewRNG(1)
	enc, err := dataset.NewEncoder(dataset.AdultSchema(), 8, r)
	if err != nil {
		return nil, err
	}
	parts := fl.PartitionSkewSample(dataset.Adult(r, participants*rowsEach), participants, 1.0, r)
	eval := dataset.Adult(r, evalRows)
	cfg := nn.Config{Hidden: []int{64}, Grafting: true, Seed: 1, L1Logic: 2e-4, L2Head: 1e-3, KeepBest: true}
	sim, err := fedsim.Run(enc, parts, eval, fedsim.Config{Rounds: rounds, LocalEpochs: 1, Model: cfg, Seed: 1})
	if err != nil {
		return nil, err
	}
	w := &computeWorld{model: sim.Model}
	w.evalX, w.evalY = enc.EncodeTable(eval)
	// Every parameter before the head weights and bias is a logical weight.
	logical := len(sim.Model.Params()) - sim.Model.RuleDim() - 1
	for _, ups := range sim.Updates {
		trained, contested := toParts(ups), toParts(ups)
		for i := range contested {
			ps := append([]float64(nil), contested[i].Params...)
			for j := range ps[:logical] {
				ps[j] = []float64{0.25, 0.75}[(i+j)%2]
			}
			contested[i].Params = ps
		}
		w.rounds = append(w.rounds, trained)
		w.contestedAll = append(w.contestedAll, contested)
	}
	return w, nil
}

// BenchmarkRoundCompute measures Compute on one round at bench's stream
// shape: 16 permutations, no between-round skipping. "trained" cycles the
// fedsim rounds, whose members disagree on 35–110 of the 10,688 logical
// weights per round. "contested=all" keeps their head weights but has the
// members alternate 0.25 and 0.75 on every logical weight, so each one is
// contested and every mixed coalition averages all of them.
func BenchmarkRoundCompute(b *testing.B) {
	computeOnce.Do(func() { computeVal, computeErr = buildComputeWorld() })
	if computeErr != nil {
		b.Fatal(computeErr)
	}
	w := computeVal
	for _, bc := range []struct {
		name   string
		rounds [][]protocol.RoundParticipant
	}{{"trained", w.rounds}, {"contested=all", w.contestedAll}} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := New(Config{Model: w.model, EvalX: w.evalX, EvalY: w.evalY, Permutations: 16, Seed: 5, Epsilon: -1})
			if err != nil {
				b.Fatal(err)
			}
			us := make([]protocol.RoundUpdate, len(bc.rounds))
			for i, parts := range bc.rounds {
				us[i] = benchUpdate(b, i, parts)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Compute(us[i%len(us)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
