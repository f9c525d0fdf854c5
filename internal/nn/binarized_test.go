package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// TestPropertyBinarizedMatchesForward proves the model's batch entry points
// and ScoreBatchFloat32 agree with the uncompiled discrete forward pass
// (refForward): the same scores bit for bit and the same labels, across
// random architectures, random (trained) weights, worker counts and batch
// sizes on both sides of a 64-row block.
func TestPropertyBinarizedMatchesForward(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 4 + r.Intn(12)
		xs, ys := goldenData(40+r.Intn(100), dim, r.Int63())
		cfg := Config{
			Hidden:    []int{4 + 2*r.Intn(4)},
			Epochs:    1 + r.Intn(2),
			BatchSize: 16,
			Grafting:  r.Intn(2) == 1,
			Seed:      r.Int63(),
			Workers:   1 + r.Intn(4),
		}
		if r.Intn(2) == 1 {
			cfg.Hidden = append(cfg.Hidden, 4+2*r.Intn(3))
		}
		m, err := New(dim, cfg)
		if err != nil {
			panic(err)
		}
		m.TrainEpochs(xs, ys, m.cfg.Epochs)
		b := m.Binarize()
		same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

		pred := m.PredictBatch(xs)
		scores := make([]float64, len(xs))
		if err := b.ScoreBatchFloat32(wireRows(xs), scores); err != nil {
			panic(err)
		}
		correct := 0
		for i, x := range xs {
			want, _ := refForward(m, x, true)
			if !same(scores[i], want) {
				return false
			}
			label := 0
			if want >= 0 {
				label = 1
			}
			if pred[i] != label {
				return false
			}
			if label == ys[i] {
				correct++
			}
		}
		return m.CountCorrect(xs, ys) == correct &&
			m.Accuracy(xs, ys) == float64(correct)/float64(len(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// scoreAll scores xs with b through ScoreBatchFloat32.
func scoreAll(t *testing.T, b *Binarized, xs [][]float64) []float64 {
	t.Helper()
	scores := make([]float64, len(xs))
	if err := b.ScoreBatchFloat32(wireRows(xs), scores); err != nil {
		t.Fatal(err)
	}
	return scores
}

// TestBinarizedSnapshot pins the snapshot semantics: training the model
// after Binarize must not change the compiled evaluator's outputs.
func TestBinarizedSnapshot(t *testing.T) {
	xs, ys := goldenData(80, 12, 7)
	m, err := New(12, Config{Hidden: []int{8}, Epochs: 1, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.TrainEpochs(xs, ys, m.cfg.Epochs)
	b := m.Binarize()
	before := scoreAll(t, b, xs)
	m.TrainEpochs(xs, ys, m.cfg.Epochs) // keep training the model
	for i, s := range scoreAll(t, b, xs) {
		if s != before[i] {
			t.Fatalf("snapshot drifted at row %d", i)
		}
	}
}

// TestSharedModelInferenceConcurrent calls the model's batch entry points
// and its Binarize snapshot from several goroutines at once. Each model call
// compiles its own pooled snapshot, so every result must equal a serial run;
// run under -race this also proves the goroutines share no mutable state.
func TestSharedModelInferenceConcurrent(t *testing.T) {
	xs, ys := goldenData(120, 16, 31)
	m, err := New(16, Config{Hidden: []int{8, 6}, Epochs: 2, Grafting: true, Seed: 4, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.TrainEpochs(xs, ys, m.cfg.Epochs)
	b := m.Binarize()
	wantAcc, wantOK, wantPred := m.Accuracy(xs, ys), m.CountCorrect(xs, ys), m.PredictBatch(xs)
	wantScores := make([]float64, len(xs))
	for i, x := range xs {
		wantScores[i], _ = refForward(m, x, true)
	}
	rows := wireRows(xs)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(model bool) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				if model {
					if acc := m.Accuracy(xs, ys); acc != wantAcc {
						t.Errorf("Accuracy = %v, serial %v", acc, wantAcc)
					}
					if ok := m.CountCorrect(xs, ys); ok != wantOK {
						t.Errorf("CountCorrect = %d, serial %d", ok, wantOK)
					}
					for i, p := range m.PredictBatch(xs) {
						if p != wantPred[i] {
							t.Errorf("PredictBatch row %d = %d, serial %d", i, p, wantPred[i])
						}
					}
					continue
				}
				dst := make([]float64, len(xs))
				if err := b.ScoreBatchFloat32(rows, dst); err != nil {
					t.Error(err)
				}
				for i, s := range dst {
					if s != wantScores[i] {
						t.Errorf("snapshot score row %d = %v, serial %v", i, s, wantScores[i])
					}
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
}
