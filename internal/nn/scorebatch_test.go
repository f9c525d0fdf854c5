package nn

import (
	"math/rand"
	"testing"
)

func buildBinarized(t testing.TB, dim int, seed int64) *Binarized {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	xs, ys := goldenData(60, dim, r.Int63())
	m, err := New(dim, Config{Hidden: []int{8}, Epochs: 2, BatchSize: 16, Seed: r.Int63(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.TrainEpochs(xs, ys, m.cfg.Epochs)
	return m.Binarize()
}

func TestScoreBatchFloat32MatchesScore(t *testing.T) {
	const dim = 9
	b := buildBinarized(t, dim, 41)
	r := rand.New(rand.NewSource(42))

	const n = 17
	rows := make([]float32, n*dim)
	for i := range rows {
		rows[i] = float32(r.Intn(2))
	}
	dst := make([]float64, n)
	b.ScoreBatchFloat32(rows, dst)

	x := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			x[j] = float64(rows[i*dim+j])
		}
		if want := b.Score(x); dst[i] != want {
			t.Fatalf("row %d: batch %v, single %v", i, dst[i], want)
		}
	}

	// Empty batch is a no-op.
	b.ScoreBatchFloat32(nil, nil)
}

func TestScoreBatchFloat32RejectsRaggedInput(t *testing.T) {
	b := buildBinarized(t, 6, 43)
	defer func() {
		if recover() == nil {
			t.Fatal("non-multiple row length did not panic")
		}
	}()
	b.ScoreBatchFloat32(make([]float32, 7), make([]float64, 2))
}

// TestBinarizedScoreBatchZeroAlloc pins the predict hot path: once the
// evaluator's buffer pool is warm, scoring a batch on the single-worker path
// must not allocate.
func TestBinarizedScoreBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached buffers under -race")
	}
	const dim = 12
	b := buildBinarized(t, dim, 44)
	rows := make([]float32, 4*dim)
	for i := range rows {
		if i%3 == 0 {
			rows[i] = 1
		}
	}
	dst := make([]float64, 4)
	b.ScoreBatchFloat32(rows, dst) // warm the pool

	allocs := testing.AllocsPerRun(100, func() {
		b.ScoreBatchFloat32(rows, dst)
	})
	if allocs != 0 {
		t.Fatalf("ScoreBatchFloat32 allocates %v times per batch", allocs)
	}
}
