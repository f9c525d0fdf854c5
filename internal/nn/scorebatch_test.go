package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func buildBinarized(t testing.TB, dim int, seed int64) (*Model, *Binarized) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	xs, ys := goldenData(60, dim, r.Int63())
	m, err := New(dim, Config{Hidden: []int{8}, Epochs: 2, BatchSize: 16, Seed: r.Int63()})
	if err != nil {
		t.Fatal(err)
	}
	m.TrainEpochs(xs, ys, m.cfg.Epochs)
	return m, m.Binarize()
}

// wireRows flattens rows into ScoreBatchFloat32's row-major float32 form.
func wireRows(xs [][]float64) []float32 {
	var rows []float32
	for _, x := range xs {
		for _, v := range x {
			rows = append(rows, float32(v))
		}
	}
	return rows
}

func TestScoreBatchFloat32MatchesForward(t *testing.T) {
	const dim = 9
	m, b := buildBinarized(t, dim, 41)
	r := rand.New(rand.NewSource(42))

	// 130 rows: two full blocks and a partial third.
	xs := make([][]float64, 130)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = float64(r.Intn(2))
		}
	}
	xs[5][3] = math.Copysign(0, -1) // −0 is 0
	dst := make([]float64, len(xs))
	if err := b.ScoreBatchFloat32(wireRows(xs), dst); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if want, _ := refForward(m, x, true); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: batch %v, reference %v", i, dst[i], want)
		}
	}

	// Empty batch is a no-op.
	if err := b.ScoreBatchFloat32(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScoreBatchFloat32RejectsRaggedInput(t *testing.T) {
	_, b := buildBinarized(t, 6, 43)
	defer func() {
		if recover() == nil {
			t.Fatal("non-multiple row length did not panic")
		}
	}()
	b.ScoreBatchFloat32(make([]float32, 7), make([]float64, 2))
}

// TestNonBinaryInputRejected pins the input contract: every evaluator
// reads {0,1} rows. ScoreBatchFloat32, which serves wire input, returns an
// error naming the first other value; the model's batch entry points,
// whose rows are always encoder output, panic on one.
func TestNonBinaryInputRejected(t *testing.T) {
	const dim = 5
	m, b := buildBinarized(t, dim, 45)
	for _, v := range []float64{0.5, -1, 2, math.NaN(), math.Inf(1), 1e-40} {
		xs := make([][]float64, 70)
		for i := range xs {
			xs[i] = make([]float64, dim)
			xs[i][i%dim] = 1
		}
		xs[66][2] = v // in the second block
		err := b.ScoreBatchFloat32(wireRows(xs), make([]float64, len(xs)))
		if err == nil {
			t.Fatalf("ScoreBatchFloat32 accepted %v", v)
		}
		if want := fmt.Sprintf("feature value %g at offset %d: inputs must be the encoder's {0,1} predicates", float32(v), 66*dim+2); err.Error() != want {
			t.Fatalf("ScoreBatchFloat32 error %q, want %q", err, want)
		}
		ys := make([]int, len(xs))
		for name, call := range map[string]func(){
			"Accuracy":     func() { m.Accuracy(xs, ys) },
			"CountCorrect": func() { m.CountCorrect(xs, ys) },
			"PredictBatch": func() { m.PredictBatch(xs) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s accepted %v", name, v)
					}
				}()
				call()
			}()
		}
		if _, err := PackRows(xs, dim); err == nil {
			t.Fatalf("PackRows accepted %v", v)
		}
	}
	if _, err := PackRows([][]float64{make([]float64, dim+1)}, dim); err == nil {
		t.Fatal("PackRows accepted a row of the wrong width")
	}
}

// TestBinarizedScoreBatchZeroAlloc pins the predict hot path: once the
// scratch pool is warm, scoring a two-block batch allocates nothing, on a
// model compiled at the default worker count. check.sh runs it at -cpu 1,2.
func TestBinarizedScoreBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached buffers under -race")
	}
	const dim, n = 12, 65
	_, b := buildBinarized(t, dim, 44)
	rows := make([]float32, n*dim)
	for i := range rows {
		if i%3 == 0 {
			rows[i] = 1
		}
	}
	dst := make([]float64, n)
	if err := b.ScoreBatchFloat32(rows, dst); err != nil { // warm the pool
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		b.ScoreBatchFloat32(rows, dst)
	})
	if allocs != 0 {
		t.Fatalf("ScoreBatchFloat32 allocates %v times per batch", allocs)
	}
}
