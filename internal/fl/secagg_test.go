package fl

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/stats"
)

func TestPairMaskDeterministicAndDistinct(t *testing.T) {
	a := pairMask(1, 0, 0, 1, 16)
	b := pairMask(1, 0, 0, 1, 16)
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("pair mask not deterministic")
		}
	}
	c := pairMask(1, 1, 0, 1, 16) // different round
	d := pairMask(1, 0, 0, 2, 16) // different pair
	sameC, sameD := true, true
	for k := range a {
		if a[k] != c[k] {
			sameC = false
		}
		if a[k] != d[k] {
			sameD = false
		}
	}
	if sameC || sameD {
		t.Fatal("masks should differ across rounds and pairs")
	}
}

func TestMaskedAggregationCancels(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRNG(seed)
		n := 2 + r.Intn(6)
		dim := 1 + r.Intn(40)
		params := make([][]float64, n)
		weights := make([]float64, n)
		plain := make([]float64, dim)
		for i := 0; i < n; i++ {
			params[i] = make([]float64, dim)
			weights[i] = r.Float64()
			for k := 0; k < dim; k++ {
				params[i][k] = r.NormFloat64()
				plain[k] += weights[i] * params[i][k]
			}
		}
		uploads := make([][]float64, n)
		for i := 0; i < n; i++ {
			uploads[i] = MaskUpdate(params[i], weights[i], i, n, int(seed%7), seed)
		}
		masked := AggregateMasked(uploads)
		for k := range masked {
			if math.Abs(masked[k]-plain[k]) >= 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskedUploadHidesUpdate(t *testing.T) {
	// A single masked upload must differ substantially from the raw update
	// (the server cannot read individual contributions).
	params := make([]float64, 32)
	for k := range params {
		params[k] = 0.5
	}
	up := MaskUpdate(params, 1, 0, 3, 0, 99)
	diff := 0.0
	for k := range params {
		diff += math.Abs(up[k] - params[k])
	}
	if diff/float64(len(params)) < 1 {
		t.Fatalf("masked upload too close to raw update (mean |diff| = %v)", diff/float64(len(params)))
	}
}

func TestAggregateMaskedEmpty(t *testing.T) {
	if AggregateMasked(nil) != nil {
		t.Fatal("empty aggregation should be nil")
	}
}

func TestSecureAggMatchesPlainTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tab := dataset.TicTacToe()
	r := stats.NewRNG(8)
	train, test := tab.Split(r, 0.2)
	parts := PartitionSkewSample(train, 3, 2.0, r)
	enc, err := dataset.NewEncoder(tab.Schema, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(secure bool) float64 {
		tr := NewTrainer(enc, TrainConfig{
			Rounds: 2, LocalEpochs: 6, SecureAgg: secure, Seed: 4,
			Model: nn.Config{Hidden: []int{32}, Grafting: true, Seed: 7},
		})
		m, err := tr.Train(parts)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Evaluate(m, test)
	}
	plain := mk(false)
	secure := mk(true)
	// Masking cancels up to float rounding; the binarized model is robust
	// to that, so accuracy should match closely.
	if math.Abs(plain-secure) > 0.05 {
		t.Fatalf("secure agg diverged: plain %v vs secure %v", plain, secure)
	}
}

func TestClientSampling(t *testing.T) {
	tab := dataset.TicTacToe()
	r := stats.NewRNG(9)
	train, _ := tab.Split(r, 0.2)
	parts := PartitionSkewSample(train, 6, 2.0, r)
	enc, err := dataset.NewEncoder(tab.Schema, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(enc, TrainConfig{ClientFraction: 0.5})
	sel := tr.sampleClients(parts, stats.NewRNG(2))
	if len(sel) != 3 {
		t.Fatalf("sampled %d clients, want 3", len(sel))
	}
	seen := map[int]bool{}
	for _, p := range sel {
		if seen[p.ID] {
			t.Fatal("client sampled twice")
		}
		seen[p.ID] = true
	}
	// Fraction 0 and 1 select everyone.
	trAll := NewTrainer(enc, TrainConfig{})
	if got := trAll.sampleClients(parts, stats.NewRNG(2)); len(got) != 6 {
		t.Fatalf("fraction 0 selected %d", len(got))
	}
	// Tiny fraction still selects at least one.
	trOne := NewTrainer(enc, TrainConfig{ClientFraction: 0.01})
	if got := trOne.sampleClients(parts, stats.NewRNG(2)); len(got) != 1 {
		t.Fatalf("tiny fraction selected %d", len(got))
	}
}

func TestClientSampledTrainingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tab := dataset.TicTacToe()
	r := stats.NewRNG(10)
	train, test := tab.Split(r, 0.2)
	parts := PartitionSkewSample(train, 6, 2.0, r)
	enc, err := dataset.NewEncoder(tab.Schema, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(enc, TrainConfig{
		Rounds: 4, LocalEpochs: 6, ClientFraction: 0.5, Seed: 3,
		Model: nn.Config{Hidden: []int{32}, Grafting: true, Seed: 7},
	})
	m, err := tr.Train(parts)
	if err != nil {
		t.Fatal(err)
	}
	if acc := tr.Evaluate(m, test); acc < 0.6 {
		t.Fatalf("sampled-client training accuracy %v too low", acc)
	}
}
