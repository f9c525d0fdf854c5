package nn

// Equivalence tests for the flat-parameter training kernel and the compiled
// evaluator. The fused regularize+Adam+clamp step is checked
// element-for-element against a straight port of the unfused seed sequence
// (regularize the gradient, run a plain Adam update, clamp the logical
// weights), and full training runs must be bit-deterministic across repeats
// despite buffer pooling and worker parallelism. refForward is the
// uncompiled forward pass that tests the continuous gradients and the
// compiled discrete evaluator against. Together with TestGoldenTraining
// (which pins hashes captured from the pre-overhaul implementation) this
// establishes the overhaul changed performance only, never a single output
// bit.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refForward is the uncompiled forward pass: it returns x's pre-sigmoid
// score and every logical node's output. With discrete set the logical
// weights are binarized at 0.5 (the deployed model); otherwise the soft
// continuous activations of Eq. 7 are used.
func refForward(m *Model, x []float64, discrete bool) (score float64, rules []float64) {
	in := x
	for k, l := range m.layers {
		if k > 0 {
			// Skip connection: layer k sees x followed by layer k-1's outputs.
			in = append(append([]float64(nil), x...), rules[len(rules)-m.layers[k-1].size():]...)
		}
		for n := 0; n < l.size(); n++ {
			if l.nodeKind(n) == nodeConj {
				rules = append(rules, conjForward(in, l.row(n), discrete))
			} else {
				rules = append(rules, disjForward(in, l.row(n), discrete))
			}
		}
	}
	score = m.HeadBias()
	for j, r := range rules {
		score += m.headW[j] * r
	}
	return score, rules
}

// conjForward computes Conj(x,w) = prod_i (1 - w_i (1 - x_i)).
func conjForward(x, w []float64, discrete bool) float64 {
	p := 1.0
	if discrete {
		for i, xi := range x {
			if w[i] > 0.5 {
				p *= xi
				if p == 0 {
					return 0
				}
			}
		}
		return p
	}
	for i, xi := range x {
		p *= 1 - w[i]*(1-xi)
	}
	return p
}

// disjForward computes Disj(x,w) = 1 - prod_i (1 - x_i w_i).
func disjForward(x, w []float64, discrete bool) float64 {
	p := 1.0
	if discrete {
		for i, xi := range x {
			if w[i] > 0.5 && xi > 0 {
				return 1
			}
		}
		return 1 - p
	}
	for i, xi := range x {
		p *= 1 - xi*w[i]
	}
	return 1 - p
}

// referenceStep is the seed's unfused update: regularize a copy of the
// gradient, apply Adam over the full vector, then clamp logical weights to
// [0,1]. flat, am, av are updated in place; t is the post-increment Adam
// step count.
func referenceStep(flat, grad, am, av []float64, t, headOff int, lr, l1, l2 float64) {
	last := len(flat) - 1
	g := append([]float64(nil), grad...)
	for i := 0; i < headOff; i++ {
		if l1 != 0 && flat[i] > 0 {
			g[i] += l1
		}
	}
	if l2 != 0 {
		for i := headOff; i < last; i++ {
			g[i] += l2 * flat[i]
		}
	}
	bc1 := 1 - math.Pow(adamBeta1, float64(t))
	bc2 := 1 - math.Pow(adamBeta2, float64(t))
	for i := range flat {
		am[i] = adamBeta1*am[i] + (1-adamBeta1)*g[i]
		av[i] = adamBeta2*av[i] + (1-adamBeta2)*g[i]*g[i]
		mhat := am[i] / bc1
		vhat := av[i] / bc2
		flat[i] -= lr * mhat / (math.Sqrt(vhat) + adamEps)
	}
	for i := 0; i < headOff; i++ {
		if flat[i] < 0 {
			flat[i] = 0
		} else if flat[i] > 1 {
			flat[i] = 1
		}
	}
}

func TestPropertyFusedStepMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			Hidden:       []int{4 + 2*r.Intn(4)},
			LearningRate: 0.01 + r.Float64()*0.1,
			Seed:         r.Int63(),
		}
		if r.Intn(2) == 1 {
			cfg.Hidden = append(cfg.Hidden, 4+2*r.Intn(3))
		}
		if r.Intn(2) == 1 {
			cfg.L1Logic = r.Float64() * 1e-3
		}
		if r.Intn(2) == 1 {
			cfg.L2Head = r.Float64() * 1e-2
		}
		m, err := New(3+r.Intn(8), cfg)
		if err != nil {
			panic(err)
		}
		n := m.numParams()
		grad := make([]float64, n)
		for i := range grad {
			grad[i] = r.NormFloat64()
		}
		// Random optimizer pre-state, as mid-training would have.
		steps := r.Intn(50)
		for i := 0; i < n; i++ {
			m.opt.m[i] = r.NormFloat64() * 0.1
			m.opt.v[i] = r.Float64() * 0.01
		}
		m.opt.t = steps

		wantFlat := append([]float64(nil), m.flat...)
		wantM := append([]float64(nil), m.opt.m...)
		wantV := append([]float64(nil), m.opt.v...)
		referenceStep(wantFlat, grad, wantM, wantV, steps+1, m.headOff,
			cfg.LearningRate, cfg.L1Logic, cfg.L2Head)

		m.stepFused(grad)
		for i := range wantFlat {
			if m.flat[i] != wantFlat[i] || m.opt.m[i] != wantM[i] || m.opt.v[i] != wantV[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTrainingDeterministic(t *testing.T) {
	// Two independent models with identical config and data must produce
	// bit-identical losses and parameters — buffer pooling and fixed-order
	// worker reduction may not introduce nondeterminism.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs, ys := goldenData(60+r.Intn(60), 10+r.Intn(10), r.Int63())
		cfg := Config{
			Hidden:    []int{6 + 2*r.Intn(3)},
			Epochs:    1 + r.Intn(3),
			BatchSize: 8 + r.Intn(24),
			Grafting:  r.Intn(2) == 1,
			KeepBest:  r.Intn(2) == 1,
			Seed:      r.Int63(),
			Workers:   1 + r.Intn(4),
		}
		a, err := New(len(xs[0]), cfg)
		if err != nil {
			panic(err)
		}
		b, err := New(len(xs[0]), cfg)
		if err != nil {
			panic(err)
		}
		if a.TrainEpochs(xs, ys, a.cfg.Epochs) != b.TrainEpochs(xs, ys, b.cfg.Epochs) {
			return false
		}
		pa, pb := a.Params(), b.Params()
		for i := range pa {
			if pa[i] != pb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchGradAllocs(t *testing.T) {
	// Steady-state per-batch gradient work must be allocation free on the
	// single-worker path (the multi-worker path spends a fixed handful on
	// goroutine startup).
	xs, ys := goldenData(64, 16, 21)
	m, err := New(16, Config{Hidden: []int{8}, Workers: 1, Grafting: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]int, len(xs))
	for i := range batch {
		batch[i] = i
	}
	gbs := []*gradBuffers{m.getGradBuffers()}
	defer m.putGradBuffers(gbs[0])
	losses := make([]float64, 1)
	grad := make([]float64, m.numParams())
	m.batchGrad(xs, ys, batch, gbs, losses, grad) // warm up
	if n := testing.AllocsPerRun(50, func() {
		m.batchGrad(xs, ys, batch, gbs, losses, grad)
	}); n != 0 {
		t.Errorf("batchGrad allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		m.stepFused(grad)
	}); n != 0 {
		t.Errorf("stepFused allocates %v per run, want 0", n)
	}
}

// packBits packs {0,1} rows of width dim into dataset.Columns' bit-column
// layout: word b*dim+i holds input i of rows 64b … 64b+63.
func packBits(xs [][]float64) []uint64 {
	if len(xs) == 0 {
		return nil
	}
	dim := len(xs[0])
	words := make([]uint64, (len(xs)+63)/64*dim)
	for r, x := range xs {
		for i, v := range x {
			if v != 0 {
				words[r/64*dim+i] |= 1 << (r % 64)
			}
		}
	}
	return words
}

func bitFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TestPropertyActivationBitsMatchForward checks the bit-column evaluator
// against refForward on {0,1} rows: every rule activation and every score
// bit for bit, over random architectures (one layer, or Hidden [16, 8]
// with its skip connection), sparse selections that leave some nodes
// selecting nothing, batch sizes on both sides of a 64-row block, and head
// weights that include −0, ±Inf and NaN.
func TestPropertyActivationBitsMatchForward(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, 1000}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 3 + r.Intn(20)
		hidden := []int{2 + 2*r.Intn(6)}
		if r.Intn(2) == 1 {
			hidden = []int{16, 8}
		}
		m, err := New(dim, Config{Hidden: hidden, Seed: r.Int63()})
		if err != nil {
			panic(err)
		}
		p := m.Params()
		density := 0.05 + 0.4*r.Float64()
		for i := 0; i < m.headOff; i++ {
			p[i] = 0.5 * r.Float64()
			if r.Float64() < density {
				p[i] = 1 - p[i]*0.99
			}
		}
		for i := m.headOff; i < len(p); i++ {
			switch r.Intn(16) {
			case 0:
				p[i] = math.Inf(1)
			case 1:
				p[i] = math.Inf(-1)
			case 2:
				p[i] = math.NaN()
			case 3:
				p[i] = math.Copysign(0, -1)
			default:
				p[i] = r.NormFloat64()
			}
		}
		if err := m.SetParams(p); err != nil {
			panic(err)
		}
		// Clear one node's whole selection, so at least one node selects
		// nothing.
		l := m.layers[r.Intn(len(m.layers))]
		row := l.row(r.Intn(l.size()))
		for i := range row {
			row[i] = 0
		}
		n := sizes[r.Intn(len(sizes))]
		on := r.Float64()
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = make([]float64, dim)
			for j := range xs[i] {
				if r.Float64() < on {
					xs[i][j] = 1
				}
			}
		}
		b := m.Binarize()
		acts, scores := b.ActivationBits(packBits(xs), n)
		if len(acts) != n || len(scores) != n {
			return false
		}
		for i, x := range xs {
			want, wantActs := refForward(m, x, true)
			// A NaN score only has to be NaN: which NaN payload an
			// addition of two NaNs keeps depends on the operand order the
			// compiler picks, which Go leaves open.
			if !same(scores[i], want) && !(math.IsNaN(scores[i]) && math.IsNaN(want)) {
				return false
			}
			for j, a := range wantActs {
				if !same(bitFloat(acts[i].Test(j)), a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
