package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Config{}); err == nil {
		t.Fatal("inDim=0 should error")
	}
	if _, err := New(4, Config{Hidden: []int{1}}); err == nil {
		t.Fatal("hidden layer of 1 node should error")
	}
	m, err := New(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.RuleDim() != 64 {
		t.Fatalf("default RuleDim = %d, want 64", m.RuleDim())
	}
	if m.InDim() != 4 {
		t.Fatalf("InDim = %d", m.InDim())
	}
}

func TestConjDisjForwardSemantics(t *testing.T) {
	// Discrete conj: product over selected inputs.
	x := []float64{1, 0, 1}
	if got := conjForward(x, []float64{1, 0, 1}, true); got != 1 {
		t.Fatalf("conj over satisfied selection = %v, want 1", got)
	}
	if got := conjForward(x, []float64{1, 1, 0}, true); got != 0 {
		t.Fatalf("conj with violated selection = %v, want 0", got)
	}
	if got := conjForward(x, []float64{0, 0, 0}, true); got != 1 {
		t.Fatalf("empty conj = %v, want 1 (neutral element)", got)
	}
	// Discrete disj: 1 iff any selected input is active.
	if got := disjForward(x, []float64{0, 1, 0}, true); got != 0 {
		t.Fatalf("disj over inactive selection = %v, want 0", got)
	}
	if got := disjForward(x, []float64{0, 1, 1}, true); got != 1 {
		t.Fatalf("disj with active selection = %v, want 1", got)
	}
	if got := disjForward(x, []float64{0, 0, 0}, true); got != 0 {
		t.Fatalf("empty disj = %v, want 0", got)
	}
	// Continuous forms at binary weights coincide with discrete ones.
	for trial := 0; trial < 50; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		n := 1 + r.Intn(6)
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(2))
			ws[i] = float64(r.Intn(2))
		}
		if c, d := conjForward(xs, ws, false), conjForward(xs, ws, true); math.Abs(c-d) > 1e-12 {
			t.Fatalf("conj continuous %v != discrete %v at binary weights", c, d)
		}
		if c, d := disjForward(xs, ws, false), disjForward(xs, ws, true); math.Abs(c-d) > 1e-12 {
			t.Fatalf("disj continuous %v != discrete %v at binary weights", c, d)
		}
	}
}

func TestParamsRoundTrip(t *testing.T) {
	m, err := New(7, Config{Hidden: []int{8, 6}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Params()
	want := m.numParams()
	// 8 nodes × 7 inputs + 6 nodes × (7+8) inputs + 14 head + 1 bias
	if wantManual := 8*7 + 6*15 + 14 + 1; want != wantManual {
		t.Fatalf("numParams = %d, want %d", want, wantManual)
	}
	if len(p) != want {
		t.Fatalf("Params length = %d, want %d", len(p), want)
	}
	p2 := make([]float64, len(p))
	for i := range p2 {
		p2[i] = float64(i%10) / 10
	}
	if err := m.SetParams(p2); err != nil {
		t.Fatal(err)
	}
	got := m.Params()
	for i := range got {
		if got[i] != p2[i] {
			t.Fatalf("param %d = %v, want %v", i, got[i], p2[i])
		}
	}
	if err := m.SetParams(p2[:3]); err == nil {
		t.Fatal("short SetParams should error")
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := New(5, Config{Hidden: []int{4}, Seed: 1})
	c := m.Clone()
	mp, cp := m.Params(), c.Params()
	for i := range mp {
		if mp[i] != cp[i] {
			t.Fatal("clone params differ")
		}
	}
	p := c.Params()
	p[0] = 0.123
	if err := c.SetParams(p); err != nil {
		t.Fatal(err)
	}
	if m.Params()[0] == 0.123 {
		t.Fatal("mutating clone affected original")
	}
}

func TestPredictConsistency(t *testing.T) {
	m, _ := New(6, Config{Hidden: []int{8}, Seed: 5})
	xs := [][]float64{
		{1, 0, 1, 0, 1, 0},
		{0, 1, 0, 1, 0, 1},
		{1, 1, 1, 1, 1, 1},
		{0, 0, 0, 0, 0, 0},
	}
	batch := m.PredictBatch(xs)
	for i, x := range xs {
		if one := m.Predict(x); one != batch[i] {
			t.Fatalf("Predict(%d)=%d vs batch %d", i, one, batch[i])
		}
		score := m.Score(x)
		want := 0
		if score >= 0 {
			want = 1
		}
		if batch[i] != want {
			t.Fatalf("prediction %d inconsistent with score %v", batch[i], score)
		}
	}
}

func TestAccuracy(t *testing.T) {
	m, _ := New(3, Config{Hidden: []int{4}, Seed: 2})
	xs := [][]float64{{1, 0, 0}, {0, 1, 0}}
	pred := m.PredictBatch(xs)
	if acc := m.Accuracy(xs, pred); acc != 1 {
		t.Fatalf("accuracy vs own predictions = %v, want 1", acc)
	}
	flip := []int{1 - pred[0], 1 - pred[1]}
	if acc := m.Accuracy(xs, flip); acc != 0 {
		t.Fatalf("accuracy vs flipped = %v, want 0", acc)
	}
	if m.Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestRuleActivationsMatchSpecs(t *testing.T) {
	m, _ := New(6, Config{Hidden: []int{8}, Seed: 9})
	// Force a known structure: node 0 (conj) selects inputs 0,1; node 4
	// (disj; numConj=4) selects inputs 2,3.
	p := m.Params()
	for i := range p {
		p[i] = 0
	}
	setW := func(node, in int, v float64) { p[node*6+in] = v }
	setW(0, 0, 1)
	setW(0, 1, 1)
	setW(4, 2, 1)
	setW(4, 3, 1)
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	specs := m.RuleSpecs()
	if len(specs) != 8 {
		t.Fatalf("specs = %d, want 8", len(specs))
	}
	if !specs[0].Conj || len(specs[0].Selected) != 2 {
		t.Fatalf("spec 0 wrong: %+v", specs[0])
	}
	if specs[4].Conj || len(specs[4].Selected) != 2 {
		t.Fatalf("spec 4 wrong: %+v", specs[4])
	}

	act := m.RuleActivations([]float64{1, 1, 0, 0, 0, 0}, nil)
	if act[0] != 1 {
		t.Fatal("conj node should fire when both selected inputs are 1")
	}
	if act[4] != 0 {
		t.Fatal("disj node should not fire when selected inputs are 0")
	}
	act = m.RuleActivations([]float64{1, 0, 1, 0, 0, 0}, nil)
	if act[0] != 0 {
		t.Fatal("conj node must not fire with one input missing")
	}
	if act[4] != 1 {
		t.Fatal("disj node should fire with one selected input active")
	}
}

// TestGradientCheck compares analytic continuous-mode gradients against
// central finite differences of the logistic loss.
func TestGradientCheck(t *testing.T) {
	m, err := New(5, Config{Hidden: []int{6}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Move weights into the interior so finite differences are smooth.
	p := m.Params()
	r := rand.New(rand.NewSource(4))
	for i := range p {
		p[i] = 0.15 + 0.7*r.Float64()
	}
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 0, 1, 1, 0}
	y := 1

	gb := m.newGradBuffers()
	m.backprop(x, y, false, gb)
	analytic := gb.grad

	loss := func(params []float64) float64 {
		if err := m.SetParams(params); err != nil {
			t.Fatal(err)
		}
		s := m.forward(x, false, m.newBuffers())
		pp := sigmoid(s)
		if y == 1 {
			return -math.Log(pp)
		}
		return -math.Log(1 - pp)
	}
	const h = 1e-6
	base := m.Params()
	for i := range base {
		up := append([]float64(nil), base...)
		dn := append([]float64(nil), base...)
		up[i] += h
		dn[i] -= h
		num := (loss(up) - loss(dn)) / (2 * h)
		if diff := math.Abs(num - analytic[i]); diff > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("param %d: numeric %v vs analytic %v", i, num, analytic[i])
		}
	}
}

// TestGradientCheckTwoLayers exercises the skip-connection backprop path.
func TestGradientCheckTwoLayers(t *testing.T) {
	m, err := New(4, Config{Hidden: []int{4, 4}, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Params()
	r := rand.New(rand.NewSource(8))
	for i := range p {
		p[i] = 0.15 + 0.7*r.Float64()
	}
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	x := []float64{0, 1, 1, 0}
	y := 0

	gb := m.newGradBuffers()
	m.backprop(x, y, false, gb)
	analytic := append([]float64(nil), gb.grad...)

	loss := func(params []float64) float64 {
		if err := m.SetParams(params); err != nil {
			t.Fatal(err)
		}
		s := m.forward(x, false, m.newBuffers())
		pp := sigmoid(s)
		return -math.Log(1 - pp)
	}
	const h = 1e-6
	base := m.Params()
	for i := range base {
		up := append([]float64(nil), base...)
		dn := append([]float64(nil), base...)
		up[i] += h
		dn[i] -= h
		num := (loss(up) - loss(dn)) / (2 * h)
		if diff := math.Abs(num - analytic[i]); diff > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("param %d: numeric %v vs analytic %v", i, num, analytic[i])
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Learn a simple AND of two inputs.
	xs := [][]float64{{0, 0, 1}, {0, 1, 1}, {1, 0, 0}, {1, 1, 0}}
	ys := []int{0, 0, 0, 1}
	m, _ := New(3, Config{Hidden: []int{8}, Epochs: 150, BatchSize: 4, Grafting: true, Seed: 21})
	first := m.TrainEpochs(xs, ys, 1)
	last := m.TrainEpochs(xs, ys, 149)
	if last >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
	if acc := m.Accuracy(xs, ys); acc < 1 {
		t.Fatalf("AND task accuracy = %v, want 1.0", acc)
	}
}

// TestTrainInnerLoopZeroAlloc pins the training hot loop at zero
// allocations per batch: one batchGrad + stepFused round must not allocate
// once scratch pools are warm.
func TestTrainInnerLoopZeroAlloc(t *testing.T) {
	xs, ys := benchData(256, 40, 4)
	m, err := New(40, Config{
		Hidden: []int{32}, Grafting: true, Seed: 3,
		L1Logic: 2e-4, L2Head: 1e-3, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	grad := make([]float64, m.numParams())
	gbs := []*gradBuffers{m.getGradBuffers()}
	defer m.putGradBuffers(gbs[0])
	losses := make([]float64, 1)
	batch := make([]int, 32)
	for i := range batch {
		batch[i] = i
	}

	// Warm the pools and the discrete compilation cache.
	for i := 0; i < 3; i++ {
		m.batchGrad(xs, ys, batch, gbs, losses, grad)
		m.stepFused(grad)
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.batchGrad(xs, ys, batch, gbs, losses, grad)
		m.stepFused(grad)
	})
	if allocs != 0 {
		t.Fatalf("training inner loop allocates %.1f times per batch, want 0", allocs)
	}
}

func TestTrainEmptyAndMismatched(t *testing.T) {
	m, _ := New(3, Config{Hidden: []int{4}})
	if got := m.TrainEpochs(nil, nil, 5); got != 0 {
		t.Fatalf("training on empty data returned %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths should panic")
		}
	}()
	m.TrainEpochs([][]float64{{1, 0, 0}}, nil, 1)
}

func TestSigmoidStable(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %v", s)
	}
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %v", s)
	}
}

func TestConjBackwardZeroFactorHandling(t *testing.T) {
	// One exactly-zero factor: w=1, x=0 makes F = 0. Gradients for that index
	// must use the product of the remaining factors.
	x := []float64{0, 1, 1}
	w := []float64{1, 0.5, 0.5}
	gw := make([]float64, 3)
	gx := make([]float64, 3)
	fbuf := make([]float64, 3)
	_, prodNZ, zeros, zeroIdx := conjForwardTrain(x, w, fbuf)
	if zeros != 1 || zeroIdx != 0 {
		t.Fatalf("scan found zeros=%d zeroIdx=%d, want 1 at 0", zeros, zeroIdx)
	}
	conjBackward(x, w, 1, gw, gx, 0, fbuf, prodNZ, zeros, zeroIdx)
	// d out / d w_0 = -(1-x0) * F1*F2 = -(1)*(1*1) = -1
	if math.Abs(gw[0]+1) > 1e-9 {
		t.Fatalf("gw[0] = %v, want -1", gw[0])
	}
	// Other partials contain the zero factor, so they vanish.
	if gw[1] != 0 || gw[2] != 0 {
		t.Fatalf("gw[1,2] = %v,%v, want 0", gw[1], gw[2])
	}
	// Two zero factors: every partial is zero, so backprop skips the node
	// entirely — the scan must report the count that triggers that skip.
	_, _, zeros2, _ := conjForwardTrain([]float64{0, 0, 1}, []float64{1, 1, 0.5}, fbuf)
	if zeros2 != 2 {
		t.Fatalf("double-zero case: scan found %d zero factors, want 2", zeros2)
	}
}

func TestDisjBackwardZeroFactorHandling(t *testing.T) {
	// G_0 = 1 - x0*w0 = 0 when both are 1.
	x := []float64{1, 0, 1}
	w := []float64{1, 0.5, 0.25}
	gw := make([]float64, 3)
	gx := make([]float64, 3)
	fbuf := make([]float64, 3)
	_, prodNZ, zeros, zeroIdx := disjForwardTrain(x, w, fbuf)
	disjBackward(x, w, 1, gw, gx, 0, fbuf, prodNZ, zeros, zeroIdx)
	// d out/d w_0 = x0 * G1*G2 = 1 * (1)*(0.75) = 0.75
	if math.Abs(gw[0]-0.75) > 1e-9 {
		t.Fatalf("gw[0] = %v, want 0.75", gw[0])
	}
	if gw[1] != 0 || gw[2] != 0 {
		t.Fatalf("partials through the zero factor should vanish: %v", gw)
	}
}

func TestWorkersConfigRespected(t *testing.T) {
	m, _ := New(3, Config{Hidden: []int{4}, Workers: 2})
	if got := m.workerCount(); got != 2 {
		t.Fatalf("workerCount = %d, want 2", got)
	}
	m2, _ := New(3, Config{Hidden: []int{4}})
	if got := m2.workerCount(); got < 1 {
		t.Fatalf("default workerCount = %d", got)
	}
}

func BenchmarkForwardDiscrete(b *testing.B) {
	m, _ := New(120, Config{Hidden: []int{128}, Seed: 1})
	x := make([]float64, 120)
	for i := range x {
		if i%3 == 0 {
			x[i] = 1
		}
	}
	buf := m.newBuffers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.forward(x, true, buf)
	}
}

func BenchmarkBackprop(b *testing.B) {
	m, _ := New(120, Config{Hidden: []int{128}, Seed: 1})
	x := make([]float64, 120)
	for i := range x {
		if i%3 == 0 {
			x[i] = 1
		}
	}
	gb := m.newGradBuffers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.backprop(x, 1, true, gb)
	}
}
