package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGammaMeanVariance(t *testing.T) {
	// Gamma(k,1) has mean k and variance k.
	r := NewRNG(7)
	for _, shape := range []float64{0.3, 0.7, 1.0, 2.5, 9.0} {
		const n = 20000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			x := Gamma(r, shape)
			if x < 0 {
				t.Fatalf("Gamma(%v) produced negative sample %v", shape, x)
			}
			sum += x
			sumsq += x * x
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		if math.Abs(mean-shape) > 0.1*shape+0.05 {
			t.Errorf("Gamma(%v): mean = %v, want ≈ %v", shape, mean, shape)
		}
		if math.Abs(variance-shape) > 0.25*shape+0.1 {
			t.Errorf("Gamma(%v): var = %v, want ≈ %v", shape, variance, shape)
		}
	}
}

func TestGammaInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive shape")
		}
	}()
	Gamma(NewRNG(1), 0)
}

func TestDirichletSumsToOne(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{1, 2, 8, 50} {
		for _, alpha := range []float64{0.1, 0.6, 1.0, 10} {
			p := Dirichlet(r, n, alpha)
			if len(p) != n {
				t.Fatalf("Dirichlet length = %d, want %d", len(p), n)
			}
			sum := 0.0
			for _, v := range p {
				if v < 0 {
					t.Fatalf("negative Dirichlet component %v", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("Dirichlet(n=%d, a=%v) sums to %v", n, alpha, sum)
			}
		}
	}
}

func TestDirichletSkewIncreasesAsAlphaDecreases(t *testing.T) {
	r := NewRNG(11)
	spread := func(alpha float64) float64 {
		// average max-min spread over many draws
		total := 0.0
		const reps = 300
		for i := 0; i < reps; i++ {
			p := Dirichlet(r, 8, alpha)
			lo, hi := MinMax(p)
			total += hi - lo
		}
		return total / reps
	}
	if s01, s10 := spread(0.1), spread(10); s01 <= s10 {
		t.Fatalf("low alpha should be more skewed: spread(0.1)=%v spread(10)=%v", s01, s10)
	}
}

func TestDirichletInvalidArgsPanic(t *testing.T) {
	r := NewRNG(1)
	for _, fn := range []func(){
		func() { Dirichlet(r, 0, 1) },
		func() { Dirichlet(r, 3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMeanStdSum(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Std(xs); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", got)
	}
	if got := Sum(xs); got != 40 {
		t.Fatalf("Sum = %v, want 40", got)
	}
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Fatal("degenerate inputs should return 0")
	}
}

func TestMinMaxClip(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = (%v,%v)", lo, hi)
	}
	if Clip(5, 0, 1) != 1 || Clip(-5, 0, 1) != 0 || Clip(0.5, 0, 1) != 0.5 {
		t.Fatal("Clip misbehaves")
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 3}
	sum := Normalize(xs)
	if sum != 4 || xs[0] != 0.25 || xs[1] != 0.75 {
		t.Fatalf("Normalize: sum=%v xs=%v", sum, xs)
	}
	zeros := []float64{0, 0}
	Normalize(zeros)
	if zeros[0] != 0 || zeros[1] != 0 {
		t.Fatal("Normalize should leave all-zero input unchanged")
	}
}

func TestSpearmanPerfectAndInverse(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yUp := []float64{10, 20, 30, 40, 50}
	yDown := []float64{5, 4, 3, 2, 1}
	if got := Spearman(x, yUp); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman monotone = %v, want 1", got)
	}
	if got := Spearman(x, yDown); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Spearman inverse = %v, want -1", got)
	}
	if got := Spearman(x, []float64{7, 7, 7, 7, 7}); got != 0 {
		t.Fatalf("Spearman vs constant = %v, want 0", got)
	}
}

func TestSpearmanHandlesTies(t *testing.T) {
	x := []float64{1, 2, 2, 3}
	y := []float64{1, 2, 2, 3}
	if got := Spearman(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman with matching ties = %v, want 1", got)
	}
}

func TestKendall(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Kendall(x, []float64{1, 2, 3, 4}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Kendall identical = %v, want 1", got)
	}
	if got := Kendall(x, []float64{4, 3, 2, 1}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Kendall reversed = %v, want -1", got)
	}
	if got := Kendall(x, []float64{2, 2, 2, 2}); got != 0 {
		t.Fatalf("Kendall vs constant = %v, want 0", got)
	}
}

func TestAUC(t *testing.T) {
	if got := AUC([]float64{1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("AUC flat = %v, want 1", got)
	}
	if got := AUC([]float64{0, 1}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AUC ramp = %v, want 0.5", got)
	}
	if got := AUC([]float64{0.9}); got != 0.9 {
		t.Fatalf("AUC single = %v", got)
	}
	if got := AUC(nil); got != 0 {
		t.Fatalf("AUC empty = %v", got)
	}
}

func TestArgsortDesc(t *testing.T) {
	idx := ArgsortDesc([]float64{0.5, 0.9, 0.1, 0.9})
	// Descending with stable tie-break by index: 1 (0.9), 3 (0.9), 0, 2.
	want := []int{1, 3, 0, 2}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("ArgsortDesc = %v, want %v", idx, want)
		}
	}
}

func TestPropertySpearmanBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		n := 2 + r.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = r.Float64(), r.Float64()
		}
		s := Spearman(x, y)
		k := Kendall(x, y)
		return s >= -1-1e-9 && s <= 1+1e-9 && k >= -1-1e-9 && k <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySpearmanInvariantToMonotoneTransform(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		n := 3 + r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		y2 := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()
			y[i] = r.Float64()
			y2[i] = math.Exp(3 * y[i]) // strictly monotone transform
		}
		return math.Abs(Spearman(x, y)-Spearman(x, y2)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleAndPermArePermutations(t *testing.T) {
	r := NewRNG(5)
	idx := []int{0, 1, 2, 3, 4, 5, 6}
	Shuffle(r, idx)
	seen := make(map[int]bool)
	for _, v := range idx {
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Shuffle lost elements: %v", idx)
	}
	p := Perm(r, 10)
	seen = make(map[int]bool)
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Perm not a permutation: %v", p)
	}
}
