package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(0)
	if s.Width() != 0 || s.Count() != 0 {
		t.Fatalf("empty set misbehaves: width=%d count=%d", s.Width(), s.Count())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative width")
		}
	}()
	New(-1)
}

func TestSetTestClear(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count after clear = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, fn := range []func(){
		func() { s.Set(10) },
		func() { s.Set(-1) },
		func() { s.Test(10) },
		func() { s.Clear(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected out-of-range panic")
				}
			}()
			fn()
		}()
	}
}

// fromIndices returns a width-bit set holding exactly the listed bits.
func fromIndices(width int, indices ...int) *Set {
	s := New(width)
	for _, i := range indices {
		s.Set(i)
	}
	return s
}

func TestFromIndicesAndIndicesRoundTrip(t *testing.T) {
	want := []int{2, 5, 63, 64, 99}
	s := fromIndices(100, want...)
	if got := s.Indices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
}

func TestEqualAndClone(t *testing.T) {
	a := fromIndices(70, 1, 64)
	c := a.Clone()
	if c.String() != a.String() {
		t.Fatal("clone not equal")
	}
	c.Set(2)
	if c.String() == a.String() || !c.Test(2) || a.Test(2) {
		t.Fatal("mutation of clone affected the original")
	}
}

func TestWeightedCount(t *testing.T) {
	s := fromIndices(5, 0, 2, 4)
	w := []float64{1, 10, 100, 1000, 10000}
	if got := s.WeightedCount(w); got != 10101 {
		t.Fatalf("WeightedCount = %v, want 10101", got)
	}
}

func TestWeightedIntersect(t *testing.T) {
	a := fromIndices(5, 0, 1, 2)
	b := fromIndices(5, 1, 2, 3)
	w := []float64{1, 10, 100, 1000, 10000}
	if got := a.WeightedIntersect(b, w); got != 110 {
		t.Fatalf("WeightedIntersect = %v, want 110", got)
	}
}

func TestWeightedPanicsOnShortWeights(t *testing.T) {
	s := New(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short weights")
		}
	}()
	s.WeightedCount([]float64{1})
}

func TestKeyDistinguishesPatterns(t *testing.T) {
	a := fromIndices(128, 0)
	b := fromIndices(128, 64)
	if a.Key() == b.Key() {
		t.Fatal("distinct patterns share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Fatal("equal patterns have different keys")
	}
}

func TestString(t *testing.T) {
	s := fromIndices(5, 0, 2)
	if got := s.String(); got != "10100" {
		t.Fatalf("String = %q, want 10100", got)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	a, b := New(5), New(6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected width-mismatch panic")
		}
	}()
	a.WeightedIntersect(b, make([]float64, 6))
}

// randomSet builds a reproducible random set for property tests.
func randomSet(r *rand.Rand, width int) *Set {
	s := New(width)
	for i := 0; i < width; i++ {
		if r.Intn(2) == 1 {
			s.Set(i)
		}
	}
	return s
}

func TestPropertyWeightedIntersectMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(150)
		a, b := randomSet(r, width), randomSet(r, width)
		w := make([]float64, width)
		for i := range w {
			w[i] = r.Float64()
		}
		naive := 0.0
		for i := 0; i < width; i++ {
			if a.Test(i) && b.Test(i) {
				naive += w[i]
			}
		}
		got := a.WeightedIntersect(b, w)
		diff := got - naive
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWeightedIntersect512(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randomSet(r, 512), randomSet(r, 512)
	w := make([]float64, 512)
	for i := range w {
		w[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.WeightedIntersect(y, w)
	}
}

func TestPropertyAndIntoMatchesCloneAnd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(200)
		a, b := randomSet(r, width), randomSet(r, width)
		want := a.Clone().And(b)
		for i := 0; i < width; i++ {
			if want.Test(i) != (a.Test(i) && b.Test(i)) {
				return false
			}
		}
		// nil destination allocates; reused destination must be overwritten.
		aBits, bBits := a.String(), b.String()
		got := a.AndInto(b, nil)
		if got.String() != want.String() {
			return false
		}
		reused := randomSet(r, width) // stale bits must not leak through
		if a.AndInto(b, reused).String() != want.String() {
			return false
		}
		// Wrong-width destination is replaced, not written through.
		if a.AndInto(b, randomSet(r, width+1)).String() != want.String() {
			return false
		}
		// Operands stay untouched.
		return a.String() == aBits && b.String() == bBits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyForEachMatchesIndices(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 1+r.Intn(200))
		var got []int
		s.ForEach(func(i int) { got = append(got, i) })
		want := s.Indices()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAppendKeyMatchesEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(200)
		a, b := randomSet(r, width), randomSet(r, width)
		ka := string(a.AppendKey(nil))
		kb := string(b.AppendKey(nil))
		if (ka == kb) != (a.String() == b.String()) {
			return false
		}
		// Appending to a prefix keeps the prefix.
		pre := []byte{0xAB}
		full := a.AppendKey(pre)
		return full[0] == 0xAB && string(full[1:]) == ka
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
