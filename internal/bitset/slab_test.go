package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeSlabIndependence(t *testing.T) {
	sets := MakeSlab(3, 70)
	sets[1].Set(0)
	sets[1].Set(69)
	for _, i := range []int{0, 2} {
		if sets[i].Count() != 0 {
			t.Fatalf("set %d dirtied by neighbour writes", i)
		}
	}
	if sets[1].Count() != 2 || !sets[1].Test(0) || !sets[1].Test(69) {
		t.Fatalf("set 1 = %v", sets[1].String())
	}
	if got := MakeSlab(0, 70); len(got) != 0 {
		t.Fatalf("empty slab has %d sets", len(got))
	}
	// Width-0 sets are legal, mirroring New(0).
	for _, s := range MakeSlab(2, 0) {
		if s.Width() != 0 || s.Count() != 0 {
			t.Fatalf("width-0 slab set = %+v", s)
		}
	}
}

// TestPropertySetPackedBytesMatchesPerBit pins the word-at-a-time loader to
// the obvious per-bit reference, including stray padding bits in the final
// byte, which must be masked off.
func TestPropertySetPackedBytesMatchesPerBit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(300)
		packed := make([]byte, (width+7)/8)
		r.Read(packed)

		want := New(width)
		for i := 0; i < width; i++ {
			if packed[i/8]&(1<<(i%8)) != 0 {
				want.Set(i)
			}
		}
		got := New(width)
		// Pre-dirty so the overwrite semantics are exercised too.
		for i := 0; i < width; i += 3 {
			got.Set(i)
		}
		got.SetPackedBytes(packed)
		if got.String() != want.String() {
			return false
		}
		// Canonical form: indices must all be in range even when the final
		// byte carries garbage past the width.
		for _, i := range got.Indices() {
			if i < 0 || i >= width {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetPackedBytesShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short packed input did not panic")
		}
	}()
	s := New(17)
	s.SetPackedBytes(make([]byte, 2))
}
