package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// trainMatched returns, per indexed training instance, how many test
// instances it was related to.
func trainMatched(r *Result) []int {
	out := make([]int, r.tracer.v.Len())
	for j, u := range r.tracer.v.group {
		out[j] = r.groupHits[u]
	}
	return out
}

// sameTrace reports whether two results agree on every traced output:
// predictions, per-instance counts, training matches, both allocation
// schemes and the full interpretability profiles and guidance.
func sameTrace(a, b *Result) bool {
	return reflect.DeepEqual(a.Pred, b.Pred) &&
		reflect.DeepEqual(a.Counts, b.Counts) &&
		reflect.DeepEqual(trainMatched(a), trainMatched(b)) &&
		reflect.DeepEqual(a.MicroScores(), b.MicroScores()) &&
		reflect.DeepEqual(a.MacroScores(), b.MacroScores()) &&
		reflect.DeepEqual(a.Profiles(0), b.Profiles(0)) &&
		reflect.DeepEqual(a.CollectionGuidance(0), b.CollectionGuidance(0))
}

func TestPropertyExtendedIndexMatchesFreshBuild(t *testing.T) {
	// Extend one index chunk by chunk at random split points, taking a view
	// after each chunk. Traced only after every chunk is in, each view must
	// equal a fresh build over exactly its own prefix.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newRandomFixture(r)
		cfg := Config{TauW: 0.5 + 0.5*r.Float64(), Delta: 1 + r.Intn(3)}
		x := NewIndex(fx.rs)
		var views []View
		var ends, parts []int
		for at := 0; at < len(fx.ups); {
			end := at + 1 + r.Intn(len(fx.ups)-at)
			for _, u := range fx.ups[at:end] {
				x.Append(u)
			}
			views, ends, parts = append(views, x.View()), append(ends, end), append(parts, x.Participants())
			at = end
		}
		for i, v := range views {
			if v.Len() != ends[i] {
				return false
			}
			want := NewTracerFromUploads(fx.rs, parts[i], fx.ups[:ends[i]], cfg).Trace(fx.tab)
			if !sameTrace(v.Tracer(cfg).Trace(fx.tab), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexAppendExistingGroupZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	fx := newRandomFixture(r)
	x := NewIndex(fx.rs)
	for _, u := range fx.ups {
		x.Append(u)
	}
	// Amortized slice growth rounds to 0 per run; any per-record garbage
	// would read 1 or more.
	u := fx.ups[0]
	if n := testing.AllocsPerRun(1000, func() { x.Append(u) }); n != 0 {
		t.Errorf("Append into an existing group allocates %v per record, want 0", n)
	}
}
