package dataset

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestSchemaValidate(t *testing.T) {
	good := &Schema{
		Name: "g",
		Features: []Feature{
			{Name: "d", Kind: Discrete, Categories: []string{"a", "b"}},
			{Name: "c", Kind: Continuous, Min: 0, Max: 1},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []*Schema{
		{Name: "empty"},
		{Name: "nocat", Features: []Feature{{Name: "d", Kind: Discrete}}},
		{Name: "dom", Features: []Feature{{Name: "c", Kind: Continuous, Min: 1, Max: 1}}},
		{Name: "kind", Features: []Feature{{Name: "k", Kind: FeatureKind(7)}}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schema %q should be invalid", s.Name)
		}
	}
}

// checkTable fails t unless every instance of tab fits its schema: one
// value per feature, a 0/1 label, and a known category or -1 (unknown) for
// every discrete feature.
func checkTable(t *testing.T, tab *Table) {
	t.Helper()
	if err := tab.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, in := range tab.Instances {
		if len(in.Values) != tab.Schema.NumFeatures() || in.Label != 0 && in.Label != 1 {
			t.Fatalf("instance %d = %+v", i, in)
		}
		for j, f := range tab.Schema.Features {
			v := int(in.Values[j])
			if f.Kind == Discrete && (float64(v) != in.Values[j] || v < -1 || v >= len(f.Categories)) {
				t.Fatalf("instance %d feature %q has invalid category %v", i, f.Name, in.Values[j])
			}
		}
	}
}

// positiveFraction returns the share of label-1 instances in tab.
func positiveFraction(tab *Table) float64 {
	pos := 0
	for _, in := range tab.Instances {
		pos += in.Label
	}
	return float64(pos) / float64(tab.Len())
}

func TestSubsetClone(t *testing.T) {
	tab := TicTacToe()
	sub := tab.Subset([]int{0, 5, 10})
	if sub.Len() != 3 {
		t.Fatalf("Subset len = %d", sub.Len())
	}
	if &sub.Instances[0].Values[0] != &tab.Instances[0].Values[0] {
		t.Fatal("Subset should share instance storage")
	}
	cl := tab.Clone()
	cl.Instances[0].Values[0] = 99
	if tab.Instances[0].Values[0] == 99 {
		t.Fatal("Clone should deep-copy values")
	}
}

func TestSplit(t *testing.T) {
	tab := TicTacToe()
	r := stats.NewRNG(1)
	train, test := tab.Split(r, 0.2)
	if train.Len()+test.Len() != tab.Len() {
		t.Fatalf("split loses rows: %d + %d != %d", train.Len(), test.Len(), tab.Len())
	}
	wantTest := int(0.2 * float64(tab.Len()))
	if test.Len() != wantTest {
		t.Fatalf("test size = %d, want %d", test.Len(), wantTest)
	}
}

func TestStratifiedSplitPreservesRatio(t *testing.T) {
	tab := Bank(stats.NewRNG(7), 3000) // imbalanced (~14% positive)
	r := stats.NewRNG(2)
	train, test := tab.StratifiedSplit(r, 0.25)
	if train.Len()+test.Len() != tab.Len() {
		t.Fatalf("rows lost: %d + %d != %d", train.Len(), test.Len(), tab.Len())
	}
	base := positiveFraction(tab)
	if math.Abs(positiveFraction(test)-base) > 0.01 {
		t.Fatalf("test ratio %v drifted from %v", positiveFraction(test), base)
	}
	if math.Abs(positiveFraction(train)-base) > 0.01 {
		t.Fatalf("train ratio %v drifted from %v", positiveFraction(train), base)
	}
}

func TestTicTacToeMatchesUCI(t *testing.T) {
	tab := TicTacToe()
	if got := tab.Len(); got != 958 {
		t.Fatalf("tic-tac-toe has %d boards, UCI has 958", got)
	}
	// UCI positive rate: 626/958 ≈ 65.34%.
	pos := int(positiveFraction(tab)*float64(tab.Len()) + 0.5)
	if pos != 626 {
		t.Fatalf("positives = %d, want 626", pos)
	}
	checkTable(t, tab)
	// Determinism.
	again := TicTacToe()
	for i := range tab.Instances {
		for j := range tab.Instances[i].Values {
			if tab.Instances[i].Values[j] != again.Instances[i].Values[j] {
				t.Fatal("TicTacToe is not deterministic")
			}
		}
	}
}

func TestTicTacToeLabelsConsistent(t *testing.T) {
	tab := TicTacToe()
	// Re-derive the winner from the raw cells and compare with the label.
	for i, in := range tab.Instances {
		var b [9]int8
		for j, v := range in.Values {
			switch int(v) {
			case 0:
				b[j] = 1 // x
			case 1:
				b[j] = 2 // o
			default:
				b[j] = 0
			}
		}
		xw := wins(b, 1)
		ow := wins(b, 2)
		if xw && ow {
			t.Fatalf("board %d has two winners", i)
		}
		if xw != (in.Label == 1) {
			t.Fatalf("board %d label %d disagrees with x-wins=%v", i, in.Label, xw)
		}
		if !xw && !ow && !boardFull(b) {
			t.Fatalf("board %d is not terminal", i)
		}
	}
}

func TestAdultGenerator(t *testing.T) {
	r := stats.NewRNG(42)
	tab := Adult(r, 4000)
	checkTable(t, tab)
	if tab.Len() != 4000 {
		t.Fatalf("len = %d", tab.Len())
	}
	frac := positiveFraction(tab)
	if frac < 0.15 || frac > 0.40 {
		t.Fatalf("adult positive fraction = %v, want ~0.25", frac)
	}
	// The planted capital-gain rule must be visible: P(y=1 | gain>21k) should
	// far exceed the base rate.
	var hi, hiPos, lo, loPos float64
	for _, in := range tab.Instances {
		if in.Values[10] > 21000 {
			hi++
			hiPos += float64(in.Label)
		} else {
			lo++
			loPos += float64(in.Label)
		}
	}
	if hi < 30 {
		t.Fatalf("too few high-capital-gain rows: %v", hi)
	}
	if hiPos/hi < loPos/lo+0.3 {
		t.Fatalf("capital-gain rule not planted: P(+|gain>21k)=%v vs base %v", hiPos/hi, loPos/lo)
	}
}

func TestBankGenerator(t *testing.T) {
	r := stats.NewRNG(43)
	tab := Bank(r, 4000)
	checkTable(t, tab)
	frac := positiveFraction(tab)
	if frac < 0.05 || frac > 0.30 {
		t.Fatalf("bank positive fraction = %v, want ~0.14", frac)
	}
	// Duration rule: long calls convert far above base rate.
	var hi, hiPos, all, allPos float64
	for _, in := range tab.Instances {
		all++
		allPos += float64(in.Label)
		if in.Values[11] > 500 {
			hi++
			hiPos += float64(in.Label)
		}
	}
	if hi < 30 {
		t.Fatalf("too few long-duration rows: %v", hi)
	}
	if hiPos/hi < allPos/all+0.2 {
		t.Fatalf("duration rule not planted: %v vs %v", hiPos/hi, allPos/all)
	}
}

func TestDota2Generator(t *testing.T) {
	r := stats.NewRNG(44)
	tab := Dota2(r, 3000)
	checkTable(t, tab)
	frac := positiveFraction(tab)
	if math.Abs(frac-0.5) > 0.07 {
		t.Fatalf("dota2 positive fraction = %v, want ~0.5", frac)
	}
	// Every row must have exactly 5 heroes per team.
	for i, in := range tab.Instances {
		var t1, t2 int
		for j := 3; j < len(in.Values); j++ {
			switch int(in.Values[j]) {
			case 0:
				t1++
			case 1:
				t2++
			}
		}
		if t1 != 5 || t2 != 5 {
			t.Fatalf("row %d has team sizes %d/%d", i, t1, t2)
		}
	}
}

func TestEncoderWidthAndNames(t *testing.T) {
	s := &Schema{
		Name: "mix",
		Features: []Feature{
			{Name: "col", Kind: Discrete, Categories: []string{"red", "blue"}},
			{Name: "temp", Kind: Continuous, Min: 0, Max: 100},
		},
	}
	e, err := NewEncoder(s, 3, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// 2 categories + unknown + 2*3 thresholds = 9
	if e.Width() != 9 {
		t.Fatalf("Width = %d, want 9", e.Width())
	}
	if got := e.PredicateName(0); got != "col = red" {
		t.Fatalf("PredicateName(0) = %q", got)
	}
	if got := e.PredicateName(2); got != "col = <unknown>" {
		t.Fatalf("PredicateName(2) = %q", got)
	}
}

func TestEncoderEncode(t *testing.T) {
	s := &Schema{
		Name: "mix",
		Features: []Feature{
			{Name: "col", Kind: Discrete, Categories: []string{"red", "blue"}},
			{Name: "temp", Kind: Continuous, Min: 0, Max: 100},
		},
	}
	e, err := NewEncoder(s, 4, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	v := e.Encode(Instance{Values: []float64{1, 50}}, nil)
	if v[0] != 0 || v[1] != 1 || v[2] != 0 {
		t.Fatalf("one-hot wrong: %v", v[:3])
	}
	// Unknown category routes to the unknown slot.
	u := e.Encode(Instance{Values: []float64{-1, 50}}, nil)
	if u[2] != 1 || u[0] != 0 || u[1] != 0 {
		t.Fatalf("unknown slot wrong: %v", u[:3])
	}
	// Threshold semantics: an extreme value must activate all lower bounds
	// and no upper bounds.
	hi := e.Encode(Instance{Values: []float64{0, 100}}, nil)
	for k := 0; k < 4; k++ {
		if hi[3+k] != 1 {
			t.Fatalf("100 should exceed every lower bound, got %v", hi[3:])
		}
		if hi[3+4+k] != 0 {
			t.Fatalf("100 should be below no upper bound, got %v", hi[3:])
		}
	}
	// Reuse of dst.
	dst := make([]float64, e.Width())
	out := e.Encode(Instance{Values: []float64{0, 0}}, dst)
	if &out[0] != &dst[0] {
		t.Fatal("Encode should reuse dst")
	}
}

func TestEncoderErrors(t *testing.T) {
	s := &Schema{Name: "s", Features: []Feature{{Name: "c", Kind: Continuous, Min: 0, Max: 1}}}
	if _, err := NewEncoder(s, 0, stats.NewRNG(1)); err == nil {
		t.Fatal("tauD=0 should error")
	}
	bad := &Schema{Name: "bad"}
	if _, err := NewEncoder(bad, 3, stats.NewRNG(1)); err == nil {
		t.Fatal("invalid schema should error")
	}
}

func TestEncodeTable(t *testing.T) {
	tab := TicTacToe()
	e, err := NewEncoder(tab.Schema, 10, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	x, y := e.EncodeTable(tab)
	if len(x) != tab.Len() || len(y) != tab.Len() {
		t.Fatalf("EncodeTable sizes wrong")
	}
	// tic-tac-toe: 9 features × (3 cats + unknown) = 36 predicates; each row
	// has exactly 9 active predicates (one per cell).
	if e.Width() != 36 {
		t.Fatalf("tic-tac-toe width = %d, want 36", e.Width())
	}
	for i, row := range x {
		n := 0
		for _, v := range row {
			if v == 1 {
				n++
			} else if v != 0 {
				t.Fatalf("non-binary encoding %v", v)
			}
		}
		if n != 9 {
			t.Fatalf("row %d has %d active predicates, want 9", i, n)
		}
	}
}

func TestRegistry(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 4 {
		t.Fatalf("want 4 benchmarks, got %d", len(bs))
	}
	for _, b := range bs {
		tab := b.Generate(stats.NewRNG(1), 100)
		if tab.Len() == 0 {
			t.Fatalf("%s generated empty table", b.Name)
		}
		checkTable(t, tab)
	}
	if _, err := ByName("adult"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestFeatureKindString(t *testing.T) {
	if Discrete.String() != "discrete" || Continuous.String() != "continuous" {
		t.Fatal("FeatureKind.String broken")
	}
	if FeatureKind(9).String() == "" {
		t.Fatal("unknown kind should render")
	}
}
