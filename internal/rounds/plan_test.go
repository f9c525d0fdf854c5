package rounds

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nn"
	"repro/internal/protocol"
)

// refEvalCoalition is the reconstruction a plan stands in for: the weighted
// average of every member parameter in member order, SetParams on a clone
// of the template, then CountCorrect. It also returns the compiled
// snapshot of the averaged model.
func refEvalCoalition(t *testing.T, m *nn.Model, u protocol.RoundUpdate, mask uint64, xs [][]float64, ys []int) (float64, *nn.Binarized) {
	t.Helper()
	var totalW float64
	for i := 0; i < u.Count; i++ {
		if mask&(1<<uint(i)) != 0 {
			totalW += u.Weight(i)
		}
	}
	agg := make([]float64, u.ParamCount)
	for i := 0; i < u.Count; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		w := u.Weight(i) / totalW
		for j := range agg {
			agg[j] += w * u.Row(i).At(j)
		}
	}
	c := m.Clone()
	if err := c.SetParams(agg); err != nil {
		t.Fatal(err)
	}
	return float64(c.CountCorrect(xs, ys)) / float64(len(xs)), c.Binarize()
}

// adversarialValues sit on, next to and around the threshold and its
// margin, or outside the range the margin's rounding bound covers.
var adversarialValues = []float64{
	0.5, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0),
	0.5 + nn.SideMargin, 0.5 - nn.SideMargin,
	math.Nextafter(0.5+nn.SideMargin, 1), math.Nextafter(0.5-nn.SideMargin, 0),
	0.5 + nn.SideMargin/2, 0.5 - nn.SideMargin/2,
	math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308,
	5e-324, -5e-324, 0x1p-1030, 0, math.Copysign(0, -1), 1,
	nn.SideBound, -nn.SideBound, math.Nextafter(nn.SideBound, math.Inf(1)),
}

// randomRound draws one round of n members over m's parameter layout. Each
// logical weight is agreed above or below the threshold, spread across it,
// or adversarial — one shared adversarial value for every member, or one
// drawn per member. Member weights are ordinary, tiny beside 1, or large
// enough that their sum overflows.
func randomRound(r *rand.Rand, m *nn.Model, n int) []protocol.RoundParticipant {
	paramCount, logical := len(m.Params()), m.LogicalWeights()
	parts := make([]protocol.RoundParticipant, n)
	weightMode := r.Intn(5)
	for i := range parts {
		w := 1 + 99*r.Float64()
		switch weightMode {
		case 1:
			if i == 0 {
				w = 1e-300
			} else {
				w = 1
			}
		case 2:
			w = []float64{1e308, 1, 5e-324}[r.Intn(3)]
		case 3:
			w = 1e308
		}
		parts[i] = protocol.RoundParticipant{ID: i, Weight: w, Params: make([]float64, paramCount)}
	}
	adv := func() float64 { return adversarialValues[r.Intn(len(adversarialValues))] }
	for j := 0; j < paramCount; j++ {
		mode := r.Intn(6)
		shared := adv()
		for i := range parts {
			var v float64
			switch {
			case j >= logical:
				v = r.NormFloat64()
				if mode == 0 {
					v = adv()
				}
			case mode == 0:
				v = 0.5 + nn.SideMargin + r.Float64()*0.5
			case mode == 1:
				v = (0.5 - nn.SideMargin) * r.Float64()
			case mode == 2:
				v = r.Float64()
			case mode == 3:
				v = shared
			case mode == 4:
				v = adv()
			default:
				v = []float64{0.25, 0.75}[(i+j)%2]
			}
			parts[i].Params[j] = v
		}
	}
	return parts
}

// TestPlanMatchesFullReconstruction is the property the plan rests on: over
// random 1–3-layer architectures, up to 64 members, adversarial values and
// weights and random coalitions, the patched snapshot selects exactly what
// the fully averaged and compiled model selects, scores every row with the
// same bits, and so yields the same utility.
func TestPlanMatchesFullReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	trials := 300
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		inDim := 2 + r.Intn(10)
		hidden := make([]int, 1+r.Intn(3))
		for k := range hidden {
			hidden[k] = 2 + r.Intn(7)
		}
		m, err := nn.New(inDim, nn.Config{Hidden: hidden, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		xs := make([][]float64, 24)
		ys := make([]int, len(xs))
		rows := make([]float32, 0, len(xs)*inDim)
		for i := range xs {
			xs[i] = make([]float64, inDim)
			for j := range xs[i] {
				xs[i][j] = float64(r.Intn(2))
				rows = append(rows, float32(xs[i][j]))
			}
			ys[i] = r.Intn(2)
		}
		n := 1 + r.Intn(64)
		if r.Intn(4) == 0 {
			n = 64
		}
		frame, err := protocol.AppendRoundUpdate(nil, 0, randomRound(r, m, n))
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := protocol.ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		u, err := protocol.ParseRoundUpdate(f)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Model: m, EvalX: xs, EvalY: ys})
		if err != nil {
			t.Fatal(err)
		}
		p := e.newPlan(u)
		all := uint64(1)<<uint(n) - 1
		sc := &evalScratch{snap: new(nn.Binarized)}
		scores, refScores := make([]float64, len(xs)), make([]float64, len(xs))
		for k := 0; k < 8; k++ {
			mask := all
			switch k % 3 {
			case 1:
				mask = 1 << uint(r.Intn(n))
			case 2:
				if mask = r.Uint64() & all; mask == 0 {
					mask = all
				}
			}
			got, err := p.evalCoalition(mask)
			if err != nil {
				t.Fatal(err)
			}
			want, ref := refEvalCoalition(t, m, u, mask, xs, ys)
			if got != want {
				t.Fatalf("trial %d (hidden %v, %d members, mask %#x): utility %v, full reconstruction %v",
					trial, hidden, n, mask, got, want)
			}
			p.fill(sc, mask)
			if gs, ws := sc.snap.RuleSpecs(), ref.RuleSpecs(); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("trial %d (hidden %v, %d members, mask %#x): selection\n%v\nfull reconstruction\n%v",
					trial, hidden, n, mask, gs, ws)
			}
			// Scores match bit for bit, except that NaN payloads may differ
			// with the order the compiler gives a commutative operation's
			// operands; a NaN score labels its row 0 either way.
			if err := sc.snap.ScoreBatchFloat32(rows, scores); err != nil {
				t.Fatal(err)
			}
			if err := ref.ScoreBatchFloat32(rows, refScores); err != nil {
				t.Fatal(err)
			}
			for i, g := range scores {
				if w := refScores[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("trial %d (mask %#x) row %d: score %v, full reconstruction %v", trial, mask, i, g, w)
				}
			}
		}
	}
}
