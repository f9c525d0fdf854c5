package rounds

import (
	"math"

	"repro/internal/nn"
	"repro/internal/protocol"
)

// plan is one round's coalition reconstruction, built once at the top of
// Compute. A logical weight every member puts on the same side of the
// binarization threshold (nn.WeightSide) is selected alike in every
// coalition model, so the plan compiles those into one shared selection
// (an nn.Patch) and keeps only the rest: the contested logical weights and
// the continuous parameters (head weights and bias). Its state is
// O((contested + head) × members), however large the model.
type plan struct {
	e       *Engine
	weights []float64 // member FedAvg weights, in frame order
	patch   *nn.Patch
	// above[c] and below[c] are the members whose value of contested weight
	// c clears the threshold on that side; a member in neither takes the
	// exact path in every coalition that contains it.
	above, below []uint64
	// vals holds every member's value of each contested weight and then of
	// each continuous parameter, one row of len(weights) values per
	// parameter, in frame order.
	vals []float64
}

// evalScratch is one coalition evaluation's working set: the members and
// their FedAvg shares, the contested weights' selections, the averaged
// continuous parameters, the pooled snapshot they are filled into and one
// block's rule columns for scoring it.
type evalScratch struct {
	members []int
	shares  []float64
	sel     []bool
	tail    []float64
	snap    *nn.Binarized
	cols    []uint64
}

// newPlan sorts every logical weight of u in one pass over the frame and
// decodes only the contested weights and the continuous parameters.
func (e *Engine) newPlan(u protocol.RoundUpdate) *plan {
	p := &plan{e: e, weights: make([]float64, u.Count)}
	rows := make([]protocol.ParamRow, u.Count)
	var total float64
	for i := range rows {
		rows[i] = u.Row(i)
		p.weights[i] = u.Weight(i)
		total += p.weights[i]
	}
	// When the members' summed weight overflows, every share w/totalW of a
	// coalition that reaches it is 0, so the rounding bound behind the
	// sides does not hold: leave every member on neither side, which sends
	// every logical weight down the exact path.
	overflow := math.IsInf(total, 1)
	all := uint64(1)<<uint(u.Count) - 1
	column := func(j int) {
		for _, r := range rows {
			p.vals = append(p.vals, r.At(j))
		}
	}
	p.patch = e.cfg.Model.NewPatch(func(j int) nn.Side {
		var above, below uint64
		if !overflow {
			for i, r := range rows {
				switch nn.WeightSide(r.At(j)) {
				case nn.Above:
					above |= 1 << uint(i)
				case nn.Below:
					below |= 1 << uint(i)
				}
			}
		}
		switch all {
		case above:
			return nn.Above
		case below:
			return nn.Below
		}
		p.above = append(p.above, above)
		p.below = append(p.below, below)
		column(j)
		return nn.Near
	})
	for j := e.cfg.Model.LogicalWeights(); j < u.ParamCount; j++ {
		column(j)
	}
	return p
}

// evalCoalition reconstructs the coalition's model — the weighted average
// of its members' parameters, FedAvg semantics over the members present in
// this round — and measures its accuracy on the evaluation set. Safe for
// concurrent use: every call works on its own pooled scratch.
//
// A contested weight is settled without averaging when every member of the
// coalition is on one side of it. Every other one, and every continuous
// parameter, is averaged exactly as a full reconstruction does it (same
// member order, same float operations), so the snapshot equals the one
// compiled from the fully averaged model. For the grand coalition that is
// fedsim's aggregate, bit for bit.
func (p *plan) evalCoalition(mask uint64) (float64, error) {
	if mask == 0 {
		return p.e.emptyUtility, nil
	}
	sc, _ := p.e.scratch.Get().(*evalScratch)
	if sc == nil {
		sc = &evalScratch{snap: new(nn.Binarized)}
	}
	defer p.e.scratch.Put(sc)
	p.fill(sc, mask)
	sc.cols = resize(sc.cols, p.e.cfg.Model.RuleDim())
	ok := sc.snap.CountCorrect(p.e.evalWords, p.e.cfg.EvalY, sc.cols)
	return float64(ok) / float64(len(p.e.cfg.EvalY)), nil
}

// fill makes sc.snap the coalition's snapshot.
func (p *plan) fill(sc *evalScratch, mask uint64) {
	var totalW float64
	for i, w := range p.weights {
		if mask&(1<<uint(i)) != 0 {
			totalW += w
		}
	}
	sc.members, sc.shares = sc.members[:0], sc.shares[:0]
	for i, w := range p.weights {
		if mask&(1<<uint(i)) != 0 {
			sc.members = append(sc.members, i)
			sc.shares = append(sc.shares, w/totalW)
		}
	}
	sc.sel = resize(sc.sel, len(p.above))
	for c := range sc.sel {
		switch {
		case mask&^p.above[c] == 0:
			sc.sel[c] = true
		case mask&^p.below[c] == 0:
			sc.sel[c] = false
		default:
			sc.sel[c] = nn.Selected(p.average(c, sc))
		}
	}
	sc.tail = resize(sc.tail, len(p.vals)/len(p.weights)-len(p.above))
	for t := range sc.tail {
		sc.tail[t] = p.average(len(p.above)+t, sc)
	}
	p.patch.Fill(sc.snap, sc.sel, sc.tail)
}

// average is row k's coalition aggregate: from zero, add each member's
// share times its value, in frame order.
func (p *plan) average(k int, sc *evalScratch) float64 {
	row := p.vals[k*len(p.weights) : (k+1)*len(p.weights)]
	var agg float64
	for m, i := range sc.members {
		w := sc.shares[m]
		agg += w * row[i]
	}
	return agg
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
