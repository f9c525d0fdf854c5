package nn

// Patched snapshots for coalition reconstruction.
//
// A federation round's coalition models are weighted averages of the same
// member updates, and a logical weight reaches a compiled snapshot only
// through the side of the 0.5 threshold it falls on. A weighted average of
// values that all clear the threshold on one side, by more than the
// average's rounding error, falls on that side too. So every coalition of a
// round shares the selection of each logical weight its members agree on,
// and coalitions differ only at the contested rest. A Patch compiles the
// shared selection once and fills coalition snapshots by deciding the
// contested weights alone.

// SideMargin and SideBound define when a value's side of the threshold
// carries over to every weighted average of such values. A coalition's
// logical weight is Σ (w_i/W)·v_i, accumulated in member order, with W the
// members' summed FedAvg weight. When W is finite, |v_i| ≤ SideBound and
// there are at most 64 members, the computed average is within about
// (2n+2)·2⁻⁵³·SideBound ≈ 1.5e-11 of the exact one: the sum W, each
// division, each product and each addition round once. That is far inside
// SideMargin, so a value more than SideMargin clear of 0.5 decides the side
// of every average it takes part in with others of its side. NaN, ±Inf and
// values beyond ±SideBound carry no such bound.
const (
	SideMargin = 1e-9
	SideBound  = 1 << 10
)

// Side is where a logical weight value lies relative to the binarization
// threshold, by more than SideMargin.
type Side uint8

const (
	// Near marks a value within SideMargin of 0.5, NaN, ±Inf or beyond
	// ±SideBound: only an exactly computed average decides its selection.
	Near Side = iota
	// Below marks a value whose averages with other Below values are
	// unselected.
	Below
	// Above marks a value whose averages with other Above values are
	// selected.
	Above
)

// WeightSide classifies one logical weight value.
func WeightSide(v float64) Side {
	switch {
	case v > 0.5+SideMargin && v <= SideBound:
		return Above
	case v < 0.5-SideMargin && v >= -SideBound:
		return Below
	}
	return Near
}

// Selected reports whether a logical weight of value w selects its input:
// the w > 0.5 test compile applies to every weight.
func Selected(w float64) bool { return w > 0.5 }

// LogicalWeights returns how many leading entries of the flat parameter
// vector are logical weights. The rest are continuous: the head weights in
// rule order, then the bias.
func (m *Model) LogicalWeights() int { return m.headOff }

// Patch fills snapshots of one model shape that share the selection of
// every logical weight except a fixed contested set. It is immutable once
// built and safe for concurrent use.
type Patch struct {
	// base is the shared selection: agreed weights as classified, contested
	// weights unselected.
	base Binarized
	// nodes lists the nodes a contested weight feeds, in rule order.
	nodes []patchNode
	// inputs[c] is the input index contested weight c feeds in its node.
	inputs []int32
	// size bounds the patched nodes' selections together, so a Fill never
	// grows its slab past it.
	size int
}

// patchNode is one patched node: its rule index and its contested weights
// [lo, hi), in ascending input order.
type patchNode struct {
	node, lo, hi int32
}

// NewPatch compiles the shared selection of m's shape. side is called once
// per logical weight, by ascending flat offset j: Above selects the weight
// in every snapshot, Below in none, and Near makes it contested. Contested
// weights are numbered in call order. m's own weights are not read.
func (m *Model) NewPatch(side func(j int) Side) *Patch {
	p := new(Patch)
	b := &p.base
	b.inDim, b.ruleDim, b.layers = m.inDim, m.ruleDim, m.layers
	b.sel = make([][]int32, m.ruleDim)
	ni := 0
	for _, l := range m.layers {
		for n := 0; n < l.size(); n++ {
			start, lo := len(b.slab), len(p.inputs)
			for i := 0; i < l.inDim; i++ {
				switch side(l.off + n*l.inDim + i) {
				case Above:
					b.slab = append(b.slab, int32(i))
				case Near:
					p.inputs = append(p.inputs, int32(i))
				}
			}
			b.sel[ni] = b.slab[start:]
			if hi := len(p.inputs); hi > lo {
				p.nodes = append(p.nodes, patchNode{node: int32(ni), lo: int32(lo), hi: int32(hi)})
				p.size += len(b.slab) - start + hi - lo
			}
			ni++
		}
	}
	// As in compile: growing the slab may have moved it, so cut every view
	// again from the final array.
	start := 0
	for n, sel := range b.sel {
		end := start + len(sel)
		b.sel[n] = b.slab[start:end:end]
		start = end
	}
	return p
}

// Fill makes dst the snapshot compile would build from weights on the
// patch's agreed sides, with contested weight c selected iff selected[c],
// head weights tail[:RuleDim()] and bias tail[RuleDim()]. dst's storage is
// reused, so a pooled dst allocates nothing once grown; dst shares the
// patch's selections of every node Fill leaves as they are.
func (p *Patch) Fill(dst *Binarized, selected []bool, tail []float64) {
	b := &p.base
	dst.inDim, dst.ruleDim, dst.layers = b.inDim, b.ruleDim, b.layers
	dst.headW = append(dst.headW[:0], tail[:b.ruleDim]...)
	dst.headB = tail[b.ruleDim]
	dst.sel = append(dst.sel[:0], b.sel...)
	// With capacity for every contested input the slab never moves, so each
	// view can be cut as soon as its node is merged.
	if cap(dst.slab) < p.size {
		dst.slab = make([]int32, 0, p.size)
	}
	slab := dst.slab[:0]
	for _, pn := range p.nodes {
		fixed := b.sel[pn.node]
		start, k := len(slab), 0
		for c := pn.lo; c < pn.hi; c++ {
			if !selected[c] {
				continue
			}
			in := p.inputs[c]
			for k < len(fixed) && fixed[k] < in {
				slab = append(slab, fixed[k])
				k++
			}
			slab = append(slab, in)
		}
		if len(slab) == start {
			continue // nothing contested selected: the shared view stands
		}
		slab = append(slab, fixed[k:]...)
		dst.sel[pn.node] = slab[start:len(slab):len(slab)]
	}
	dst.slab = slab
}
