package nn

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitset"
)

// Binarized is a compiled snapshot of the deployed (binarized) model: each
// logical node keeps only the input indices its weight selects (w > 0.5), so
// evaluation touches the selected inputs alone instead of scanning every
// weight of every node. It is the package's only discrete evaluator, in
// two forms over one compiled selection. ActivationBits evaluates a batch
// of {0,1} rows held as bit columns and yields the rule-activation bitsets
// the tracer consumes. The per-row float eval serves what is real-valued
// or scored row by row: /v1/predict, the model's batch entry points
// (Accuracy, CountCorrect, PredictBatch, each of which compiles a pooled
// snapshot per call), grafted training (one Model-owned snapshot
// recompiled per batch) and streaming valuation (one pooled snapshot per
// coalition, filled by a Patch).
//
// The snapshot is immutable once compiled: training the model further does
// not update it. Build it once after training (rule extraction does this)
// and reuse it for all inference; it is safe for concurrent use.
type Binarized struct {
	inDim   int
	ruleDim int
	// layers shares the model's layer shapes. Evaluation reads only their
	// node counts, never the weights they alias, so the snapshot does not
	// track later training.
	layers []*logicalLayer
	// slab concatenates every node's selected input indices in rule-vector
	// order; sel[n] is node n's view of it.
	slab    []int32
	sel     [][]int32
	headW   []float64
	headB   float64
	workers int

	bufs sync.Pool // *fwdBuffers
}

// Binarize compiles the model's current binarized structure. The returned
// evaluator snapshots the weights; it does not track later training.
func (m *Model) Binarize() *Binarized {
	b := new(Binarized)
	b.compile(m)
	return b
}

// compile fills b from m's current weights, reusing b's storage: once the
// slab has grown to the model's selection size it allocates nothing. It,
// WeightSide and Selected (patch.go) are the only places a logical weight is
// compared with the 0.5 binarization threshold.
func (b *Binarized) compile(m *Model) {
	b.inDim, b.ruleDim, b.layers = m.inDim, m.ruleDim, m.layers
	b.workers = m.workerCount()
	b.headW = append(b.headW[:0], m.headW...)
	b.headB = m.HeadBias()
	if b.sel == nil {
		b.sel = make([][]int32, m.ruleDim)
	}
	b.slab = b.slab[:0]
	ni := 0
	for _, l := range m.layers {
		for n := 0; n < l.size(); n++ {
			start := len(b.slab)
			for i, w := range l.row(n) {
				if w > 0.5 {
					b.slab = append(b.slab, int32(i))
				}
			}
			b.sel[ni] = b.slab[start:]
			ni++
		}
	}
	// Growing the slab may have moved it: cut every view again from the
	// final array, so all of them share it.
	start := 0
	for n, sel := range b.sel {
		end := start + len(sel)
		b.sel[n] = b.slab[start:end:end]
		start = end
	}
}

// InDim returns the expected input width.
func (b *Binarized) InDim() int { return b.inDim }

// RuleDim returns the number of rule activations produced.
func (b *Binarized) RuleDim() int { return b.ruleDim }

func (b *Binarized) getBuf() *fwdBuffers {
	if buf, ok := b.bufs.Get().(*fwdBuffers); ok {
		return buf
	}
	return newBuffers(b.ruleDim, b.layers)
}

// eval computes the deployed model's pre-threshold score for x and fills
// buf.rules with every logical node's output. A conjunction multiplies its
// selected inputs and stops at the first zero; a disjunction fires on any
// positive selected input; the head adds w·r over every rule. On {0,1}
// inputs, which is all the predicate encoder emits, every node output is
// {0,1} as well.
func (b *Binarized) eval(x []float64, buf *fwdBuffers) float64 {
	if len(x) != b.inDim {
		panic(fmt.Sprintf("nn: input width %d, want %d", len(x), b.inDim))
	}
	in := x
	ri := 0
	for k, l := range b.layers {
		if k > 0 {
			// Skip connection: layer k sees x followed by layer k-1's outputs.
			in = buf.layerIn[k]
			copy(in, x)
			copy(in[b.inDim:], buf.rules[ri-b.layers[k-1].size():ri])
		}
		// Rule index ri is also the node index. Each layer lists its
		// conjunctions first; one loop per kind keeps the kind test out of
		// the node loop.
		out := buf.rules[ri : ri+l.size()]
		sel := b.sel[ri : ri+l.size()]
		conj, disj := out[:l.numConj], out[l.numConj:]
		for n, idx := range sel[:l.numConj] {
			v := 1.0
			for _, i := range idx {
				v *= in[i]
				if v == 0 {
					v = 0 // +0 even when a negative input made it -0
					break
				}
			}
			conj[n] = v
		}
		for n, idx := range sel[l.numConj:] {
			v := 0.0
			for _, i := range idx {
				if in[i] > 0 {
					v = 1
					break
				}
			}
			disj[n] = v
		}
		ri += l.size()
	}
	s := b.headB
	headW := b.headW[:len(buf.rules)]
	for j, r := range buf.rules {
		s += headW[j] * r
	}
	return s
}

// Score returns the deployed model's pre-threshold score for x: a positive
// score means the positive class wins the rule vote of Eq. 3.
func (b *Binarized) Score(x []float64) float64 {
	buf := b.getBuf()
	s := b.eval(x, buf)
	b.bufs.Put(buf)
	return s
}

// ActivationBits evaluates the snapshot over n rows of {0,1} inputs held
// as bit columns in x, in dataset.Columns' layout: word b*InDim()+i holds
// input i of rows 64b … 64b+63, row r at bit r%64, and bits past row n are
// zero. It returns each row's rule activations, every bitset carved from
// one slab, and each row's pre-threshold score from eval's own ascending
// s += w_j·r_j loop with r_j ∈ {0,1}: bit-identical to Score on the row's
// {0,1} vector, −0 included, with ±Inf and NaN exactly where Score gives
// them (which NaN payload an addition keeps is the compiler's choice).
func (b *Binarized) ActivationBits(x []uint64, n int) (acts []bitset.Set, scores []float64) {
	blocks := (n + 63) / 64
	if len(x) < blocks*b.inDim {
		panic(fmt.Sprintf("nn: %d input words for %d rows of width %d", len(x), n, b.inDim))
	}
	acts = bitset.MakeSlab(n, b.ruleDim)
	scores = make([]float64, n)
	out := make([]uint64, b.ruleDim)
	var s [64]float64
	for blk := 0; blk < blocks; blk++ {
		rows := min(64, n-64*blk)
		b.evalBits(x[blk*b.inDim:(blk+1)*b.inDim], out, ^uint64(0)>>(64-rows))
		for t := range s[:rows] {
			s[t] = b.headB
		}
		// Transpose rule j's column into the rows it fires on, and add its
		// head weight to every row of the block, fired or not, exactly as
		// eval adds w_j·0.
		base := acts[64*blk : 64*blk+rows]
		for j, w := range out {
			hw := b.headW[j]
			for t := range s[:rows] {
				s[t] += hw * float64(w>>t&1)
			}
			for m := w; m != 0; m &= m - 1 {
				base[bits.TrailingZeros64(m)].Set(j)
			}
		}
		copy(scores[64*blk:], s[:rows])
	}
	return acts, scores
}

// evalBits computes every logical node's output column over one block of
// 64 rows: xw holds the block's input words, out receives one word per
// rule, and live marks the block's rows. A conjunction ANDs its selected
// input columns (all live rows when it selects none); a disjunction ORs
// them. Layer k reads x's columns, then layer k−1's output columns, where
// they already are.
func (b *Binarized) evalBits(xw, out []uint64, live uint64) {
	var prev []uint64
	ri := 0
	for _, l := range b.layers {
		sel := b.sel[ri : ri+l.size()]
		conj, disj := out[ri:ri+l.numConj], out[ri+l.numConj:ri+l.size()]
		for n, idx := range sel[:l.numConj] {
			v := live
			for _, i := range idx {
				if int(i) < b.inDim {
					v &= xw[i]
				} else {
					v &= prev[int(i)-b.inDim]
				}
			}
			conj[n] = v
		}
		for n, idx := range sel[l.numConj:] {
			var v uint64
			for _, i := range idx {
				if int(i) < b.inDim {
					v |= xw[i]
				} else {
					v |= prev[int(i)-b.inDim]
				}
			}
			disj[n] = v
		}
		prev = out[ri : ri+l.size()]
		ri += l.size()
	}
}

// ScoreBatchFloat32 scores n = len(rows)/InDim() feature rows, packed
// row-major as float32 wire values, writing the pre-threshold scores into
// dst[:n]. This is the /v1/predict hot path: rows convert into pooled
// scratch and evaluation reuses the same pooled buffers as Score, so the
// steady state allocates nothing (pinned by
// TestBinarizedScoreBatchZeroAlloc). It panics if len(rows) is not a
// multiple of the input width or dst is too short — callers validate the
// wire payload first.
func (b *Binarized) ScoreBatchFloat32(rows []float32, dst []float64) {
	if len(rows)%b.inDim != 0 {
		panic(fmt.Sprintf("nn: %d feature values do not divide into width-%d rows", len(rows), b.inDim))
	}
	n := len(rows) / b.inDim
	if len(dst) < n {
		panic(fmt.Sprintf("nn: score buffer %d, want %d", len(dst), n))
	}
	if n == 0 {
		return
	}
	// The single-worker case skips parallelOver: passing it a closure heap-
	// allocates the capture, and this path's whole point is allocating
	// nothing.
	if b.workers <= 1 || n == 1 {
		buf := b.getBuf()
		b.scoreRangeFloat32(rows, dst, 0, n, buf)
		b.bufs.Put(buf)
		return
	}
	b.parallelOver(n, func(lo, hi int, buf *fwdBuffers) {
		b.scoreRangeFloat32(rows, dst, lo, hi, buf)
	})
}

func (b *Binarized) scoreRangeFloat32(rows []float32, dst []float64, lo, hi int, buf *fwdBuffers) {
	// eval reads layer 0's input straight from x, so that slot is free to
	// hold the converted row.
	x := buf.layerIn[0]
	for i := lo; i < hi; i++ {
		for j, v := range rows[i*b.inDim : (i+1)*b.inDim] {
			x[j] = float64(v)
		}
		dst[i] = b.eval(x, buf)
	}
}

// countCorrect returns how many rows of xs the snapshot labels as ys.
func (b *Binarized) countCorrect(xs [][]float64, ys []int, buf *fwdBuffers) int {
	ok := 0
	for i, x := range xs {
		p := 0
		if b.eval(x, buf) >= 0 {
			p = 1
		}
		if p == ys[i] {
			ok++
		}
	}
	return ok
}

// parallelOver splits n items across the snapshot's workers, giving each
// worker pooled buffers, and calls fn with the worker's half-open range.
func (b *Binarized) parallelOver(n int, fn func(lo, hi int, buf *fwdBuffers)) {
	if n == 0 {
		return
	}
	workers := b.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		buf := b.getBuf()
		fn(0, n, buf)
		b.bufs.Put(buf)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for wkr := 0; wkr < workers; wkr++ {
		lo := wkr * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			buf := b.getBuf()
			fn(lo, hi, buf)
			b.bufs.Put(buf)
		}(lo, hi)
	}
	wg.Wait()
}

// RuleSpec describes one logical node of the deployed model for the rule
// extractor: which layer it lives in, its kind, and which input indices its
// binarized weights select.
type RuleSpec struct {
	Layer    int
	Node     int
	Conj     bool
	Selected []int // indices into the layer's input vector, ascending
}

// RuleSpecs enumerates every logical node's binarized structure, in rule
// vector order (layer by layer).
func (b *Binarized) RuleSpecs() []RuleSpec {
	specs := make([]RuleSpec, 0, b.ruleDim)
	for k, l := range b.layers {
		for n := 0; n < l.size(); n++ {
			spec := RuleSpec{Layer: k, Node: n, Conj: l.nodeKind(n) == nodeConj}
			for _, i := range b.sel[len(specs)] {
				spec.Selected = append(spec.Selected, int(i))
			}
			specs = append(specs, spec)
		}
	}
	return specs
}
