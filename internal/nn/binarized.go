package nn

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/bitset"
)

// Binarized is a compiled snapshot of the deployed (binarized) model: each
// logical node keeps only the input indices its weight selects (w > 0.5), so
// evaluation touches the selected inputs alone instead of scanning every
// weight of every node. It is the package's one evaluator. Every consumer
// packs its {0,1} rows into bit columns (packRow, 64 rows to a block),
// evaluates each block's node columns with evalBits and scores the block's
// rows with head, serially: ActivationBits for the tracer, ScoreBatchFloat32
// for /v1/predict, the model's batch entry points (Accuracy, CountCorrect,
// PredictBatch, each of which compiles a pooled snapshot per call), grafted
// training (one Model-owned snapshot recompiled per batch) and streaming
// valuation (CountCorrect on an evaluation set packed once, one pooled
// snapshot per coalition, filled by a Patch).
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
	slab  []int32
	sel   [][]int32
	headW []float64
	headB float64
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

// ActivationBits evaluates the snapshot over n rows of {0,1} inputs held
// as bit columns in x, in dataset.Columns' layout: word b*InDim()+i holds
// input i of rows 64b … 64b+63, row r at bit r%64, and bits past row n are
// zero. It returns each row's rule activations, every bitset carved from
// one slab, and each row's pre-threshold score from head.
func (b *Binarized) ActivationBits(x []uint64, n int) (acts []bitset.Set, scores []float64) {
	blocks := (n + 63) / 64
	if len(x) < blocks*b.inDim {
		panic(fmt.Sprintf("nn: %d input words for %d rows of width %d", len(x), n, b.inDim))
	}
	acts = bitset.MakeSlab(n, b.ruleDim)
	scores = make([]float64, n)
	out := make([]uint64, b.ruleDim)
	for lo := 0; lo < n; lo += 64 {
		s := scores[lo:min(lo+64, n)]
		b.scoreBlock(x[lo/64*b.inDim:], out, s)
		// Transpose rule j's column into the rows it fires on.
		base := acts[lo : lo+len(s)]
		for j, w := range out {
			for m := w; m != 0; m &= m - 1 {
				base[bits.TrailingZeros64(m)].Set(j)
			}
		}
	}
	return acts, scores
}

// CountCorrect returns how many of the len(ys) rows packed in x, in
// ActivationBits' layout, the snapshot labels as ys. out is scratch for one
// block's rule columns and must hold at least as many words as the model
// has rules. It is serial and allocates nothing: the streaming valuation
// engine scores every coalition with it, over an evaluation set it packed
// once, and its concurrency lives above the snapshot.
func (b *Binarized) CountCorrect(x []uint64, ys []int, out []uint64) int {
	var s [64]float64
	ok := 0
	for lo := 0; lo < len(ys); lo += 64 {
		blk := s[:min(64, len(ys)-lo)]
		b.scoreBlock(x[lo/64*b.inDim:], out, blk)
		ok += correct(blk, ys[lo:])
	}
	return ok
}

// correct returns how many of scores label their row as ys does.
func correct(scores []float64, ys []int) int {
	ok := 0
	for t, s := range scores {
		if label(s) == ys[t] {
			ok++
		}
	}
	return ok
}

// label is the class a score votes for: positive at 0 or more.
func label(s float64) int {
	if s >= 0 {
		return 1
	}
	return 0
}

// scoreBlock evaluates one block of len(s) ≤ 64 rows: xw starts with the
// block's InDim() input words, out receives its rule columns and s its
// scores.
func (b *Binarized) scoreBlock(xw, out []uint64, s []float64) {
	b.evalBits(xw[:b.inDim], out[:b.ruleDim], ^uint64(0)>>(64-len(s)))
	b.head(out[:b.ruleDim], s)
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

// head sets s[t] to the pre-threshold score of the block's row t from the
// block's rule columns out: from the bias, the ascending s += w_j·r_j over
// every rule j with r_j ∈ {0,1}, adding w_j·0 for a rule that does not
// fire. That is the deployed model's Eq. 3 vote term for term, so a score
// is −0, ±Inf or NaN exactly where the head's arithmetic makes it one.
// Every binarized score the package computes comes from this loop.
func (b *Binarized) head(out []uint64, s []float64) {
	for t := range s {
		s[t] = b.headB
	}
	for j, w := range out {
		hw := b.headW[j]
		for t := range s {
			s[t] += hw * float64(w>>(t&63)&1) // t < 64; the mask spares a shift check
		}
	}
}

// ScoreBatchFloat32 scores n = len(rows)/InDim() feature rows, packed
// row-major as float32 wire values, writing the pre-threshold scores into
// dst[:n]. This is the /v1/predict hot path: it packs the rows into pooled
// bit columns as it scores them, so the steady state allocates nothing
// (pinned by TestBinarizedScoreBatchZeroAlloc). It returns an error for a
// value other than 0 or 1, the only values the encoder emits, leaving dst
// partly written. It panics if len(rows) is not a multiple of the input
// width or dst is too short.
func (b *Binarized) ScoreBatchFloat32(rows []float32, dst []float64) error {
	if len(rows)%b.inDim != 0 {
		panic(fmt.Sprintf("nn: %d feature values do not divide into width-%d rows", len(rows), b.inDim))
	}
	n := len(rows) / b.inDim
	if len(dst) < n {
		panic(fmt.Sprintf("nn: score buffer %d, want %d", len(dst), n))
	}
	sc := scratchPool.Get().(*scratch).size(b)
	defer scratchPool.Put(sc)
	return scoreRows(b, sc, n, func(i int) []float32 { return rows[i*b.inDim : (i+1)*b.inDim] }, dst)
}

// scratch is one serial scoring pass's working set: one block's packed
// input words and its rule columns.
type scratch struct{ x, out []uint64 }

// scratchPool recycles scratch across calls and models.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// size grows sc to b's input and rule widths and returns it.
func (sc *scratch) size(b *Binarized) *scratch {
	if cap(sc.x) < b.inDim {
		sc.x = make([]uint64, b.inDim)
	}
	if cap(sc.out) < b.ruleDim {
		sc.out = make([]uint64, b.ruleDim)
	}
	sc.x, sc.out = sc.x[:b.inDim], sc.out[:b.ruleDim]
	return sc
}

// scoreRows writes the scores of n rows, row(i) giving row i, into dst[:n],
// serially on b: it packs one block of up to 64 rows at a time into sc.x
// and scores the block with scoreBlock. It stops at the first row packRow
// refuses, with packRow's error.
func scoreRows[T float32 | float64](b *Binarized, sc *scratch, n int, row func(int) []T, dst []float64) error {
	for lo := 0; lo < n; lo += 64 {
		blk := dst[lo:min(lo+64, n)]
		clear(sc.x)
		for r := lo; r < lo+len(blk); r++ {
			if err := packRow(sc.x, row(r), r); err != nil {
				return err
			}
		}
		b.scoreBlock(sc.x, sc.out, blk)
	}
	return nil
}

// PackRows packs {0,1} rows of the given width into ActivationBits' layout
// (dataset.Columns' word layout), for an evaluation set scored many times.
// It returns packRow's error for the first row it refuses.
func PackRows(xs [][]float64, width int) ([]uint64, error) {
	words := make([]uint64, (len(xs)+63)/64*width)
	for r, x := range xs {
		if err := packRow(words[r/64*width:(r/64+1)*width], x, r); err != nil {
			return nil, err
		}
	}
	return words, nil
}

// packRow sets bit r%64 of blk[i] to the value of row r's input i, for every
// input. It returns an error for a row whose width is not len(blk) and for
// a value other than 0 or 1 (−0 counts as 0). It takes no branch on a
// value: the rows are about a third ones, so a branch per value mispredicts
// often enough to cost more than the evaluation. bit is 1.0's lowest
// exponent bit, and bit − v is +0 only when v is bit.
func packRow[T float32 | float64](blk []uint64, row []T, r int) error {
	if len(row) != len(blk) {
		return fmt.Errorf("row %d has width %d, want %d", r, len(row), len(blk))
	}
	t := uint(r % 64)
	var bad uint64
	for i, v := range row {
		bit := math.Float64bits(float64(v)) >> 52 & 1
		blk[i] |= bit << t
		bad |= math.Float64bits(float64(int64(bit)) - float64(v))
	}
	if bad != 0 {
		for i, v := range row {
			if v != 0 && v != 1 {
				return fmt.Errorf("feature value %g at offset %d: inputs must be the encoder's {0,1} predicates", v, r*len(row)+i)
			}
		}
	}
	return nil
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
