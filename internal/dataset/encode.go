package dataset

import (
	"fmt"
	"math/rand"
)

// Encoder implements the privacy-preserving input encoding of CTFL Section V:
// discrete features become one-hot predicates plus an "unknown" slot, and
// each continuous feature c in [lo, hi] becomes 2*TauD threshold predicates
// 1(c > l_k) and 1(c < u_k) with bounds sampled uniformly from the public
// feature domain (never from the private data). The logical layers then learn
// which predicates participate in each rule.
type Encoder struct {
	schema *Schema
	tauD   int
	// offsets[j] is the first predicate index belonging to feature j.
	offsets []int
	width   int
	// lower[j], upper[j] hold the sampled bounds for continuous feature j
	// (nil for discrete features).
	lower, upper [][]float64
	names        []string
}

// NewEncoder samples threshold bounds with r and returns an Encoder. tauD is
// the number of lower (and of upper) bounds per continuous feature — the
// paper's "dimension of binarization layer" default is 10.
func NewEncoder(schema *Schema, tauD int, r *rand.Rand) (*Encoder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if tauD < 1 {
		return nil, fmt.Errorf("dataset: tauD must be >= 1, got %d", tauD)
	}
	e := &Encoder{
		schema:  schema,
		tauD:    tauD,
		offsets: make([]int, schema.NumFeatures()+1),
		lower:   make([][]float64, schema.NumFeatures()),
		upper:   make([][]float64, schema.NumFeatures()),
	}
	w := 0
	for j, f := range schema.Features {
		e.offsets[j] = w
		switch f.Kind {
		case Discrete:
			// one predicate per category plus the unknown slot
			for _, c := range f.Categories {
				e.names = append(e.names, fmt.Sprintf("%s = %s", f.Name, c))
			}
			e.names = append(e.names, fmt.Sprintf("%s = <unknown>", f.Name))
			w += len(f.Categories) + 1
		case Continuous:
			lo := make([]float64, tauD)
			hi := make([]float64, tauD)
			span := f.Max - f.Min
			for k := 0; k < tauD; k++ {
				lo[k] = f.Min + r.Float64()*span
				hi[k] = f.Min + r.Float64()*span
			}
			e.lower[j], e.upper[j] = lo, hi
			for k := 0; k < tauD; k++ {
				e.names = append(e.names, fmt.Sprintf("%s > %s", f.Name, formatBound(lo[k])))
			}
			for k := 0; k < tauD; k++ {
				e.names = append(e.names, fmt.Sprintf("%s < %s", f.Name, formatBound(hi[k])))
			}
			w += 2 * tauD
		}
	}
	e.offsets[len(schema.Features)] = w
	e.width = w
	return e, nil
}

func formatBound(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// Width returns the number of predicates the encoder produces.
func (e *Encoder) Width() int { return e.width }

// Schema returns the schema the encoder was built for.
func (e *Encoder) Schema() *Schema { return e.schema }

// PredicateName returns the human-readable form of predicate i, used by the
// rule pretty-printer.
func (e *Encoder) PredicateName(i int) string {
	if i < 0 || i >= e.width {
		panic(fmt.Sprintf("dataset: predicate index %d out of range [0,%d)", i, e.width))
	}
	return e.names[i]
}

// Encode fills dst (length Width) with the {0,1} predicate vector of in.
// If dst is nil a new slice is allocated. The filled slice is returned.
func (e *Encoder) Encode(in Instance, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, e.width)
	} else {
		if len(dst) != e.width {
			panic(fmt.Sprintf("dataset: Encode dst length %d, want %d", len(dst), e.width))
		}
		for i := range dst {
			dst[i] = 0
		}
	}
	for j, f := range e.schema.Features {
		off := e.offsets[j]
		v := in.Values[j]
		switch f.Kind {
		case Discrete:
			c := int(v)
			if c >= 0 && c < len(f.Categories) {
				dst[off+c] = 1
			} else {
				dst[off+len(f.Categories)] = 1 // unknown slot
			}
		case Continuous:
			lo, hi := e.lower[j], e.upper[j]
			for k := 0; k < e.tauD; k++ {
				if v > lo[k] {
					dst[off+k] = 1
				}
				if v < hi[k] {
					dst[off+e.tauD+k] = 1
				}
			}
		}
	}
	return dst
}

// EncodeTable encodes every instance of t into a dense row-major matrix of
// shape [t.Len()][Width] plus the label vector.
func (e *Encoder) EncodeTable(t *Table) (x [][]float64, y []int) {
	x = make([][]float64, t.Len())
	y = make([]int, t.Len())
	for i, in := range t.Instances {
		x[i] = e.Encode(in, nil)
		y[i] = in.Label
	}
	return x, y
}
