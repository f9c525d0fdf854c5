package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/rules"
)

// Index is the append-only tracing index of one rule space. Eq. 4 is a pure
// function of a training instance's class-side activation pattern, and real
// federations repeat patterns heavily, so the index deduplicates training
// instances into unique (label, pattern) groups as they arrive and keeps:
//
//	owner[j], group[j]  per record: its participant and its group id
//	pat[u], label[u]    per group: the class-side pattern and its label
//	byLabel[l]          group ids with label l, ascending
//	postings[r]         group ids whose pattern includes rule r, ascending
//	                    (the inverted index)
//	maxTotal[l]         the largest weighted activation total of a label-l
//	                    pattern, which bounds every overlap it can reach —
//	                    queries whose Eq. 4 threshold exceeds it are
//	                    rejected without touching anything
//
// Groups are numbered in first-occurrence order, so appending records only
// ever appends groups, postings and list entries: nothing already written is
// renumbered or rewritten. That is what makes a View — the records and
// groups present when it was taken — immutable while the index keeps
// growing, and what makes an index extended record by record identical to
// one built over the same records in one go.
//
// Append and View must be serialized by the caller (the server holds its
// state lock for both); views are safe for concurrent use once taken. A nil
// Index is empty.
type Index struct {
	// v holds every field listed above; Append extends it in place.
	v       View
	weights []float64
	ids     map[string]int32
	// side and key are Append's scratch: the masked pattern and its dedupe
	// key. A record joining an existing group allocates nothing.
	side *bitset.Set
	key  []byte
}

// NewIndex returns an empty index over rule set rs.
func NewIndex(rs *rules.Set) *Index {
	return &Index{
		v:       View{rs: rs, postings: make([][]int32, rs.Width())},
		weights: rs.Weights(),
		ids:     map[string]int32{},
	}
}

// Rules returns the rule set the index is keyed by.
func (x *Index) Rules() *rules.Set { return x.v.rs }

// Len returns the number of indexed records.
func (x *Index) Len() int {
	if x == nil {
		return 0
	}
	return x.v.Len()
}

// Participants returns the highest indexed owner + 1.
func (x *Index) Participants() int {
	if x == nil {
		return 0
	}
	return x.v.parts
}

// Append indexes one training record. Only the record's class-side pattern
// (its activations restricted to the rules supporting its own label) is
// kept; u.Activations is read, never retained or modified.
func (x *Index) Append(u TrainingUpload) {
	if u.Owner < 0 {
		panic(fmt.Sprintf("core: upload owner %d negative", u.Owner))
	}
	if u.Label != 0 && u.Label != 1 {
		panic(fmt.Sprintf("core: upload label %d invalid", u.Label))
	}
	x.side = u.Activations.AndInto(x.v.rs.ClassMask(u.Label), x.side)
	x.key = x.side.AppendKey(append(x.key[:0], byte(u.Label)))
	id, ok := x.ids[string(x.key)]
	if !ok {
		id = x.addGroup(u.Label)
	}
	v := &x.v
	v.owner = append(v.owner, int32(u.Owner))
	v.group = append(v.group, id)
	if u.Owner >= v.parts {
		v.parts = u.Owner + 1
	}
}

// addGroup registers the pattern in x.side under key x.key as a new group.
func (x *Index) addGroup(label int) int32 {
	v := &x.v
	id := int32(len(v.pat))
	x.ids[string(x.key)] = id
	pat := x.side.Clone()
	tot := 0.0
	pat.ForEach(func(r int) {
		v.postings[r] = append(v.postings[r], id)
		tot += x.weights[r]
	})
	v.pat = append(v.pat, pat)
	v.label = append(v.label, int32(label))
	v.byLabel[label] = append(v.byLabel[label], id)
	if tot > v.maxTotal[label] {
		v.maxTotal[label] = tot
	}
	return id
}

// View returns the index as it stands: later Appends never change what the
// view holds. It copies only the per-rule posting headers, the one part of
// the index Append rewrites.
func (x *Index) View() View {
	if x == nil {
		return View{}
	}
	v := x.v
	v.postings = append([][]int32(nil), v.postings...)
	return v
}

// View is an immutable prefix of an Index: the records and groups appended
// before it was taken. Tracer turns it into a tracer with its own Config.
type View struct {
	rs       *rules.Set
	parts    int
	owner    []int32
	group    []int32
	pat      []*bitset.Set
	label    []int32
	byLabel  [2][]int32
	postings [][]int32
	maxTotal [2]float64
}

// Len returns the number of records in the view.
func (v View) Len() int { return len(v.owner) }

// Tracer returns a tracer over the view's records with the view's
// participant count.
func (v View) Tracer(cfg Config) *Tracer { return newTracer(v, v.parts, cfg) }
