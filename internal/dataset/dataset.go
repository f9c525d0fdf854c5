// Package dataset models tabular classification data with mixed discrete and
// continuous features, provides the privacy-preserving predicate encoding of
// CTFL Section V ("Encode Input Features"), and regenerates the paper's four
// evaluation benchmarks: tic-tac-toe (exactly, by game-tree enumeration) and
// synthetic stand-ins for adult, bank and dota2 with planted rule structure
// (see DESIGN.md §1 for the substitution rationale).
package dataset

import (
	"fmt"
	"math/rand"
)

// FeatureKind distinguishes discrete (categorical) from continuous features.
type FeatureKind int

// Supported feature kinds.
const (
	Discrete FeatureKind = iota
	Continuous
)

func (k FeatureKind) String() string {
	switch k {
	case Discrete:
		return "discrete"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("FeatureKind(%d)", int(k))
	}
}

// Feature describes one column of a table.
type Feature struct {
	Name string
	Kind FeatureKind
	// Categories enumerates the value choices of a discrete feature. The
	// federation fixes this list up front (paper Section V), appending an
	// implicit "unknown" slot for unseen values at encoding time.
	Categories []string
	// Min and Max bound the domain of a continuous feature. Only the domain
	// (not the data) is shared with the federation, matching the paper's
	// privacy constraint.
	Min, Max float64
}

// Schema is the shared feature space of a horizontal-FL task.
type Schema struct {
	Name     string
	Features []Feature
	// Labels names the two classes; index 0 is the negative class and index 1
	// the positive class.
	Labels [2]string
}

// NumFeatures returns the number of columns.
func (s *Schema) NumFeatures() int { return len(s.Features) }

// Validate checks internal consistency of the schema.
func (s *Schema) Validate() error {
	if len(s.Features) == 0 {
		return fmt.Errorf("dataset: schema %q has no features", s.Name)
	}
	for i, f := range s.Features {
		switch f.Kind {
		case Discrete:
			if len(f.Categories) == 0 {
				return fmt.Errorf("dataset: discrete feature %q (#%d) has no categories", f.Name, i)
			}
		case Continuous:
			if !(f.Min < f.Max) {
				return fmt.Errorf("dataset: continuous feature %q (#%d) has empty domain [%v,%v]", f.Name, i, f.Min, f.Max)
			}
		default:
			return fmt.Errorf("dataset: feature %q (#%d) has invalid kind %v", f.Name, i, f.Kind)
		}
	}
	return nil
}

// Instance is one labeled row. Values holds one entry per schema feature:
// the raw value for continuous features, the category index (or -1 for
// unknown) for discrete ones.
type Instance struct {
	Values []float64
	Label  int // 0 or 1
}

// Table is a labeled dataset bound to a schema.
type Table struct {
	Schema    *Schema
	Instances []Instance
}

// Len returns the number of instances.
func (t *Table) Len() int { return len(t.Instances) }

// Subset returns a new Table sharing the schema and referencing the selected
// instances (values are not deep-copied; treat instances as immutable).
func (t *Table) Subset(indices []int) *Table {
	out := &Table{Schema: t.Schema, Instances: make([]Instance, len(indices))}
	for i, idx := range indices {
		out.Instances[i] = t.Instances[idx]
	}
	return out
}

// Clone deep-copies the table's instances (the schema is shared).
func (t *Table) Clone() *Table {
	out := &Table{Schema: t.Schema, Instances: make([]Instance, len(t.Instances))}
	for i, in := range t.Instances {
		vals := make([]float64, len(in.Values))
		copy(vals, in.Values)
		out.Instances[i] = Instance{Values: vals, Label: in.Label}
	}
	return out
}

// Split shuffles the table with r and splits it into train and test parts,
// with testFrac of instances (rounded down, at least 1 if possible) in test.
func (t *Table) Split(r *rand.Rand, testFrac float64) (train, test *Table) {
	n := t.Len()
	idx := r.Perm(n)
	nTest := int(float64(n) * testFrac)
	if nTest < 1 && n > 1 {
		nTest = 1
	}
	test = t.Subset(idx[:nTest])
	train = t.Subset(idx[nTest:])
	return train, test
}

// StratifiedSplit splits like Split but preserves the label ratio in both
// parts (per-class proportional sampling) — the right choice for the
// federation's reserved test set on imbalanced tasks like bank.
func (t *Table) StratifiedSplit(r *rand.Rand, testFrac float64) (train, test *Table) {
	var byLabel [2][]int
	for i, in := range t.Instances {
		byLabel[in.Label] = append(byLabel[in.Label], i)
	}
	var trainIdx, testIdx []int
	for label := 0; label < 2; label++ {
		pool := byLabel[label]
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		nTest := int(float64(len(pool)) * testFrac)
		if nTest < 1 && len(pool) > 1 {
			nTest = 1
		}
		testIdx = append(testIdx, pool[:nTest]...)
		trainIdx = append(trainIdx, pool[nTest:]...)
	}
	return t.Subset(trainIdx), t.Subset(testIdx)
}
