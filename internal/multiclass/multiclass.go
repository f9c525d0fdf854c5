// Package multiclass extends CTFL from binary to K-class classification
// through one-vs-rest decomposition — the "minor changes" the paper's
// Definition III.1 discussion alludes to. One binary logical network is
// trained per class (class k versus the rest); prediction takes the argmax
// of the K vote scores; and a correctly classified test instance is traced
// inside the predicted class's rule space against training data of the same
// class, exactly mirroring the binary TP case of Section III-C.
package multiclass

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rules"
)

// Instance is one labeled row with a class in [0, K).
type Instance struct {
	Values []float64
	Class  int
}

// Table is a K-class dataset bound to a feature schema (the schema's binary
// Labels field is unused here; ClassNames carries the K names).
type Table struct {
	Schema     *dataset.Schema
	ClassNames []string
	Instances  []Instance
}

// Len returns the number of instances.
func (t *Table) Len() int { return len(t.Instances) }

// NumClasses returns K.
func (t *Table) NumClasses() int { return len(t.ClassNames) }

// Validate checks labels and row shapes.
func (t *Table) Validate() error {
	if len(t.ClassNames) < 2 {
		return fmt.Errorf("multiclass: need at least 2 classes, have %d", len(t.ClassNames))
	}
	for i, in := range t.Instances {
		if len(in.Values) != t.Schema.NumFeatures() {
			return fmt.Errorf("multiclass: instance %d has %d values, want %d", i, len(in.Values), t.Schema.NumFeatures())
		}
		if in.Class < 0 || in.Class >= len(t.ClassNames) {
			return fmt.Errorf("multiclass: instance %d has class %d, want [0,%d)", i, in.Class, len(t.ClassNames))
		}
	}
	return nil
}

// Binary returns the one-vs-rest view for class k: label 1 for rows of
// class k, label 0 otherwise. Instance value slices are shared.
func (t *Table) Binary(k int) *dataset.Table {
	out := &dataset.Table{Schema: t.Schema, Instances: make([]dataset.Instance, t.Len())}
	for i, in := range t.Instances {
		label := 0
		if in.Class == k {
			label = 1
		}
		out.Instances[i] = dataset.Instance{Values: in.Values, Label: label}
	}
	return out
}

// Split shuffles and splits the table.
func (t *Table) Split(r *rand.Rand, testFrac float64) (train, test *Table) {
	idx := r.Perm(t.Len())
	nTest := int(float64(t.Len()) * testFrac)
	if nTest < 1 && t.Len() > 1 {
		nTest = 1
	}
	pick := func(ids []int) *Table {
		out := &Table{Schema: t.Schema, ClassNames: t.ClassNames}
		for _, i := range ids {
			out.Instances = append(out.Instances, t.Instances[i])
		}
		return out
	}
	return pick(idx[nTest:]), pick(idx[:nTest])
}

// Model is a one-vs-rest ensemble of binary logical networks, each held as
// its extracted rule set.
type Model struct {
	enc  *dataset.Encoder
	sets []*rules.Set
}

// Train fits one binary logical network per class on the training table.
func Train(t *Table, enc *dataset.Encoder, cfg nn.Config) (*Model, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	m := &Model{enc: enc}
	for k := 0; k < t.NumClasses(); k++ {
		bm, err := nn.New(enc.Width(), cfg)
		if err != nil {
			return nil, err
		}
		xs, ys := enc.EncodeTable(t.Binary(k))
		bm.Train(xs, ys)
		m.sets = append(m.sets, rules.Extract(bm, enc))
	}
	return m, nil
}

// Predict returns the argmax class of the K binarized vote scores.
func (m *Model) Predict(values []float64) int {
	return m.predictEncoded(m.enc.Encode(dataset.Instance{Values: values}, nil))
}

// predictEncoded is Predict on an already-encoded feature vector, letting
// hot paths encode each instance exactly once.
func (m *Model) predictEncoded(x []float64) int {
	best, bestScore := 0, m.sets[0].Binarized().Score(x)
	for k := 1; k < len(m.sets); k++ {
		if s := m.sets[k].Binarized().Score(x); s > bestScore {
			best, bestScore = k, s
		}
	}
	return best
}

// Accuracy evaluates argmax accuracy on a table.
func (m *Model) Accuracy(t *Table) float64 {
	if t.Len() == 0 {
		return 0
	}
	ok := 0
	for _, in := range t.Instances {
		if m.Predict(in.Values) == in.Class {
			ok++
		}
	}
	return float64(ok) / float64(t.Len())
}

// Rules returns class k's extracted rule set (for interpretability).
func (m *Model) Rules(k int) *rules.Set { return m.sets[k] }

// Participant is a multi-class federated client.
type Participant struct {
	ID   int
	Name string
	Data *Table
}

// Estimator traces multi-class contributions: one core tracer per class,
// each indexing the participants' one-vs-rest activation vectors.
type Estimator struct {
	model    *Model
	tracers  []*core.Tracer
	numParts int
	cfg      core.Config
}

// NewEstimator indexes the participants under the trained model.
func NewEstimator(m *Model, parts []*Participant, cfg core.Config) *Estimator {
	e := &Estimator{model: m, numParts: len(parts), cfg: cfg}
	for k := range m.sets {
		var uploads []core.TrainingUpload
		for pi, p := range parts {
			acts, _ := m.sets[k].ActivationsTable(p.Data.Binary(k))
			for i, a := range acts {
				label := 0
				if p.Data.Instances[i].Class == k {
					label = 1
				}
				uploads = append(uploads, core.TrainingUpload{Owner: pi, Label: label, Activations: a})
			}
		}
		e.tracers = append(e.tracers, core.NewTracerFromUploads(m.sets[k], len(parts), uploads, cfg))
	}
	return e
}

// Result holds a multi-class tracing pass.
type Result struct {
	NumParticipants int
	TestSize        int
	Pred, Truth     []int
	// Counts[te][i] are participant i's related training instances for test
	// instance te, traced in the predicted class's rule space.
	Counts [][]int
}

// Correct reports whether test instance te was classified correctly.
func (r *Result) Correct(te int) bool { return r.Pred[te] == r.Truth[te] }

// Trace classifies every test instance with the argmax rule vote and traces
// it in the predicted class's rule space: correctly classified instances
// earn credit for same-class training data (TP case), misclassified ones
// feed the loss side exactly as in the binary tracer.
func (e *Estimator) Trace(test *Table) *Result {
	res := &Result{
		NumParticipants: e.numParts,
		TestSize:        test.Len(),
		Pred:            make([]int, test.Len()),
		Truth:           make([]int, test.Len()),
		Counts:          make([][]int, test.Len()),
	}
	var x []float64
	for te, in := range test.Instances {
		// Encode once per instance; prediction and tracing share the vector.
		x = e.model.enc.Encode(dataset.Instance{Values: in.Values}, x)
		pred := e.model.predictEncoded(x)
		res.Pred[te] = pred
		res.Truth[te] = in.Class
		set := e.model.sets[pred]
		side := set.Activations(x).And(set.ClassMask(1))
		res.Counts[te] = e.tracers[pred].TraceActivations(side, 1)
	}
	return res
}

// MicroScores is Eq. 5 over the multi-class trace.
func (r *Result) MicroScores() []float64 {
	scores := make([]float64, r.NumParticipants)
	if r.TestSize == 0 {
		return scores
	}
	inv := 1 / float64(r.TestSize)
	for te := 0; te < r.TestSize; te++ {
		if !r.Correct(te) {
			continue
		}
		total := 0
		for _, c := range r.Counts[te] {
			total += c
		}
		if total == 0 {
			continue
		}
		for i, c := range r.Counts[te] {
			scores[i] += inv * float64(c) / float64(total)
		}
	}
	return scores
}

// MacroScores is Eq. 6 over the multi-class trace at the given delta.
func (r *Result) MacroScores(delta int) []float64 {
	if delta < 1 {
		delta = 1
	}
	scores := make([]float64, r.NumParticipants)
	if r.TestSize == 0 {
		return scores
	}
	inv := 1 / float64(r.TestSize)
	for te := 0; te < r.TestSize; te++ {
		if !r.Correct(te) {
			continue
		}
		q := 0
		for _, c := range r.Counts[te] {
			if c >= delta {
				q++
			}
		}
		if q == 0 {
			continue
		}
		for i, c := range r.Counts[te] {
			if c >= delta {
				scores[i] += inv / float64(q)
			}
		}
	}
	return scores
}

// Accuracy of the argmax classifier observed during tracing.
func (r *Result) Accuracy() float64 {
	if r.TestSize == 0 {
		return 0
	}
	ok := 0
	for te := 0; te < r.TestSize; te++ {
		if r.Correct(te) {
			ok++
		}
	}
	return float64(ok) / float64(r.TestSize)
}
