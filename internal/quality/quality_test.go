package quality

import (
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/stats"
)

// buildScenario trains on tic-tac-toe with three participants: an honest
// one, one that replicates half its data, and one with 60% flipped labels.
func buildScenario(t *testing.T) (*core.Result, []core.TrainingUpload, *rules.Set, []string) {
	t.Helper()
	tab := dataset.TicTacToe()
	r := stats.NewRNG(4)
	train, test := tab.Split(r, 0.25)
	parts := fl.PartitionSkewSample(train, 3, 3.0, r)
	parts = fl.ReplaceParticipant(parts, fl.Replicate(parts[1], 1.0, r))
	parts = fl.ReplaceParticipant(parts, fl.FlipLabels(parts[2], 0.6, r))

	enc, err := dataset.NewEncoder(tab.Schema, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := enc.EncodeTable(fl.Union(parts))
	m, err := nn.New(enc.Width(), nn.Config{
		Hidden: []int{48}, Epochs: 30, Grafting: true, Seed: 3,
		L1Logic: 2e-4, L2Head: 1e-3, KeepBest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.TrainEpochs(xs, ys, m.Config().Epochs)
	rs := rules.Extract(m, enc)

	var uploads []core.TrainingUpload
	for pi, p := range parts {
		acts, _ := rs.ActivationsTable(p.Data)
		for i, a := range acts {
			uploads = append(uploads, core.TrainingUpload{
				Owner: pi, Label: p.Data.Instances[i].Label, Activations: a,
			})
		}
	}
	tracer := core.NewTracerFromUploads(rs, len(parts), uploads, core.Config{TauW: 0.8})
	res := tracer.Trace(test)
	return res, uploads, rs, []string{"honest", "replicator", "flipper"}
}

func TestAssessSeparatesBehaviours(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	res, uploads, rs, names := buildScenario(t)
	reports := Assess(res, uploads, rs.Weights(), rs.ClassMask(1), rs.ClassMask(0))
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	honest, repl, flip := reports[0], reports[1], reports[2]

	// The replicator's duplicate ratio must dwarf the honest one's.
	if repl.DuplicateRatio < honest.DuplicateRatio+0.3 {
		t.Fatalf("duplicate signal missing: honest %.2f vs replicator %.2f",
			honest.DuplicateRatio, repl.DuplicateRatio)
	}
	// The flipper's contradiction ratio must dwarf the honest one's.
	if flip.ContradictionRatio < honest.ContradictionRatio+0.15 {
		t.Fatalf("contradiction signal missing: honest %.2f vs flipper %.2f",
			honest.ContradictionRatio, flip.ContradictionRatio)
	}
	// Grades: honest should not be worse than the flipper.
	order := map[string]int{"poor": 0, "review": 1, "good": 2}
	if order[honest.Grade] < order[flip.Grade] {
		t.Fatalf("honest graded %s, flipper %s", honest.Grade, flip.Grade)
	}

	out := Render(reports, names)
	for _, want := range []string{"honest", "replicator", "flipper", "grade"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestGradeThresholds(t *testing.T) {
	cases := []struct {
		r    Report
		want string
	}{
		{Report{}, "good"},
		{Report{UselessRatio: 0.7}, "poor"},
		{Report{ContradictionRatio: 0.5}, "poor"},
		{Report{UselessRatio: 0.4}, "review"},
		{Report{DuplicateRatio: 0.5}, "review"},
		{Report{ContradictionRatio: 0.25}, "review"},
		{Report{LossShare: 0.5, GainShare: 0.1}, "review"},
		{Report{LossShare: 0.15, GainShare: 0.05}, "good"}, // loss below floor
	}
	for i, c := range cases {
		if got := grade(&c.r); got != c.want {
			t.Fatalf("case %d: grade = %s, want %s (%+v)", i, got, c.want, c.r)
		}
	}
}

func TestAssessEmptyParticipant(t *testing.T) {
	// A participant with zero uploads must produce a zeroed report, not NaN.
	res := &core.Result{NumParticipants: 2, TestSize: 0}
	// Fabricate a minimal result via a tracer over one upload for owner 0.
	// Easier: call Assess with a synthetic Result-like setup is impossible
	// without a tracer, so build the smallest real one.
	schema := &dataset.Schema{Name: "t", Features: []dataset.Feature{
		{Name: "f", Kind: dataset.Discrete, Categories: []string{"a"}},
	}}
	enc, err := dataset.NewEncoder(schema, 1, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.New(enc.Width(), nn.Config{Hidden: []int{2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs := rules.Extract(m, enc)
	up := []core.TrainingUpload{{Owner: 0, Label: 1, Activations: bitset.New(rs.Width())}}
	tracer := core.NewTracerFromUploads(rs, 2, up, core.Config{TauW: 0.8})
	res = tracer.Trace(&dataset.Table{Schema: schema})
	reports := Assess(res, up, rs.Weights(), rs.ClassMask(1), rs.ClassMask(0))
	if reports[1].Instances != 0 || reports[1].Grade == "" {
		t.Fatalf("empty participant report = %+v", reports[1])
	}
}
