package fl

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/stats"
)

func TestPartitionSkewSample(t *testing.T) {
	tab := dataset.TicTacToe()
	r := stats.NewRNG(1)
	parts := PartitionSkewSample(tab, 8, 0.8, r)
	if len(parts) != 8 {
		t.Fatalf("got %d participants", len(parts))
	}
	total := 0
	seen := make(map[int]bool)
	for i, p := range parts {
		if p.Size() < 1 {
			t.Fatalf("participant %s empty", p.Name)
		}
		if p.ID != i {
			t.Fatalf("ID %d at slot %d", p.ID, i)
		}
		total += p.Size()
		for range p.Data.Instances {
			seen[len(seen)] = true
		}
	}
	if total != tab.Len() {
		t.Fatalf("partition loses rows: %d != %d", total, tab.Len())
	}
	if parts[0].Name != "A" || parts[1].Name != "B" {
		t.Fatalf("names = %s, %s", parts[0].Name, parts[1].Name)
	}
}

func TestPartitionSkewLabelDistributionsDiffer(t *testing.T) {
	tab := dataset.TicTacToe()
	r := stats.NewRNG(2)
	parts := PartitionSkewLabel(tab, 5, 0.3, r)
	total := 0
	var fracs []float64
	for _, p := range parts {
		if p.Size() == 0 {
			t.Fatalf("%s empty", p.Name)
		}
		total += p.Size()
		fracs = append(fracs, p.LabelDistribution()[1])
	}
	if total != tab.Len() {
		t.Fatalf("rows lost: %d != %d", total, tab.Len())
	}
	lo, hi := stats.MinMax(fracs)
	if hi-lo < 0.1 {
		t.Fatalf("skew-label at alpha=0.3 produced near-identical label fractions: %v", fracs)
	}
}

func TestPartitionPanics(t *testing.T) {
	tab := dataset.TicTacToe()
	r := stats.NewRNG(3)
	for _, fn := range []func(){
		func() { PartitionSkewSample(tab, 0, 1, r) },
		func() { PartitionSkewLabel(tab, 0, 1, r) },
		func() { PartitionSkewSample(tab.Subset([]int{0, 1}), 3, 1, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestApportion(t *testing.T) {
	counts := apportion([]float64{0.5, 0.3, 0.2}, 10, 1)
	sum := 0
	for _, c := range counts {
		if c < 1 {
			t.Fatalf("minEach violated: %v", counts)
		}
		sum += c
	}
	if sum != 10 {
		t.Fatalf("counts sum to %d", sum)
	}
	// Extreme skew with minimum enforcement.
	counts = apportion([]float64{0.999, 0.0005, 0.0005}, 5, 1)
	sum = 0
	for _, c := range counts {
		if c < 1 {
			t.Fatalf("minEach violated: %v", counts)
		}
		sum += c
	}
	if sum != 5 {
		t.Fatalf("counts sum to %d", sum)
	}
}

func TestLabelDistribution(t *testing.T) {
	tab := dataset.TicTacToe()
	p := &Participant{Data: tab}
	d := p.LabelDistribution()
	if math.Abs(d[0]+d[1]-1) > 1e-9 {
		t.Fatalf("distribution does not sum to 1: %v", d)
	}
	if math.Abs(d[1]-626.0/958.0) > 1e-9 {
		t.Fatalf("positive fraction = %v", d[1])
	}
}

func TestReplicate(t *testing.T) {
	tab := dataset.TicTacToe().Subset([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	p := &Participant{ID: 3, Name: "D", Data: tab}
	r := stats.NewRNG(4)
	rep := Replicate(p, 0.5, r)
	if rep.Size() != 15 {
		t.Fatalf("replicated size = %d, want 15", rep.Size())
	}
	if p.Size() != 10 {
		t.Fatal("original mutated")
	}
	if rep.ID != 3 || rep.Name != "D" {
		t.Fatal("identity lost")
	}
}

func TestInjectLowQualityChangesOnlyLabels(t *testing.T) {
	tab := dataset.TicTacToe().Subset(seq(100))
	p := &Participant{Data: tab}
	r := stats.NewRNG(5)
	lq := InjectLowQuality(p, 0.4, r)
	if lq.Size() != 100 {
		t.Fatalf("size changed: %d", lq.Size())
	}
	changed := 0
	for i := range lq.Data.Instances {
		for j := range lq.Data.Instances[i].Values {
			if lq.Data.Instances[i].Values[j] != p.Data.Instances[i].Values[j] {
				t.Fatal("features modified")
			}
		}
		if lq.Data.Instances[i].Label != p.Data.Instances[i].Label {
			changed++
		}
	}
	// 40 rows get labels re-drawn from the label distribution; roughly
	// half keep their original label by chance.
	if changed == 0 || changed > 40 {
		t.Fatalf("changed = %d, want in (0,40]", changed)
	}
}

func TestFlipLabels(t *testing.T) {
	tab := dataset.TicTacToe().Subset(seq(50))
	p := &Participant{Data: tab}
	r := stats.NewRNG(6)
	fl := FlipLabels(p, 0.2, r)
	changed := 0
	for i := range fl.Data.Instances {
		if fl.Data.Instances[i].Label != p.Data.Instances[i].Label {
			changed++
			if fl.Data.Instances[i].Label != 1-p.Data.Instances[i].Label {
				t.Fatal("flip produced invalid label")
			}
		}
	}
	if changed != 10 {
		t.Fatalf("flipped = %d, want exactly 10", changed)
	}
}

func TestReplaceParticipant(t *testing.T) {
	a := &Participant{ID: 0, Name: "A"}
	b := &Participant{ID: 1, Name: "B"}
	b2 := &Participant{ID: 1, Name: "B'"}
	out := ReplaceParticipant([]*Participant{a, b}, b2)
	if out[0] != a || out[1] != b2 {
		t.Fatal("replacement wrong")
	}
	if len(out) != 2 {
		t.Fatal("length changed")
	}
}

func TestSampleCountClamps(t *testing.T) {
	if sampleCount(10, -0.5) != 0 {
		t.Fatal("negative ratio should clamp to 0")
	}
	if sampleCount(10, 2.0) != 10 {
		t.Fatal("ratio > 1 should clamp to n")
	}
	if sampleCount(10, 0.35) != 3 {
		t.Fatal("ratio 0.35 of 10 should be 3")
	}
}

func TestFedAvgTrainsUsableModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tab := dataset.TicTacToe()
	r := stats.NewRNG(8)
	train, test := tab.Split(r, 0.2)
	enc, err := dataset.NewEncoder(tab.Schema, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	parts := PartitionSkewSample(train, 4, 1, r)
	tr := NewTrainer(enc, TrainConfig{
		Rounds:      3,
		LocalEpochs: 12,
		Parallel:    true,
		Model:       nn.Config{Hidden: []int{64}, Grafting: true, Seed: 7},
	})
	m, err := tr.Train(parts)
	if err != nil {
		t.Fatal(err)
	}
	acc := tr.Evaluate(m, test)
	t.Logf("FedAvg tic-tac-toe accuracy: %.3f", acc)
	if acc < 0.80 {
		t.Fatalf("FedAvg accuracy %.3f too low", acc)
	}
	// Single-participant training must also work (Individual baseline path).
	solo, err := tr.Train(parts[:1])
	if err != nil {
		t.Fatal(err)
	}
	if a := tr.Evaluate(solo, test); a < 0.5 {
		t.Fatalf("solo accuracy %.3f below majority", a)
	}
}

func TestTrainerErrors(t *testing.T) {
	tab := dataset.TicTacToe()
	enc, err := dataset.NewEncoder(tab.Schema, 5, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(enc, TrainConfig{})
	if _, err := tr.Train(nil); err == nil {
		t.Fatal("empty participant list should error")
	}
	empty := &Participant{ID: 0, Name: "A", Data: &dataset.Table{Schema: tab.Schema}}
	if _, err := tr.Train([]*Participant{empty}); err == nil {
		t.Fatal("empty participant data should error")
	}
}

func TestTrainerCacheReuse(t *testing.T) {
	tab := dataset.TicTacToe().Subset(seq(30))
	enc, err := dataset.NewEncoder(tab.Schema, 5, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(enc, TrainConfig{Rounds: 1, LocalEpochs: 1, Model: nn.Config{Hidden: []int{4}}})
	p := &Participant{ID: 0, Name: "A", Data: tab}
	e1 := tr.encodedData(p)
	e2 := tr.encodedData(p)
	if &e1.x[0][0] != &e2.x[0][0] {
		t.Fatal("encoded data not cached")
	}
}

func TestEncodedDataConcurrentDedup(t *testing.T) {
	tab := dataset.TicTacToe()
	enc, err := dataset.NewEncoder(tab.Schema, 5, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(enc, TrainConfig{Rounds: 1, LocalEpochs: 1, Model: nn.Config{Hidden: []int{4}}})
	p := &Participant{ID: 0, Name: "A", Data: tab}
	const callers = 32
	results := make([]encoded, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = tr.encodedData(p)
		}(i)
	}
	wg.Wait()
	if got := tr.encodes.Load(); got != 1 {
		t.Fatalf("%d concurrent callers ran %d encodes, want 1", callers, got)
	}
	for i := 1; i < callers; i++ {
		if &results[i].x[0][0] != &results[0].x[0][0] {
			t.Fatalf("caller %d got a different encoding", i)
		}
	}
}

func TestTrainConcurrentCoalitionsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tab := dataset.TicTacToe().Subset(seq(200))
	r := stats.NewRNG(9)
	enc, err := dataset.NewEncoder(tab.Schema, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	parts := PartitionSkewSample(tab, 4, 1, r)
	tr := NewTrainer(enc, TrainConfig{
		Rounds: 1, LocalEpochs: 2, Parallel: true,
		Model: nn.Config{Hidden: []int{8}, Grafting: true, Seed: 3, BatchSize: 64},
	})
	coalitions := [][]*Participant{
		parts[:1], parts[:2], parts[1:3], parts,
	}
	// Sequential reference params per coalition, on a fresh trainer so the
	// concurrent run below starts from a cold encode cache too.
	ref := make([][]float64, len(coalitions))
	refTr := NewTrainer(enc, tr.Config())
	for i, c := range coalitions {
		m, err := refTr.Train(c)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = m.Params()
	}
	got := make([][]float64, len(coalitions))
	errs := make([]error, len(coalitions))
	var wg sync.WaitGroup
	for i, c := range coalitions {
		wg.Add(1)
		go func(i int, c []*Participant) {
			defer wg.Done()
			m, err := tr.Train(c)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = m.Params()
		}(i, c)
	}
	wg.Wait()
	for i := range coalitions {
		if errs[i] != nil {
			t.Fatalf("coalition %d: %v", i, errs[i])
		}
		if len(got[i]) != len(ref[i]) {
			t.Fatalf("coalition %d: %d params, want %d", i, len(got[i]), len(ref[i]))
		}
		for j := range got[i] {
			if got[i][j] != ref[i][j] {
				t.Fatalf("coalition %d param %d differs under concurrency: %v vs %v",
					i, j, got[i][j], ref[i][j])
			}
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
