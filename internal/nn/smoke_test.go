package nn

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// TestSmokeTicTacToe is the end-to-end learnability check: the grafted
// logical network must reach high binarized accuracy on the tic-tac-toe
// endgame task, where the ground truth is exactly eight 3-predicate
// conjunctions per class side.
func TestSmokeTicTacToe(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tab := dataset.TicTacToe()
	r := stats.NewRNG(1)
	train, test := tab.Split(r, 0.2)
	enc, err := dataset.NewEncoder(tab.Schema, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	xtr, ytr := enc.EncodeTable(train)
	xte, yte := enc.EncodeTable(test)

	m, err := New(enc.Width(), Config{Hidden: []int{64}, Epochs: 80, Grafting: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m.TrainEpochs(xtr, ytr, m.cfg.Epochs)
	acc := m.Accuracy(xte, yte)
	t.Logf("tic-tac-toe binarized test accuracy: %.3f", acc)
	if acc < 0.90 {
		t.Fatalf("accuracy %.3f below 0.90 — grafted model failed to learn", acc)
	}
}
