package protocol

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// sampleRoundParts builds n participants with k params each, deterministic.
func sampleRoundParts(n, k int) []RoundParticipant {
	r := stats.NewRNG(17)
	parts := make([]RoundParticipant, n)
	for i := range parts {
		parts[i] = RoundParticipant{ID: i * 2, Weight: float64(1 + r.Intn(50))}
		for j := 0; j < k; j++ {
			parts[i].Params = append(parts[i].Params, r.NormFloat64())
		}
	}
	return parts
}

func mustRoundUpdate(t *testing.T, round int, parts []RoundParticipant) []byte {
	t.Helper()
	b, err := AppendRoundUpdate(nil, round, parts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundUpdateRoundTrip(t *testing.T) {
	parts := sampleRoundParts(5, 7)
	buf := mustRoundUpdate(t, 3, parts)

	info, err := ValidateRoundUpdateFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Round != 3 || info.Count != 5 || info.ParamCount != 7 || info.FrameLen != len(buf) {
		t.Fatalf("info = %+v", info)
	}

	f, rest, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	u, err := ParseRoundUpdate(f)
	if err != nil {
		t.Fatal(err)
	}
	if u.Round != 3 || u.Count != 5 || u.ParamCount != 7 {
		t.Fatalf("view = %+v", u)
	}
	for i, p := range parts {
		if u.ID(i) != p.ID || u.Weight(i) != p.Weight {
			t.Fatalf("participant %d: id %d weight %g, want %d %g", i, u.ID(i), u.Weight(i), p.ID, p.Weight)
		}
		for j, v := range p.Params {
			if u.Row(i).At(j) != v {
				t.Fatalf("param [%d][%d]: %g != %g", i, j, u.Row(i).At(j), v)
			}
		}
	}
}

func TestAppendRoundUpdateRejects(t *testing.T) {
	ok := sampleRoundParts(3, 2)
	cases := map[string]func() ([]byte, error){
		"negative round": func() ([]byte, error) { return AppendRoundUpdate(nil, -1, ok) },
		"no participants": func() ([]byte, error) {
			return AppendRoundUpdate(nil, 0, nil)
		},
		"duplicate ids": func() ([]byte, error) {
			dup := append([]RoundParticipant(nil), ok...)
			dup[1].ID = dup[0].ID
			return AppendRoundUpdate(nil, 0, dup)
		},
		"id out of range": func() ([]byte, error) {
			big := append([]RoundParticipant(nil), ok...)
			big[2].ID = MaxRoundParticipants
			return AppendRoundUpdate(nil, 0, big)
		},
		"ragged params": func() ([]byte, error) {
			rag := append([]RoundParticipant(nil), ok...)
			rag[1].Params = rag[1].Params[:1]
			return AppendRoundUpdate(nil, 0, rag)
		},
		"zero weight": func() ([]byte, error) {
			zw := append([]RoundParticipant(nil), ok...)
			zw[0].Weight = 0
			return AppendRoundUpdate(nil, 0, zw)
		},
		"nan weight": func() ([]byte, error) {
			nw := append([]RoundParticipant(nil), ok...)
			nw[0].Weight = math.NaN()
			return AppendRoundUpdate(nil, 0, nw)
		},
		"empty params": func() ([]byte, error) {
			return AppendRoundUpdate(nil, 0, []RoundParticipant{{ID: 0, Weight: 1}})
		},
	}
	for name, fn := range cases {
		if _, err := fn(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// NaN parameters are legal payload and must round-trip bit-exactly.
func TestRoundUpdateNaNParams(t *testing.T) {
	parts := []RoundParticipant{
		{ID: 0, Weight: 2, Params: []float64{math.NaN(), math.Inf(1), -0.0}},
		{ID: 5, Weight: 1, Params: []float64{1, math.Inf(-1), math.Float64frombits(0x7ff80000deadbeef)}},
	}
	buf := mustRoundUpdate(t, 0, parts)
	f, _, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ParseRoundUpdate(f)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		for j, v := range p.Params {
			if math.Float64bits(u.Row(i).At(j)) != math.Float64bits(v) {
				t.Fatalf("param [%d][%d] bits changed: %x != %x",
					i, j, math.Float64bits(u.Row(i).At(j)), math.Float64bits(v))
			}
		}
	}
}

func TestScoresSnapshotRoundTrip(t *testing.T) {
	snap := ScoresSnapshot{
		Rounds:  12,
		Skipped: 4,
		Scores:  []float64{0.25, -0.125, 0, math.NaN(), math.Inf(-1)},
	}
	buf := AppendScoresSnapshot(nil, &snap)
	f, rest, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	got, err := ParseScoresSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != snap.Rounds || got.Skipped != snap.Skipped || len(got.Scores) != len(snap.Scores) {
		t.Fatalf("snapshot = %+v", got)
	}
	for i := range snap.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(snap.Scores[i]) {
			t.Fatalf("score %d bits changed", i)
		}
	}

	// Empty score vectors (a stream before any round) survive too.
	f2, _, err := ParseFrame(AppendScoresSnapshot(nil, &ScoresSnapshot{}))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ParseScoresSnapshot(f2)
	if err != nil || got2.Rounds != 0 || len(got2.Scores) != 0 {
		t.Fatalf("empty round trip: %v %+v", err, got2)
	}

	// Warm decode into a reused struct must not allocate.
	var dst ScoresSnapshot
	if err := ParseScoresSnapshotInto(f, &dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ParseScoresSnapshotInto(f, &dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state snapshot decode allocates %v times per run", allocs)
	}
}

// TestValidateRoundUpdateFrameZeroAlloc pins the ingest hot path: validating
// a round-update frame in place must not touch the heap at all.
func TestValidateRoundUpdateFrameZeroAlloc(t *testing.T) {
	frame := mustRoundUpdate(t, 7, sampleRoundParts(8, 64))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ValidateRoundUpdateFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ValidateRoundUpdateFrame allocates %v times per frame", allocs)
	}
}
