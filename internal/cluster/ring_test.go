package cluster

import (
	"fmt"
	"testing"
)

func mustRing(t *testing.T, members []string, cfg Config) *Ring {
	t.Helper()
	r, err := New(members, cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", members, err)
	}
	return r
}

func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := New([]string{"a", ""}, Config{}); err == nil {
		t.Fatal("empty member accepted")
	}
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	a := mustRing(t, []string{"node-a", "node-b", "node-c"}, Config{})
	b := mustRing(t, []string{"node-c", "node-a", "node-b", "node-a"}, Config{})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("fed-%03d", i)
		if ga, gb := a.Lookup(key), b.Lookup(key); ga != gb {
			t.Fatalf("placement differs for %q: %q vs %q", key, ga, gb)
		}
	}
}

func TestRingSeedChangesPlacement(t *testing.T) {
	members := []string{"node-a", "node-b", "node-c"}
	a := mustRing(t, members, Config{Seed: 1})
	b := mustRing(t, members, Config{Seed: 2})
	moved := 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("fed-%03d", i)
		if a.Lookup(key) != b.Lookup(key) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("different seeds produced identical placement for all keys")
	}
}

func TestRingBalance(t *testing.T) {
	members := []string{"node-a", "node-b", "node-c"}
	r := mustRing(t, members, Config{})
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("fed-%05d", i))]++
	}
	fair := keys / len(members)
	for _, m := range members {
		c := counts[m]
		if c < fair/2 || c > fair*2 {
			t.Fatalf("member %s holds %d of %d keys (fair share %d): ring badly unbalanced", m, c, keys, fair)
		}
	}
}

func TestRingMembershipChangeRemapsMinority(t *testing.T) {
	before := mustRing(t, []string{"node-a", "node-b", "node-c"}, Config{})
	after := mustRing(t, []string{"node-a", "node-b", "node-c", "node-d"}, Config{})
	const keys = 2000
	moved, toNew := 0, 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("fed-%05d", i)
		ga, gb := before.Lookup(key), after.Lookup(key)
		if ga != gb {
			moved++
			if gb == "node-d" {
				toNew++
			}
		}
	}
	// Consistent hashing: roughly 1/4 of keys move, and every move lands
	// on the added member (a key never migrates between surviving members).
	if moved > keys/2 {
		t.Fatalf("%d of %d keys remapped on member add; expected ~1/4", moved, keys)
	}
	if moved != toNew {
		t.Fatalf("%d keys moved but only %d to the new member: keys migrated between survivors", moved, toNew)
	}
}

func TestRingContains(t *testing.T) {
	r := mustRing(t, []string{"node-a", "node-b"}, Config{})
	if !r.Contains("node-a") || r.Contains("node-z") {
		t.Fatal("Contains wrong")
	}
	if r.Size() != 2 {
		t.Fatalf("Size = %d", r.Size())
	}
}
