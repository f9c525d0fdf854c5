// Package cluster shards federations across ctflsrv instances with a
// consistent-hash ring. The ring is a pure, deterministic function of
// (member list, virtual-node count, seed): every client and every server
// that agrees on those three inputs computes the same federation→node
// placement with no coordination service. Virtual nodes smooth the
// key distribution so a 3-node ring stays within a few percent of even;
// consistent hashing keeps a membership change from remapping more than
// ~1/N of the key space, which is what makes the X-CTFL-Shard redirect
// protocol cheap — only the moved federations bounce once.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the points-per-member default. 128 keeps the
// worst member within ~10% of its fair share on small rings while the
// whole ring stays a few KB.
const DefaultVirtualNodes = 128

// DefaultSeed is the ring hash seed every component uses unless
// configured otherwise. It is part of the cluster contract: clients and
// servers must share it or placement diverges.
const DefaultSeed uint64 = 0xC7F1C7F1C7F1C7F1

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node int32
}

// Ring is an immutable consistent-hash ring. Build with New; all methods
// are safe for concurrent use (the ring never mutates).
type Ring struct {
	nodes  []string
	points []point
	vnodes int
	seed   uint64
}

// Config tunes ring construction. The zero value takes the defaults.
type Config struct {
	// VirtualNodes is the number of ring points per member (default
	// DefaultVirtualNodes).
	VirtualNodes int
	// Seed keys the placement hash (default DefaultSeed). All ring
	// participants must agree on it.
	Seed uint64
}

// New builds a ring over the member list. Members are deduplicated and
// sorted, so placement is independent of argument order. An empty member
// list is an error: a ring with no nodes cannot place anything.
func New(members []string, cfg Config) (*Ring, error) {
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = DefaultVirtualNodes
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	seen := make(map[string]struct{}, len(members))
	nodes := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty ring member")
		}
		if _, dup := seen[m]; dup {
			continue
		}
		seen[m] = struct{}{}
		nodes = append(nodes, m)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(nodes)

	r := &Ring{
		nodes:  nodes,
		points: make([]point, 0, len(nodes)*cfg.VirtualNodes),
		vnodes: cfg.VirtualNodes,
		seed:   cfg.Seed,
	}
	for i, n := range nodes {
		h := hashString(cfg.Seed, n)
		for v := 0; v < cfg.VirtualNodes; v++ {
			// Derive each virtual point from the member hash with a
			// splitmix step; adjacent replicas land far apart.
			h = mix64(h + 0x9E3779B97F4A7C15)
			r.points = append(r.points, point{hash: h, node: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (astronomically rare) break by node index so placement
		// stays deterministic.
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Size reports the member count.
func (r *Ring) Size() int { return len(r.nodes) }

// Contains reports whether the member is on the ring.
func (r *Ring) Contains(member string) bool {
	i := sort.SearchStrings(r.nodes, member)
	return i < len(r.nodes) && r.nodes[i] == member
}

// Lookup places a key (a federation id) on its owning member.
func (r *Ring) Lookup(key string) string {
	return r.nodes[r.owner(hashString(r.seed, key))]
}

// search finds the index of the first ring point at or after h, wrapping
// to 0 past the last point.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// owner resolves a key hash to a member index.
func (r *Ring) owner(h uint64) int32 {
	return r.points[r.search(h)].node
}

// hashString is FNV-1a 64 over the key, seeded, then finalized with a
// splitmix step. Stated explicitly (not hash/maphash) because the value
// must be identical across processes and restarts — it is a wire-visible
// placement contract, not an in-memory hash table.
func hashString(seed uint64, s string) uint64 {
	h := uint64(14695981039346656037) ^ seed
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the SplitMix64 finalizer: a full-avalanche bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
