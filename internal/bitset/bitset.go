// Package bitset provides fixed-width packed bitsets used throughout the
// repository as rule-activation vectors. A Set of width m records, for one
// data instance, which of the m rules of a rule-based model fire on it.
//
// The hot operations in CTFL's tracing phase are intersection cardinality
// (how many activated rules two instances share) and weighted intersection;
// both are implemented with 64-bit words and math/bits popcounts so that a
// single training-vs-test comparison costs O(m/64).
package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-width bitset. The zero value is an empty set of width 0;
// use New to create a set with capacity for a given number of bits.
type Set struct {
	words []uint64
	width int
}

// New returns a Set able to hold width bits, all initially clear.
func New(width int) *Set {
	if width < 0 {
		panic("bitset: negative width")
	}
	return &Set{
		words: make([]uint64, (width+wordBits-1)/wordBits),
		width: width,
	}
}

// MakeSlab returns n width-bit Sets backed by one shared words allocation —
// the bulk form of calling New n times. Decoding a batch of activation
// records into a slab costs two allocations total instead of two per record.
// Each Set is fully independent bit-wise (the word ranges do not overlap);
// callers keep pointers into the returned slice.
func MakeSlab(n, width int) []Set {
	if n < 0 || width < 0 {
		panic("bitset: negative slab size")
	}
	wpb := (width + wordBits - 1) / wordBits
	words := make([]uint64, n*wpb)
	sets := make([]Set, n)
	for i := range sets {
		sets[i] = Set{words: words[i*wpb : (i+1)*wpb : (i+1)*wpb], width: width}
	}
	return sets
}

// SetPackedBytes overwrites the set from packed little-endian bytes: bit i
// of the set is bit i%8 of packed[i/8] — the layout protocol upload frames
// carry. Bits in the final byte past the width are ignored, keeping the set
// canonical even for non-canonical input. It panics if packed holds fewer
// than ceil(width/8) bytes. Whole words load eight bytes at a time, so the
// cost is a memcpy-sized pass rather than a per-bit loop.
func (s *Set) SetPackedBytes(packed []byte) {
	need := (s.width + 7) / 8
	if len(packed) < need {
		panic("bitset: packed bytes shorter than width")
	}
	for wi := range s.words {
		base := wi * 8
		if base+8 <= need {
			s.words[wi] = binary.LittleEndian.Uint64(packed[base:])
			continue
		}
		var w uint64
		for b := 0; base+b < need; b++ {
			w |= uint64(packed[base+b]) << (8 * b)
		}
		s.words[wi] = w
	}
	if r := s.width % wordBits; r != 0 {
		s.words[len(s.words)-1] &= 1<<r - 1
	}
}

// Width reports the number of addressable bits.
func (s *Set) Width() int { return s.width }

// Set turns bit i on. It panics if i is out of range.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (i % wordBits)
}

// Clear turns bit i off. It panics if i is out of range.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (i % wordBits)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.width {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.width))
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), width: s.width}
	copy(c.words, s.words)
	return c
}

// And sets s = s ∩ o and returns s.
func (s *Set) And(o *Set) *Set {
	s.sameWidth(o)
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
	return s
}

// AndInto writes s ∩ o into dst and returns it, leaving s and o untouched.
// A nil (or wrong-width) dst is replaced by a fresh set, so callers can hold
// one reusable destination: it is the allocation-free form of Clone().And().
func (s *Set) AndInto(o, dst *Set) *Set {
	s.sameWidth(o)
	if dst == nil || dst.width != s.width {
		dst = New(s.width)
	}
	for i, w := range s.words {
		dst.words[i] = w & o.words[i]
	}
	return dst
}

// ForEach calls fn with the position of every set bit in ascending order.
// It is the allocation-free form of ranging over Indices.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(base + b)
			w &= w - 1
		}
	}
}

// Indices returns the positions of all set bits in ascending order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// WeightedCount returns the sum of weights[i] over all set bits i.
// len(weights) must be at least the set width.
func (s *Set) WeightedCount(weights []float64) float64 {
	if len(weights) < s.width {
		panic("bitset: weights shorter than width")
	}
	sum := 0.0
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			sum += weights[base+b]
			w &= w - 1
		}
	}
	return sum
}

// WeightedIntersect returns the sum of weights[i] over bits set in both s and o.
// This is the numerator of CTFL's Eq. (4): w* ⊙ r*(x_tr) · r*(x_te).
func (s *Set) WeightedIntersect(o *Set, weights []float64) float64 {
	s.sameWidth(o)
	if len(weights) < s.width {
		panic("bitset: weights shorter than width")
	}
	sum := 0.0
	for wi, w := range s.words {
		w &= o.words[wi]
		base := wi * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			sum += weights[base+b]
			w &= w - 1
		}
	}
	return sum
}

// Key returns a string usable as a map key identifying the exact bit pattern.
// Two sets of equal width share a key iff they hold the same bits.
func (s *Set) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 16)
	for _, w := range s.words {
		fmt.Fprintf(&b, "%016x", w)
	}
	return b.String()
}

// AppendKey appends the raw little-endian words of the set to dst and
// returns it: an 8-bytes-per-word dedupe key. Two sets of equal width append
// identical bytes iff they hold the same bits; unlike Key it does no hex
// formatting, so building (and looking up) the key costs a single
// memcpy-sized pass.
func (s *Set) AppendKey(dst []byte) []byte {
	for _, w := range s.words {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// String renders the set as a bit string, lowest index first, e.g. "10110".
func (s *Set) String() string {
	var b strings.Builder
	b.Grow(s.width)
	for i := 0; i < s.width; i++ {
		if s.Test(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func (s *Set) sameWidth(o *Set) {
	if s.width != o.width {
		panic(fmt.Sprintf("bitset: width mismatch %d vs %d", s.width, o.width))
	}
}
