package fl

// Secure aggregation by pairwise additive masking — the standard
// cryptographic substrate the paper points at ("security protection
// techniques such as secret sharing can also be applied like in regular
// FL"). Each pair of clients (i, j) agrees on a shared mask vector m_ij;
// client i adds +m_ij and client j adds −m_ij to their parameter uploads,
// so individual updates are unreadable while the server's sum is exact.
// The simulation derives pair masks from a shared seed (standing in for a
// Diffie-Hellman agreement) and verifies bit-exact cancellation.

import "math/rand"

// maskScale bounds the magnitude of mask components. Masking is exact in
// real-number arithmetic; in float64 the masked sum differs from the plain
// sum by rounding noise proportional to the scale, so the scale stays
// moderate and AggregateMasked is verified against the unmasked sum in tests.
const maskScale = 100.0

// pairMask deterministically derives the mask vector shared by clients
// (i, j), i < j, for the given round.
func pairMask(seed int64, round, i, j, dim int) []float64 {
	r := rand.New(rand.NewSource(seed ^ int64(round)*1_000_003 ^ int64(i)*7919 ^ int64(j)*104729))
	m := make([]float64, dim)
	for k := range m {
		m[k] = (r.Float64()*2 - 1) * maskScale
	}
	return m
}

// MaskUpdate returns client idx's weighted parameter vector with all of its
// pairwise masks applied: +mask against higher-indexed clients, −mask
// against lower-indexed ones. n is the total client count this round.
func MaskUpdate(params []float64, weight float64, idx, n int, round int, seed int64) []float64 {
	out := make([]float64, len(params))
	for k, v := range params {
		out[k] = v * weight
	}
	for other := 0; other < n; other++ {
		if other == idx {
			continue
		}
		lo, hi := idx, other
		sign := 1.0
		if lo > hi {
			lo, hi = hi, lo
			sign = -1
		}
		m := pairMask(seed, round, lo, hi, len(params))
		for k := range out {
			out[k] += sign * m[k]
		}
	}
	return out
}

// AggregateMasked sums masked client uploads; the pairwise masks cancel and
// the result equals the weighted parameter sum (up to float rounding).
func AggregateMasked(uploads [][]float64) []float64 {
	if len(uploads) == 0 {
		return nil
	}
	sum := make([]float64, len(uploads[0]))
	for _, u := range uploads {
		for k, v := range u {
			sum[k] += v
		}
	}
	return sum
}
