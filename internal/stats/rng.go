// Package stats bundles the numerical utilities the rest of the repository
// needs: reproducible random sampling (uniform, normal, Gamma, Dirichlet),
// descriptive statistics, rank correlations used to compare contribution
// rankings against ground truth, and area-under-curve summaries for the
// remove-top-k accuracy curves of the paper's Fig. 4.
package stats

import (
	"math"
	"math/rand"
)

// NewRNG returns a deterministic *rand.Rand for the given seed. Every
// experiment in this repository threads explicit RNGs so results are
// reproducible run to run.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Gamma draws one sample from the Gamma(shape, 1) distribution using the
// Marsaglia–Tsang method, which is exact for shape >= 1 and boosted with the
// standard x*U^(1/shape) transform for shape < 1.
func Gamma(r *rand.Rand, shape float64) float64 {
	if shape <= 0 {
		panic("stats: Gamma shape must be positive")
	}
	if shape < 1 {
		// Boost: if X ~ Gamma(shape+1) and U ~ Uniform(0,1),
		// then X * U^(1/shape) ~ Gamma(shape).
		return Gamma(r, shape+1) * math.Pow(r.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet draws one sample from the symmetric Dirichlet(alpha) distribution
// over n categories. The returned slice has length n and sums to 1. The
// paper's skew-sample and skew-label partitioners use this to draw client
// data ratios; smaller alpha means more skew.
func Dirichlet(r *rand.Rand, n int, alpha float64) []float64 {
	if n <= 0 {
		panic("stats: Dirichlet needs n > 0")
	}
	if alpha <= 0 {
		panic("stats: Dirichlet alpha must be positive")
	}
	out := make([]float64, n)
	sum := 0.0
	for i := range out {
		out[i] = Gamma(r, alpha)
		sum += out[i]
	}
	if sum == 0 {
		// Vanishingly unlikely; fall back to uniform to avoid NaNs.
		for i := range out {
			out[i] = 1 / float64(n)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Shuffle permutes idx in place with Fisher-Yates.
func Shuffle(r *rand.Rand, idx []int) {
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}
