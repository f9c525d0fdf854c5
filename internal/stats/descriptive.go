package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs, or 0 when len < 2.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// MinMax returns the smallest and largest element of xs.
// It panics on an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Clip limits x to the interval [lo, hi].
func Clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Normalize scales xs in place so it sums to 1. All-zero input is left
// untouched. Returns the original sum.
func Normalize(xs []float64) float64 {
	s := Sum(xs)
	if s != 0 {
		for i := range xs {
			xs[i] /= s
		}
	}
	return s
}

// ranks assigns fractional ranks (average rank for ties), 1-based.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	rk := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			rk[idx[k]] = avg
		}
		i = j + 1
	}
	return rk
}

// Spearman returns the Spearman rank correlation between xs and ys.
// It panics if the slices differ in length, and returns 0 when either
// input is constant (undefined correlation).
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Spearman length mismatch")
	}
	if len(xs) < 2 {
		return 0
	}
	return pearson(ranks(xs), ranks(ys))
}

func pearson(xs, ys []float64) float64 {
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Kendall returns the Kendall tau-b rank correlation between xs and ys,
// which handles ties in either argument. It returns 0 when undefined.
func Kendall(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Kendall length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	var concordant, discordant, tiesX, tiesY float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			switch {
			case dx == 0 && dy == 0:
				// tied in both; contributes to neither denominator term
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case dx*dy > 0:
				concordant++
			default:
				discordant++
			}
		}
	}
	den := math.Sqrt((concordant + discordant + tiesX) * (concordant + discordant + tiesY))
	if den == 0 {
		return 0
	}
	return (concordant - discordant) / den
}

// AUC returns the area under a piecewise-linear curve given by equally
// spaced y samples (trapezoid rule, unit spacing between points, normalized
// by the span so the result is the mean height). This is the "area under the
// model accuracy curve" summary used for the paper's Fig. 4: smaller is a
// better contribution estimate.
func AUC(ys []float64) float64 {
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return ys[0]
	}
	area := 0.0
	for i := 1; i < n; i++ {
		area += (ys[i-1] + ys[i]) / 2
	}
	return area / float64(n-1)
}

// ArgsortDesc returns the indices of xs sorted by descending value.
// Ties break by ascending index so the order is deterministic.
func ArgsortDesc(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx
}
