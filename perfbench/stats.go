package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is not modified. An empty
// slice gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/base, reported as 0 when the base is 0 so a metric over
// an empty denominator reads "no work" rather than NaN or Inf.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
