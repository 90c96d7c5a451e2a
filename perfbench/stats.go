package main

// The benchmark keeps its own arithmetic rather than using
// internal/perfstat, so no change to the program under test can change
// how it is measured.

import (
	"math"
	"sort"
)

// geomean is the geometric mean of positive values; it is how the
// suite's per-cell Mop/s figures combine into one number, so a 10%
// gain on any one cell moves it by the same factor.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// median of xs (mean of the middle two for an even count); xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
