package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// tailPercentile is the highest whole percentile that still leaves at
// least ten samples above it, so a tail figure never rests on fewer than
// ten observations. It returns 50 when the sample is too small for any
// higher percentile.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if float64(n)*(100-float64(p))/100 >= 10 {
			return p
		}
	}
	return 50
}
