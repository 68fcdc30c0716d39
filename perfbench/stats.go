package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is the number of samples a reported percentile must have
// strictly above it; a tail estimate with fewer is one or two outliers.
const minBeyond = 10

// quantile is a nearest-rank percentile with the sample support behind it.
type quantile struct {
	Q      float64 // the requested quantile in (0, 1)
	Value  float64
	N      int // samples
	Beyond int // samples ranked strictly above the reported one
}

// OK reports whether the percentile has at least minBeyond samples above it.
func (q quantile) OK() bool { return q.N > 0 && q.Beyond >= minBeyond }

func (q quantile) String() string {
	s := fmt.Sprintf("p%g=%.4g (n=%d, %d beyond)", q.Q*100, q.Value, q.N, q.Beyond)
	if !q.OK() {
		s += " REFUSED"
	}
	return s
}

// percentile returns the nearest-rank q-quantile of xs: the smallest
// sample with at least a share q of the samples at or below it. xs is
// sorted in place.
func percentile(xs []float64, q float64) quantile {
	slices.Sort(xs)
	n := len(xs)
	if n == 0 {
		return quantile{Q: q}
	}
	k := int(math.Ceil(q * float64(n)))
	k = min(max(k, 1), n)
	return quantile{Q: q, Value: xs[k-1], N: n, Beyond: n - k}
}

// median of xs (sorted in place); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ lo, hi int64 }

// coveredWithin returns how much of [lo, hi) the union of ivs covers.
// Intervals may overlap each other and stick out of [lo, hi).
func coveredWithin(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y interval) int { return int(x.lo - y.lo) })
	var total, end int64
	end = math.MinInt64
	for _, iv := range clipped {
		if iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}
