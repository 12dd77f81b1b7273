package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear histogram of non-negative int64 values
// (nanoseconds): 16 linear sub-buckets per power of two, so a quantile is
// within ~6 % of the exact one. The generators use it for per-call timings,
// where keeping every sample would cost more than the calls it times.
type hist struct {
	n      int64
	counts [64 * 16]int64
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	h.counts[histBucket(v)]++
}

func histBucket(v int64) int {
	if v < 16 {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 5 // v>>e is in [16, 32)
	return e*16 + int(v>>uint(e))
}

// histValue is the midpoint of bucket b.
func histValue(b int) float64 {
	if b < 16 {
		return float64(b)
	}
	e := b/16 - 1
	lo := int64(b%16+16) << uint(e)
	return float64(lo) + float64(int64(1)<<uint(e))/2
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile, or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(b)
		}
	}
	return 0
}

// quantile of an ascending slice, by linear interpolation; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
