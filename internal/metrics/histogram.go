package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Latency histogram layout (values in microseconds): every value below
// histExact has a bucket of its own; above it, each power of two
// [2^k, 2^(k+1)) is split into histSub equal buckets, so a bucket is at most
// 1/histSub = 12.5 % as wide as the values it holds. Values at or above
// 2^histMaxBits µs (about 12.7 days) share the last bucket.
const (
	histSubBits   = 3
	histSub       = 1 << histSubBits
	histExactBits = histSubBits + 1
	histExact     = 1 << histExactBits // 16 µs
	histMaxBits   = 40
	histMax       = 1<<histMaxBits - 1
	histBuckets   = histExact + (histMaxBits-histExactBits)*histSub // 304
)

// latencyHistogram is a fixed-size log-linear histogram of latencies, 304
// counters (2.4 KB) whatever the number of values recorded. Record is one
// atomic add, safe from any number of goroutines; reads sum the counters as
// they find them, so a read racing records may miss the newest values and
// is exact at quiescence.
type latencyHistogram struct {
	counts [histBuckets]atomic.Uint64
}

// histBucket returns the bucket of latency v. Negative values clamp to 0
// and values past histMax to histMax.
func histBucket(v int64) int {
	if v < histExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	if v > histMax {
		v = histMax
	}
	k := bits.Len64(uint64(v)) - 1 // v in [2^k, 2^(k+1)), k >= histExactBits
	sub := int(v>>(k-histSubBits)) - histSub
	return histExact + (k-histExactBits)*histSub + sub
}

// histBucketRange returns the smallest value bucket i holds and its width.
func histBucketRange(i int) (lo, width int64) {
	if i < histExact {
		return int64(i), 1
	}
	i -= histExact
	k := i/histSub + histExactBits
	width = 1 << (k - histSubBits)
	return int64(histSub+i%histSub) * width, width
}

// histValue is the value a bucket reports for each of its members: the
// middle of its integer range, so within half a bucket of each, and exact
// for the one-value buckets below histExact.
func histValue(i int) float64 {
	lo, width := histBucketRange(i)
	return float64(lo) + float64(width-1)/2
}

// Record adds one latency in microseconds.
func (h *latencyHistogram) Record(v int64) {
	h.counts[histBucket(v)].Add(1)
}

// Quantile returns the q-th quantile (0 <= q <= 1) the way stats.Sample
// does — linear interpolation between the closest ranks — with each rank's
// value read from its bucket. The result is within one bucket of the exact
// quantile of the clamped values: off by at most 1/16 of it, and exact when
// the interpolated ranks lie below 16 µs. It panics on an empty histogram,
// like Sample.Quantile.
func (h *latencyHistogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: Quantile(%v) out of range", q))
	}
	var snap [histBuckets]uint64
	var n uint64
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
		n += snap[i]
	}
	if n == 0 {
		panic("metrics: Quantile of empty histogram")
	}
	pos := q * float64(n-1)
	lo := uint64(pos)
	frac := pos - float64(lo)
	hi := lo
	if frac > 0 {
		hi = lo + 1
	}
	// One pass finds the buckets holding the 0-based ranks lo and hi.
	var vlo, vhi float64
	var seen uint64
	for i, c := range snap {
		if c == 0 {
			continue
		}
		if lo >= seen && lo < seen+c {
			vlo = histValue(i)
		}
		seen += c
		if hi < seen {
			vhi = histValue(i)
			break
		}
	}
	return vlo*(1-frac) + vhi*frac
}
