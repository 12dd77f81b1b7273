package workload

import (
	"math"
	"sort"

	"github.com/cameo-stream/cameo/internal/stats"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// This file synthesizes the production-trace characteristics the paper
// reports in Figure 2 and uses in Figure 10 — the substitution for
// Microsoft's internal traces (DESIGN.md §2). The generators are
// parameterized to reproduce the published aggregates: power-law volume
// split across streams, second-scale spikes and idle gaps over time, and
// 200x per-source rate skew.

// PowerLawVolumes draws n per-stream data volumes from a Pareto
// distribution with shape alpha and returns them sorted descending and
// normalized to sum to 1 — the Figure 2(a) volume distribution where ~10%
// of streams carry the majority of the data.
func PowerLawVolumes(seed uint64, n int, alpha float64) []float64 {
	rng := stats.NewRNG(seed)
	vols := make([]float64, n)
	total := 0.0
	for i := range vols {
		vols[i] = rng.Pareto(1, alpha)
		total += vols[i]
	}
	for i := range vols {
		vols[i] /= total
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vols)))
	return vols
}

// CumulativeShare reports the fraction of total volume carried by the top
// topFrac of streams (vols must be sorted descending and normalized).
func CumulativeShare(vols []float64, topFrac float64) float64 {
	k := int(math.Ceil(topFrac * float64(len(vols))))
	if k > len(vols) {
		k = len(vols)
	}
	sum := 0.0
	for _, v := range vols[:k] {
		sum += v
	}
	return sum
}

// Heatmap is a synthetic ingestion heat map: Counts[source][interval] tuples
// per interval, mirroring Figure 2(c)'s per-second variability with spikes
// and idleness.
type Heatmap struct {
	Sources, Intervals int
	Interval           vtime.Duration
	Counts             [][]int
}

// SynthesizeHeatmap generates a heat map for the given number of sources
// and intervals. Each source gets an independent bursty pattern: a base
// rate drawn from a heavy-tailed distribution, spikes lasting one to a few
// intervals, and idle stretches.
func SynthesizeHeatmap(seed uint64, sources, intervals int, interval vtime.Duration) *Heatmap {
	root := stats.NewRNG(seed)
	h := &Heatmap{Sources: sources, Intervals: intervals, Interval: interval}
	h.Counts = make([][]int, sources)
	for s := range h.Counts {
		rng := root.Split()
		base := int(rng.Pareto(20, 1.2))
		if base > 5000 {
			base = 5000
		}
		row := make([]int, intervals)
		i := 0
		for i < intervals {
			switch {
			case rng.Bool(0.15): // idle stretch
				gap := 1 + rng.Intn(5)
				for j := 0; j < gap && i < intervals; j++ {
					row[i] = 0
					i++
				}
			case rng.Bool(0.2): // spike lasting 1–3 intervals
				spike := base * (5 + rng.Intn(20))
				dur := 1 + rng.Intn(3)
				for j := 0; j < dur && i < intervals; j++ {
					row[i] = spike
					i++
				}
			default:
				row[i] = base + rng.Intn(base+1)
				i++
			}
		}
		h.Counts[s] = row
	}
	return h
}

// NormalizedRow returns one source's trace rescaled to the given mean
// tuples per interval, preserving its burst/idle shape. Rows with no
// traffic come back as a constant targetMean. Rounding carries the
// fractional remainder across intervals, so the row's realized mean tracks
// targetMean to within one tuple over the whole row (per-cell truncation
// would under-deliver by up to half a tuple per interval).
func (h *Heatmap) NormalizedRow(src int, targetMean float64) []int {
	row := h.Counts[src]
	sum := 0
	for _, c := range row {
		sum += c
	}
	out := make([]int, len(row))
	carry := 0.0
	if sum == 0 {
		for i := range out {
			out[i] = carryRound(&carry, targetMean)
		}
		return out
	}
	scale := targetMean * float64(len(row)) / float64(sum)
	for i, c := range row {
		out[i] = carryRound(&carry, float64(c)*scale)
	}
	return out
}

// TotalTuples sums the whole map.
func (h *Heatmap) TotalTuples() int64 {
	var t int64
	for _, row := range h.Counts {
		for _, c := range row {
			t += int64(c)
		}
	}
	return t
}

// SkewedRates splits a total per-interval tuple budget across n sources
// with a max/min ratio of skew, geometrically interpolated — the Figure 10
// Type-2 pattern ("ingestion rate varies by 200x across sources"). One
// tuple per source is reserved up front (no source is silently zeroed) and
// the rest is apportioned by largest remainder, so the returned rates sum
// to exactly total with min >= 1; per-source truncation would both
// undershoot the total and zero the smallest sources. Totals below n are
// raised to n — the minimum budget that can feed every source. The rates
// are shuffled so skew doesn't correlate with source index.
func SkewedRates(seed uint64, n int, total int, skew float64) []int {
	if n <= 0 {
		return nil
	}
	if skew < 1 {
		skew = 1
	}
	if total < n {
		total = n
	}
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		frac := 0.0
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		weights[i] = math.Pow(skew, frac)
		sum += weights[i]
	}
	// Largest-remainder apportionment of the budget left after the 1-tuple
	// floor: integer shares first, then one extra tuple each to the largest
	// fractional remainders (ties broken by index, for determinism).
	spare := total - n
	rates := make([]int, n)
	rem := make([]float64, n)
	assigned := 0
	for i := range rates {
		exact := weights[i] / sum * float64(spare)
		rates[i] = 1 + int(exact)
		rem[i] = exact - math.Floor(exact)
		assigned += int(exact)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for k := 0; k < spare-assigned; k++ {
		rates[order[k]]++
	}
	stats.Shuffle(stats.NewRNG(seed), rates)
	return rates
}

// MicroBatchJob models one ad-hoc micro-batch job from Figure 2(b):
// users provisioning clusters externally and running periodic batch jobs,
// paying scheduling overhead on every run.
type MicroBatchJob struct {
	// Completion is the job's useful run time.
	Completion vtime.Duration
	// SchedulingDelay is the provisioning/scheduling overhead before the
	// run starts.
	SchedulingDelay vtime.Duration
}

// OverheadFraction reports scheduling delay over total occupancy.
func (m MicroBatchJob) OverheadFraction() float64 {
	total := m.Completion + m.SchedulingDelay
	if total == 0 {
		return 0
	}
	return float64(m.SchedulingDelay) / float64(total)
}

// MicroBatchJobs synthesizes n jobs with completion times log-spread over
// 10–1000 s (the paper's reported range) and scheduling overheads of up to
// ~80% of total time for the shortest jobs.
func MicroBatchJobs(seed uint64, n int) []MicroBatchJob {
	rng := stats.NewRNG(seed)
	jobs := make([]MicroBatchJob, n)
	for i := range jobs {
		// completion = 10^(1 + 2u) seconds in [10, 1000].
		u := rng.Float64()
		comp := vtime.Duration(math.Pow(10, 1+2*u) * float64(vtime.Second))
		// Scheduling delay is roughly constant (cluster spin-up dominated):
		// 20–60 s, hitting small jobs hardest — that is Figure 2(b)'s point.
		sched := 20*vtime.Second + vtime.Duration(rng.Int63n(int64(40*vtime.Second)))
		jobs[i] = MicroBatchJob{Completion: comp, SchedulingDelay: sched}
	}
	return jobs
}
