package metrics

import (
	"math"
	"sync"
	"testing"

	"github.com/cameo-stream/cameo/internal/stats"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// TestHistogramLayout: the buckets tile [0, 2^40) without gaps or overlap,
// every bucket at or above 16 µs is at most 1/8 as wide as its smallest
// value, and histBucket maps both ends of each bucket back to it.
func TestHistogramLayout(t *testing.T) {
	next := int64(0)
	for i := 0; i < histBuckets; i++ {
		lo, width := histBucketRange(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, next)
		}
		if lo >= histExact && width*histSub > lo {
			t.Fatalf("bucket %d [%d, +%d) is wider than 1/%d of its values", i, lo, width, histSub)
		}
		if histBucket(lo) != i || histBucket(lo+width-1) != i {
			t.Fatalf("bucket %d [%d, +%d) maps back to %d and %d", i, lo, width,
				histBucket(lo), histBucket(lo+width-1))
		}
		next = lo + width
	}
	if next != histMax+1 {
		t.Fatalf("buckets end at %d, want 2^%d", next, histMaxBits)
	}
}

// histCase is one input population for the property test; values are
// latencies in microseconds.
type histCase struct {
	name       string
	constraint vtime.Duration
	values     func(rng *stats.RNG) []int64
}

func histCases() []histCase {
	return []histCase{
		{"edges", 100, func(*stats.RNG) []int64 {
			vs := []int64{0, 1, 15, 16, 17, -1, -1000, math.MinInt64,
				histMax, histMax + 1, 1 << 50, math.MaxInt64}
			for k := 1; k < 62; k++ {
				vs = append(vs, 1<<k-1, 1<<k, 1<<k+1)
			}
			return vs
		}},
		{"below-16", 7, func(rng *stats.RNG) []int64 {
			vs := make([]int64, 500)
			for i := range vs {
				vs[i] = int64(rng.Intn(20)) - 4 // negatives clamp to 0
			}
			return vs
		}},
		{"single", 5, func(*stats.RNG) []int64 { return []int64{12345} }},
		{"constant", 1000, func(*stats.RNG) []int64 {
			vs := make([]int64, 300)
			for i := range vs {
				vs[i] = 999
			}
			return vs
		}},
		{"uniform-ms", 20 * vtime.Millisecond, func(rng *stats.RNG) []int64 {
			vs := make([]int64, 5000)
			for i := range vs {
				vs[i] = rng.Int63n(int64(40 * vtime.Millisecond))
			}
			return vs
		}},
		{"exponential", 5 * vtime.Millisecond, func(rng *stats.RNG) []int64 {
			vs := make([]int64, 5000)
			for i := range vs {
				vs[i] = int64(rng.Exp(1.0 / 3000))
			}
			return vs
		}},
		{"pareto", vtime.Second, func(rng *stats.RNG) []int64 {
			vs := make([]int64, 5000)
			for i := range vs {
				vs[i] = int64(math.Min(rng.Pareto(50, 0.8), 1e17))
			}
			return vs
		}},
		{"sparse", 50, func(rng *stats.RNG) []int64 {
			return []int64{3, 40, 41, 9000, 1 << 33}
		}},
	}
}

// TestHistogramMatchesSample is the property test against the exact
// sample: on seeded populations spanning the exact range, every power of
// two and both clamps, the count and success rate are exact and every
// quantile lies within one bucket (the width of the exact value's bucket)
// of stats.Sample's. Values clamp to [0, 2^40) before the comparison;
// the success rate is judged on the raw values.
func TestHistogramMatchesSample(t *testing.T) {
	qs := []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, tc := range histCases() {
			vs := tc.values(stats.NewRNG(seed))
			js := NewRecorder().DeclareJob(tc.name, tc.constraint)
			exact := stats.NewSample(len(vs))
			met := 0
			for _, v := range vs {
				js.Record(Output{Job: tc.name, Emitted: vtime.Time(v)})
				exact.Add(float64(min(max(v, 0), histMax)))
				if vtime.Duration(v) <= tc.constraint {
					met++
				}
			}
			if js.Count() != int64(len(vs)) {
				t.Fatalf("%s/seed %d: count %d, want %d", tc.name, seed, js.Count(), len(vs))
			}
			if want := float64(met) / float64(len(vs)); js.SuccessRate() != want {
				t.Fatalf("%s/seed %d: success rate %v, want %v", tc.name, seed, js.SuccessRate(), want)
			}
			for _, q := range qs {
				x, h := exact.Quantile(q), js.Quantile(q)
				_, width := histBucketRange(histBucket(int64(x)))
				if math.Abs(h-x) > float64(width) {
					t.Errorf("%s/seed %d: q%v = %v, exact %v: more than one bucket (%d) apart",
						tc.name, seed, q, h, x, width)
				}
				if exact.Max() < histExact && h != x {
					t.Errorf("%s/seed %d: q%v = %v, exact %v: not exact below %d µs",
						tc.name, seed, q, h, x, histExact)
				}
			}
		}
	}
}

func TestHistogramQuantilePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":        func() { NewRecorder().DeclareJob("j", 1).Quantile(0.5) },
		"out of range": func() { new(latencyHistogram).Quantile(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestJobStatsConcurrentRecord: eight goroutines record into one entry
// (run it under -race); the count, the met count and the histogram's
// total are exact.
func TestJobStatsConcurrentRecord(t *testing.T) {
	const goroutines, per = 8, 2000
	js := NewRecorder().DeclareJob("j", 1000)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Half the outputs meet the 1000 µs constraint.
				js.Record(Output{Job: "j", Emitted: vtime.Time(i % 2 * 2000)})
			}
		}()
	}
	wg.Wait()
	if n := js.Count(); n != goroutines*per {
		t.Fatalf("count %d, want %d", n, goroutines*per)
	}
	if m := js.met.Load(); m != goroutines*per/2 {
		t.Fatalf("met %d, want %d", m, goroutines*per/2)
	}
	var total uint64
	for i := range js.hist.counts {
		total += js.hist.counts[i].Load()
	}
	if total != goroutines*per {
		t.Fatalf("histogram holds %d values, want %d", total, goroutines*per)
	}
}

// TestAllocsJobStatsRecord: recording on a recorder without history
// allocates nothing, so the engine's recorder memory is constant in run
// length.
func TestAllocsJobStatsRecord(t *testing.T) {
	js := NewRecorder().DeclareJob("j", vtime.Millisecond)
	var i int64
	if allocs := testing.AllocsPerRun(1000, func() {
		i++
		js.Record(Output{Job: "j", Ready: 0, Emitted: vtime.Time(i * 37), Window: i})
	}); allocs != 0 {
		t.Fatalf("JobStats.Record allocates %.1f times, want 0", allocs)
	}
}
