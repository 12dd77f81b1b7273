package workload

import (
	"testing"

	"github.com/cameo-stream/cameo/internal/vtime"
)

func TestConstantRate(t *testing.T) {
	if ConstantRate(7).Tuples(0, nil) != 7 {
		t.Fatal("constant rate")
	}
}

func TestBurstyRate(t *testing.T) {
	b := BurstyRate{Base: 10, Spike: 100, Period: 10 * vtime.Second, Duty: 0.2}
	if got := b.Tuples(vtime.Second, nil); got != 100 {
		t.Fatalf("in-burst Tuples = %d", got)
	}
	if got := b.Tuples(5*vtime.Second, nil); got != 10 {
		t.Fatalf("off-burst Tuples = %d", got)
	}
	// Next period spikes again.
	if got := b.Tuples(11*vtime.Second, nil); got != 100 {
		t.Fatalf("next-period Tuples = %d", got)
	}
}

func TestTraceRate(t *testing.T) {
	tr := TraceRate{Counts: []int{1, 2, 3}, Interval: vtime.Second}
	want := []int{1, 2, 3, 1, 2}
	for i, w := range want {
		if got := tr.Tuples(vtime.Time(i)*vtime.Second, nil); got != w {
			t.Fatalf("TraceRate(%d) = %d, want %d", i, got, w)
		}
	}
	if (TraceRate{}).Tuples(0, nil) != 0 {
		t.Fatal("empty trace should be 0")
	}
}

func TestOnOffRate(t *testing.T) {
	o := OnOffRate{Rate: 5, Start: 10 * vtime.Second, Stop: 20 * vtime.Second}
	if o.Tuples(5*vtime.Second, nil) != 0 || o.Tuples(25*vtime.Second, nil) != 0 {
		t.Fatal("outside window should be 0")
	}
	if o.Tuples(15*vtime.Second, nil) != 5 {
		t.Fatal("inside window should be 5")
	}
}

func TestFeedDeterminism(t *testing.T) {
	mk := func() *Feed {
		return Uniform(42, 2, SourceConfig{
			Interval: vtime.Second, Rate: ConstantRate(10), Keys: 8, End: 10 * vtime.Second,
		})
	}
	a, b := mk(), mk()
	for src := 0; src < 2; src++ {
		for {
			ba, pa, ta, oka := a.Next(src)
			bb, pb, tb, okb := b.Next(src)
			if oka != okb || pa != pb || ta != tb {
				t.Fatal("feeds diverged")
			}
			if !oka {
				break
			}
			if ba.Len() != bb.Len() {
				t.Fatal("batch sizes diverged")
			}
			for i := range ba.Times {
				if ba.Times[i] != bb.Times[i] || ba.Keys[i] != bb.Keys[i] {
					t.Fatal("tuples diverged")
				}
			}
		}
	}
}

func TestFeedProgressInvariants(t *testing.T) {
	f := Uniform(7, 1, SourceConfig{
		Interval: vtime.Second, Rate: ConstantRate(50), Keys: 4,
		Delay: 200 * vtime.Millisecond, End: 30 * vtime.Second,
	})
	var lastP, lastT vtime.Time
	n := 0
	for {
		b, p, tt, ok := f.Next(0)
		if !ok {
			break
		}
		n++
		if p < lastP || tt < lastT {
			t.Fatalf("progress/time regressed: p %v->%v t %v->%v", lastP, p, lastT, tt)
		}
		if p != tt-200*vtime.Millisecond && p != lastP {
			t.Fatalf("event-time progress %v != arrival %v - delay", p, tt)
		}
		for i, tupleT := range b.Times {
			if tupleT > p {
				t.Fatalf("tuple %d time %v exceeds progress %v", i, tupleT, p)
			}
			if tupleT <= lastP {
				t.Fatalf("tuple %d time %v not after previous progress %v", i, tupleT, lastP)
			}
		}
		lastP, lastT = p, tt
	}
	if n != 30 {
		t.Fatalf("emissions = %d, want 30", n)
	}
}

func TestFeedEndsStreams(t *testing.T) {
	f := Uniform(1, 1, SourceConfig{Interval: vtime.Second, Rate: ConstantRate(1), End: 2 * vtime.Second})
	count := 0
	for {
		_, _, _, ok := f.Next(0)
		if !ok {
			break
		}
		count++
	}
	if count != 2 {
		t.Fatalf("emissions = %d, want 2", count)
	}
}

func TestQuerySpecsValidate(t *testing.T) {
	sc := DefaultScale()
	for _, q := range IPQs(sc) {
		if err := q.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", q.Spec.Name, err)
		}
		f := q.Feed(1)
		if f.Sources() != q.Spec.Sources {
			t.Errorf("%s: feed sources %d != spec %d", q.Spec.Name, f.Sources(), q.Spec.Sources)
		}
	}
	ls := LSJob("ls", sc, 800*vtime.Millisecond)
	if err := ls.Spec.Validate(); err != nil {
		t.Error(err)
	}
	ba := BAJob("ba", sc, 2.0, nil)
	if err := ba.Spec.Validate(); err != nil {
		t.Error(err)
	}
	if ba.Spec.Latency != 7200*vtime.Second {
		t.Error("BA latency constraint should be 7200s")
	}
}

func TestPowerLawVolumes(t *testing.T) {
	vols := PowerLawVolumes(3, 1000, 1.1)
	if len(vols) != 1000 {
		t.Fatal("length")
	}
	sum := 0.0
	for i, v := range vols {
		sum += v
		if i > 0 && v > vols[i-1] {
			t.Fatal("not sorted descending")
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("sum = %v", sum)
	}
	// Paper Fig 2(a): a small fraction of streams carries the majority of
	// the data.
	top10 := CumulativeShare(vols, 0.10)
	if top10 < 0.5 {
		t.Fatalf("top 10%% share = %v, want heavy concentration", top10)
	}
}

func TestSynthesizeHeatmap(t *testing.T) {
	h := SynthesizeHeatmap(11, 20, 100, vtime.Second)
	if h.Sources != 20 || len(h.Counts) != 20 || len(h.Counts[0]) != 100 {
		t.Fatal("shape")
	}
	if h.TotalTuples() == 0 {
		t.Fatal("empty heatmap")
	}
	// Variability: some idle cells and some spikes across the map.
	idle, spikes := 0, 0
	for _, row := range h.Counts {
		base := 1 << 62
		for _, c := range row {
			if c > 0 && c < base {
				base = c
			}
		}
		for _, c := range row {
			if c == 0 {
				idle++
			}
			if base > 0 && c >= 5*base {
				spikes++
			}
		}
	}
	if idle == 0 {
		t.Error("no idle periods generated")
	}
	if spikes == 0 {
		t.Error("no spikes generated")
	}
}

func TestSkewedRates(t *testing.T) {
	rates := SkewedRates(5, 16, 16000, 200)
	if len(rates) != 16 {
		t.Fatal("length")
	}
	min, max, total := rates[0], rates[0], 0
	for _, r := range rates {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
		total += r
	}
	if min <= 0 {
		t.Fatalf("min rate %d", min)
	}
	ratio := float64(max) / float64(min)
	if ratio < 100 || ratio > 400 {
		t.Fatalf("skew ratio = %v, want ~200", ratio)
	}
	if total != 16000 {
		t.Fatalf("total = %d, want exactly 16000 (largest-remainder apportionment)", total)
	}
}

func TestMicroBatchJobs(t *testing.T) {
	jobs := MicroBatchJobs(9, 500)
	maxOverhead := 0.0
	for _, j := range jobs {
		if j.Completion < 10*vtime.Second || j.Completion > 1000*vtime.Second {
			t.Fatalf("completion %v out of paper range", j.Completion)
		}
		if f := j.OverheadFraction(); f > maxOverhead {
			maxOverhead = f
		}
	}
	// Paper Fig 2(b): overheads as high as 80%.
	if maxOverhead < 0.5 || maxOverhead > 0.9 {
		t.Fatalf("max overhead fraction = %v, want ~0.8", maxOverhead)
	}
}
