package main

import (
	"fmt"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

// tick is the generator's pacing grain: every scheduled batch is due on a
// whole tick of the engine clock.
const tick = time.Millisecond

// warmup runs before the measured phase so pools, cost profiles and the
// Go heap reach steady state; its windows are checked but not timed.
const warmup = 2 * time.Second

// Tenant classes: lat_p50_ms / lat_p99_ms are taken over classLS only, so
// a workload with a bulk class still reports what its latency-sensitive
// tenants see. deadline_met_frac covers both.
const (
	classLS = iota
	classBulk
)

// spike multiplies a group's rate for length out of every period; the
// offset of the spike inside the period comes from the seed.
type spike struct {
	every, length time.Duration
	mult          int
}

// group is a set of identical tenants. Each tenant has sources streams;
// every stream sends num/den batches of batch tuples per tick.
type group struct {
	prefix     string
	tenants    int
	class      int
	target     time.Duration
	window     time.Duration
	sources    int
	maxPending int
	batch      int
	num, den   int
	spike      *spike
	keys       int64
	// stages appends the tenant's operators up to and including its
	// AggregateGlobal; the bench adds the probe and the sink after it.
	stages func(q *cameo.Query, w cameo.WindowSpec) *cameo.Query
}

type workload struct {
	name string
	// closed: generators offer with TryIngestBatch as fast as batches are
	// admitted, instead of walking the tick schedule.
	closed bool
	// wire: batches cross a loopback socket (Engine.Serve + Dial), one
	// connection per generator.
	wire   bool
	groups []group
}

// burnIters sizes the per-tuple spin of mt_spike's bulk tenants so they
// are execution-bound: ~1.8 µs per bulk tuple all told on the builder box,
// which puts the two workers at about 20 % between spikes and 155 % in one.
const burnIters = 800

func burn(_ time.Duration, k int64, v float64) (int64, float64) {
	x := uint64(k) | 1
	for i := 0; i < burnIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 { // never: xorshift has no zero state; keeps the loop live
		v++
	}
	return k, v
}

func globalOnly(q *cameo.Query, w cameo.WindowSpec) *cameo.Query {
	return q.AggregateGlobal("total", w, cameo.Sum)
}

func keyedThenGlobal(q *cameo.Query, w cameo.WindowSpec) *cameo.Query {
	return q.Aggregate("by-key", 2, w, cameo.Sum).AggregateGlobal("total", w, cameo.Sum)
}

func burnThenGlobal(q *cameo.Query, w cameo.WindowSpec) *cameo.Query {
	return q.Map("burn", 2, burn).AggregateGlobal("total", w, cameo.Sum)
}

// workloads returns the four workloads at 1/slow of their rate (slow = 1
// is the benchmark; the smoke tests use 10). Rates are absolute: they were
// sized once on the 2-vCPU builder box against the saturate figure, see
// README.md.
func workloads(slow int) []workload {
	return []workload{
		{
			name: "net_trickle", wire: true,
			groups: []group{{
				prefix: "t", tenants: 4, class: classLS,
				target: 50 * time.Millisecond, window: 50 * time.Millisecond,
				sources: 2, batch: 4, num: 4, den: slow, keys: 64,
				stages: globalOnly,
			}},
		},
		{
			name: "mt_spike",
			groups: []group{{
				prefix: "ls", tenants: 4, class: classLS,
				target: 20 * time.Millisecond, window: 20 * time.Millisecond,
				sources: 2, batch: 8, num: 1, den: slow, keys: 64,
				stages: keyedThenGlobal,
			}, {
				// One source each: a stateless first stage forwards each
				// source's progress unmerged, so with two sources the
				// window stage behind it sees progress move backwards and
				// the engine quarantines the query.
				prefix: "bulk", tenants: 4, class: classBulk,
				target: 2 * time.Second, window: 500 * time.Millisecond,
				sources: 1, batch: 256, num: 1, den: 5 * slow, keys: 1024,
				spike:  &spike{every: 2 * time.Second, length: 300 * time.Millisecond, mult: 8},
				stages: burnThenGlobal,
			}},
		},
		{
			name: "many_tenants",
			groups: []group{{
				prefix: "fast", tenants: 256, class: classLS,
				target: 50 * time.Millisecond, window: 200 * time.Millisecond,
				sources: 1, batch: 4, num: 1, den: 16 * slow, keys: 16,
				stages: keyedThenGlobal,
			}, {
				prefix: "slow", tenants: 256, class: classBulk,
				target: 500 * time.Millisecond, window: 200 * time.Millisecond,
				sources: 1, batch: 4, num: 1, den: 16 * slow, keys: 16,
				stages: keyedThenGlobal,
			}},
		},
		{
			name: "saturate", closed: true,
			groups: []group{{
				prefix: "t", tenants: 4, class: classLS,
				target: 100 * time.Millisecond, window: 50 * time.Millisecond,
				sources: 2, maxPending: 1024, batch: 8, keys: 64,
				stages: keyedThenGlobal,
			}},
		},
	}
}

func findWorkload(name string, slow int) (workload, error) {
	for _, w := range workloads(slow) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tenant is one submitted query and what the bench knows about it.
type tenant struct {
	name  string
	g     *group
	first int // index of its first stream in plan.streams
	// base and firstWin are set by plan.arm before the first batch is
	// offered: wall-clock origin and index of the first planned window.
	base     time.Time
	firstWin int64
	// results[i] is written by the tenant's probe operator (parallelism 1,
	// so one writer) and read only after Engine.Stop.
	results []result
	extra   int // probe calls outside the planned window range
}

// result is what the probe saw for one window.
type result struct {
	at    int64 // wall ns since plan.base of the first probe call; 0 = none
	value float64
	calls int32
}

// query builds the tenant's query: its stages, then the bench-owned probe
// and sink. The probe is the only place a result is observed.
func (t *tenant) query() *cameo.Query {
	g := t.g
	q := cameo.NewQuery(t.name).Sources(g.sources).LatencyTarget(g.target)
	if g.maxPending > 0 {
		q = q.MaxPending(g.maxPending)
	}
	q = g.stages(q, cameo.Window(g.window))
	win := int64(g.window)
	return q.Map("probe", 1, func(at time.Duration, k int64, v float64) (int64, float64) {
		// A window's result tuple is stamped just inside its end.
		i := int64(at)/win - t.firstWin
		if i < 0 || i >= int64(len(t.results)) {
			t.extra++
			return k, v
		}
		r := &t.results[i]
		if r.calls == 0 {
			r.at = int64(time.Since(t.base))
			r.value = v
		}
		r.calls++
		return k, v
	}).Emit("out")
}
