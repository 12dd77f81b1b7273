package cameo_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

// ExampleNewQuery builds the paper's IPQ1-style query: a keyed windowed
// revenue sum feeding a global per-window total.
func ExampleNewQuery() {
	q := cameo.NewQuery("revenue").
		LatencyTarget(800*time.Millisecond).
		EventTime().
		Sources(4).
		Aggregate("by-campaign", 4, cameo.Window(time.Second), cameo.Sum).
		AggregateGlobal("total", cameo.Window(time.Second), cameo.Sum)
	spec, err := q.Spec()
	fmt.Println(spec.Name, len(spec.Stages), err)
	// Output: revenue 2 <nil>
}

// ExampleNewSimulation evaluates a query on the deterministic virtual-time
// cluster — no real cluster, reproducible results.
func ExampleNewSimulation() {
	simu := cameo.NewSimulation(cameo.SimulationConfig{
		Nodes: 1, WorkersPerNode: 2,
		Scheduler: cameo.SchedulerCameo,
		Duration:  30 * time.Second,
		Seed:      1,
	})
	q := cameo.NewQuery("demo").
		LatencyTarget(800*time.Millisecond).
		Sources(4).
		Aggregate("agg", 2, cameo.Window(time.Second), cameo.Sum).
		AggregateGlobal("total", cameo.Window(time.Second), cameo.Sum)
	if err := simu.Submit(q, cameo.SourceProfile{
		Interval: time.Second, TuplesPerBatch: 100, Keys: 16, Delay: 50 * time.Millisecond,
	}); err != nil {
		panic(err)
	}
	res := simu.Run()
	st := res.Job("demo")
	fmt.Println(st.Outputs > 20, st.SuccessRate == 1)
	// Output: true true
}

// ExampleNewEngine runs a query on the real-time engine and feeds it a few
// event batches.
func ExampleNewEngine() {
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: 2})
	q := cameo.NewQuery("live").
		LatencyTarget(time.Second).
		Sources(1).
		AggregateGlobal("count", cameo.Window(50*time.Millisecond), cameo.Count)
	if err := eng.Submit(q); err != nil {
		panic(err)
	}
	eng.Start()
	defer eng.Stop()

	for w := 1; w <= 5; w++ {
		progress := time.Duration(w) * 50 * time.Millisecond
		events := []cameo.Event{{Time: progress - time.Millisecond, Key: 1, Value: 1}}
		if err := eng.IngestBatch("live", 0, events, progress); err != nil {
			panic(err)
		}
	}
	eng.AdvanceProgress("live", 0, 6*50*time.Millisecond)
	eng.Drain(2 * time.Second)

	st, _ := eng.Stats("live")
	fmt.Println(st.Outputs >= 4)
	// Output: true
}

// ExampleNewSimulation_multitenant is the paper's core claim on the
// deterministic simulator: a latency-sensitive dashboard job shares a
// 2-node cluster with four heavy bulk-analytics tenants. The same workload
// runs under the Orleans-style baseline, FIFO and Cameo, and the
// dashboard's tail latency tells the story.
func ExampleNewSimulation_multitenant() {
	run := func(sched cameo.Scheduler) cameo.JobStats {
		simu := cameo.NewSimulation(cameo.SimulationConfig{
			Nodes: 2, WorkersPerNode: 4,
			Scheduler:    sched,
			NetworkDelay: 2 * time.Millisecond,
			Duration:     60 * time.Second,
			Seed:         42,
		})
		dashboard := cameo.NewQuery("dashboard").
			LatencyTarget(800*time.Millisecond).
			EventTime().
			Sources(8).
			Aggregate("agg", 4, cameo.Window(time.Second), cameo.Sum).
			CostModel(200*time.Microsecond, 2*time.Microsecond).
			AggregateGlobal("report", cameo.Window(time.Second), cameo.Sum).
			CostModel(200*time.Microsecond, 2*time.Microsecond)
		if err := simu.Submit(dashboard, cameo.SourceProfile{
			Interval: time.Second, TuplesPerBatch: 200, Keys: 64, Delay: 50 * time.Millisecond,
		}); err != nil {
			panic(err)
		}
		for i := 0; i < 4; i++ {
			bulk := cameo.NewQuery(fmt.Sprintf("bulk-%d", i)).
				LatencyTarget(2*time.Hour).
				EventTime().
				Sources(8).
				Aggregate("agg", 4, cameo.Window(10*time.Second), cameo.Sum).
				CostModel(300*time.Microsecond, 30*time.Microsecond).
				AggregateGlobal("rollup", cameo.Window(10*time.Second), cameo.Sum).
				CostModel(300*time.Microsecond, 30*time.Microsecond)
			if err := simu.Submit(bulk, cameo.SourceProfile{
				Interval: time.Second, TuplesPerBatch: 6000, Keys: 256, Delay: 50 * time.Millisecond,
			}); err != nil {
				panic(err)
			}
		}
		return simu.Run().Job("dashboard")
	}

	fmt.Println("dashboard latency while sharing the cluster with 4 bulk tenants")
	fmt.Printf("%-10s %10s %10s %10s %8s\n", "scheduler", "p50", "p95", "p99", "SLA met")
	for _, sched := range []cameo.Scheduler{cameo.SchedulerOrleans, cameo.SchedulerFIFO, cameo.SchedulerCameo} {
		st := run(sched)
		fmt.Printf("%-10v %10v %10v %10v %7.1f%%\n",
			sched, st.P50.Round(time.Millisecond), st.P95.Round(time.Millisecond),
			st.P99.Round(time.Millisecond), st.SuccessRate*100)
	}
	// Output:
	// dashboard latency while sharing the cluster with 4 bulk tenants
	// scheduler         p50        p95        p99  SLA met
	// orleans         754ms      754ms      754ms   100.0%
	// fifo            139ms      139ms      188ms   100.0%
	// cameo            47ms       47ms       47ms   100.0%
}

// ExampleTokenFair is proportional fair sharing with the token policy
// (paper §5.4, Figure 6): three tenants with 20%/40%/40% token grants
// ingest at full speed on a saturated single-worker node, and admitted
// throughput splits by token share.
func ExampleTokenFair() {
	policy := cameo.TokenFair(time.Second)
	policy.SetRate("tenant-a", 20)
	policy.SetRate("tenant-b", 40)
	policy.SetRate("tenant-c", 40)

	simu := cameo.NewSimulation(cameo.SimulationConfig{
		Nodes: 1, WorkersPerNode: 1,
		Scheduler: cameo.SchedulerCameo,
		Policy:    policy,
		Duration:  60 * time.Second,
		Seed:      7,
	})

	// Each tenant demands ~60 messages/s at ~10ms each; the worker's
	// capacity (~100 msg/s) equals the aggregate token rate, so admission
	// is token-limited.
	for _, name := range []string{"tenant-a", "tenant-b", "tenant-c"} {
		q := cameo.NewQuery(name).
			LatencyTarget(10*time.Second).
			Sources(4).
			Emit("sink").
			CostModel(10*time.Millisecond, 0)
		if err := simu.Submit(q, cameo.SourceProfile{
			Interval:       66666 * time.Microsecond, // ~15 emissions/s/source
			TuplesPerBatch: 10,
			Keys:           16,
		}); err != nil {
			panic(err)
		}
	}

	res := simu.Run()
	fmt.Println("token fair sharing on a saturated worker (20/40/40 grants)")
	base := float64(res.Job("tenant-a").Outputs)
	for _, name := range []string{"tenant-a", "tenant-b", "tenant-c"} {
		st := res.Job(name)
		fmt.Printf("  %-9s outputs=%5d  share=%.2fx of tenant-a\n",
			name, st.Outputs, float64(st.Outputs)/base)
	}
	fmt.Printf("worker utilization: %.0f%%\n", res.Utilization*100)
	// Output:
	// token fair sharing on a saturated worker (20/40/40 grants)
	//   tenant-a  outputs= 1199  share=1.00x of tenant-a
	//   tenant-b  outputs= 2397  share=2.00x of tenant-a
	//   tenant-c  outputs= 2397  share=2.00x of tenant-a
	// worker utilization: 100%
}

// ExampleSlidingWindow is the paper's IPQ1/IPQ2 ad-revenue dashboard: a
// keyed sliding-window revenue sum (3 s window, 1 s slide) over four
// sources feeds a global per-slide total, with the paper's Group-1 latency
// target of 800 ms. Four sources each offer 25 seeded revenue events (in
// cents) per 250 ms of logical time for 6 s; a trailing Map stage records
// each dashboard refresh's total.
func ExampleSlidingWindow() {
	const (
		sources   = 4
		campaigns = 16
		slide     = time.Second
		window    = 3 * time.Second
		step      = 250 * time.Millisecond
		steps     = 24
	)
	var (
		mu     sync.Mutex
		totals = map[time.Duration]float64{} // refresh window end -> total
	)
	query := cameo.NewQuery("ad-dashboard").
		LatencyTarget(800*time.Millisecond).
		Sources(sources).
		Aggregate("revenue-by-campaign", 4, cameo.SlidingWindow(window, slide), cameo.Sum).
		AggregateGlobal("total-revenue", cameo.Window(slide), cameo.Sum).
		// A refresh is stamped just inside the window it totals.
		Map("record", 1, func(t time.Duration, key int64, cents float64) (int64, float64) {
			mu.Lock()
			totals[(t/slide+1)*slide] += cents
			mu.Unlock()
			return key, cents
		})

	eng := cameo.NewEngine(cameo.EngineConfig{Workers: 4})
	if err := eng.Submit(query); err != nil {
		panic(err)
	}
	eng.Start()
	defer eng.Stop()

	rngs := make([]*rand.Rand, sources)
	for src := range rngs {
		rngs[src] = rand.New(rand.NewSource(int64(7 + src)))
	}
	for s := 1; s <= steps; s++ {
		progress := time.Duration(s) * step
		for src, rng := range rngs {
			events := make([]cameo.Event, 25)
			for i := range events {
				events[i] = cameo.Event{
					Time:  progress - time.Duration(i)*time.Millisecond,
					Key:   int64(rng.Intn(campaigns)),
					Value: float64(rng.Intn(500)), // whole cents: sums are exact in any order
				}
			}
			if err := eng.IngestBatch("ad-dashboard", src, events, progress); err != nil {
				panic(err)
			}
		}
	}
	// Close every window that holds an event.
	for src := 0; src < sources; src++ {
		if err := eng.AdvanceProgress("ad-dashboard", src, steps*step+window); err != nil {
			panic(err)
		}
	}
	if !eng.Drain(5 * time.Second) {
		panic("engine did not drain")
	}

	st, err := eng.Stats("ad-dashboard")
	if err != nil {
		panic(err)
	}
	fmt.Println("dashboard refreshes:", st.Outputs)
	mu.Lock()
	defer mu.Unlock()
	ends := make([]time.Duration, 0, len(totals))
	for end := range totals {
		ends = append(ends, end)
	}
	sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
	for _, end := range ends {
		fmt.Printf("  3s window ending %v: $%.2f\n", end, totals[end]/100)
	}
	// Output:
	// dashboard refreshes: 9
	//   3s window ending 1s: $933.04
	//   3s window ending 2s: $1969.24
	//   3s window ending 3s: $2985.17
	//   3s window ending 4s: $3044.88
	//   3s window ending 5s: $3046.15
	//   3s window ending 6s: $2982.47
	//   3s window ending 7s: $2002.70
	//   3s window ending 8s: $965.23
	//   3s window ending 9s: $12.98
}

// ExampleEngine_Pause is the hot query lifecycle on a live engine: a
// long-lived monitor query streams while ad-hoc queries come and go —
// submitted on the running engine, paused with their backlog retained and
// resumed, or cancelled with their backlog discarded — without stopping
// the workers or perturbing the monitor. This is the paper's
// dynamic-workload setting (§6.4): queries arriving and departing against
// a scheduler that keeps no per-query state to rebuild.
func ExampleEngine_Pause() {
	const window = 50 * time.Millisecond
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: 2})
	feed := func(job string, from, to int) error {
		for w := from; w <= to; w++ {
			progress := time.Duration(w) * window
			events := make([]cameo.Event, 16)
			for i := range events {
				events[i] = cameo.Event{Time: progress - time.Duration(i+1)*time.Millisecond, Key: int64(i % 8), Value: 1}
			}
			if err := eng.IngestBatch(job, 0, events, progress); err != nil {
				return err
			}
		}
		return nil
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}

	// The engine starts with a single long-lived tenant...
	must(eng.Submit(cameo.NewQuery("monitor").
		LatencyTarget(250*time.Millisecond).
		Aggregate("by-key", 2, cameo.Window(window), cameo.Count).
		AggregateGlobal("total", cameo.Window(window), cameo.Sum)))
	eng.Start()
	defer eng.Stop()
	must(feed("monitor", 1, 10))

	// ...and tenants arrive while it runs: Submit on the live engine makes
	// a query immediately ingestible.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("adhoc-%d", i)
		must(eng.Submit(cameo.NewQuery(name).
			LatencyTarget(100*time.Millisecond).
			AggregateGlobal("sum", cameo.Window(window), cameo.Sum)))
		must(feed(name, 1, 5))
		must(feed("monitor", 11+5*i, 15+5*i)) // the monitor never pauses
		switch i {
		case 0:
			// Tenant 0 departs cleanly: drain just this query, then cancel.
			if drained, err := eng.DrainJob(name, 5*time.Second); !drained || err != nil {
				panic(fmt.Sprintf("drain %s: drained=%v err=%v", name, drained, err))
			}
			must(eng.Cancel(name))
			fmt.Printf("%s: drained and cancelled\n", name)
		case 1:
			// Tenant 1 is parked with its backlog retained: new batches are
			// refused, what it already accepted executes on Resume.
			must(feed(name, 6, 8))
			must(eng.Pause(name))
			refused := errors.Is(feed(name, 9, 9), cameo.ErrJobPaused)
			fmt.Printf("%s: paused with backlog, new batch refused: %v\n", name, refused)
		case 2:
			// Tenant 2 is cancelled mid-stream: its backlog is discarded.
			must(eng.Cancel(name))
			fmt.Printf("%s: cancelled mid-stream\n", name)
		}
	}

	// Resume the parked tenant; its retained backlog executes now.
	must(eng.Resume("adhoc-1"))
	must(eng.AdvanceProgress("adhoc-1", 0, 9*window))
	must(eng.AdvanceProgress("monitor", 0, 26*window))
	if !eng.Drain(5 * time.Second) {
		panic("engine did not drain")
	}
	for _, job := range []string{"monitor", "adhoc-1"} {
		st, err := eng.Stats(job)
		must(err)
		fmt.Printf("%s: %d windows\n", job, st.Outputs)
	}
	fmt.Println("conserved:", eng.Created() == eng.Executed()+eng.Discarded())
	// Output:
	// adhoc-0: drained and cancelled
	// adhoc-1: paused with backlog, new batch refused: true
	// adhoc-2: cancelled mid-stream
	// monitor: 25 windows
	// adhoc-1: 8 windows
	// conserved: true
}
