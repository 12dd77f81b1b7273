package cameo_test

import (
	"fmt"
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
