// cameo-sim runs ad-hoc multi-tenant simulations from flags: a configurable
// mix of latency-sensitive and bulk-analytics jobs on a virtual cluster,
// under any of the three schedulers. It is the quickest way to explore
// regimes the paper doesn't sweep.
//
// Example:
//
//	cameo-sim -scheduler cameo -nodes 4 -workers 4 -ls 4 -ba 8 -ba-rate 30 -duration 60s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/sim"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/workload"
)

func main() {
	var (
		scheduler = flag.String("scheduler", "cameo", "scheduler: cameo, orleans, or fifo")
		policy    = flag.String("policy", "llf", "cameo policy: llf, edf, or sjf")
		nodes     = flag.Int("nodes", 4, "cluster nodes")
		workers   = flag.Int("workers", 4, "workers per node")
		nLS       = flag.Int("ls", 4, "latency-sensitive jobs (1s windows, 800ms target)")
		nBA       = flag.Int("ba", 8, "bulk-analytics jobs (10s windows, lax target)")
		baRate    = flag.Float64("ba-rate", 15, "BA ingestion volume multiplier")
		sources   = flag.Int("sources", 8, "source channels per job")
		duration  = flag.Duration("duration", 60*time.Second, "simulated horizon")
		seed      = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	var kind sim.SchedulerKind
	switch *scheduler {
	case "cameo":
		kind = sim.Cameo
	case "orleans":
		kind = sim.Orleans
	case "fifo":
		kind = sim.FIFO
	default:
		fmt.Fprintf(os.Stderr, "unknown scheduler %q\n", *scheduler)
		os.Exit(2)
	}
	var pol core.Policy
	switch *policy {
	case "llf":
		pol = &core.DeadlinePolicy{Kind: core.KindLLF}
	case "edf":
		pol = &core.DeadlinePolicy{Kind: core.KindEDF}
	case "sjf":
		pol = &core.DeadlinePolicy{Kind: core.KindSJF}
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}
	if kind != sim.Cameo {
		pol = nil // baselines ignore priorities
	}

	horizon := vtime.FromStd(*duration)
	c := sim.New(sim.Config{
		Nodes: *nodes, WorkersPerNode: *workers,
		Scheduler: kind, Policy: pol,
		SwitchCost:   10 * vtime.Microsecond,
		NetworkDelay: 2 * vtime.Millisecond,
		End:          horizon + 5*vtime.Second,
	})
	sc := workload.Scale{
		Sources: *sources, TuplesPerMsg: 200, Horizon: horizon,
		Spread: true, Jitter: 0.5,
	}
	for i := 0; i < *nLS; i++ {
		q := workload.LSJob(fmt.Sprintf("ls-%d", i), sc, 800*vtime.Millisecond)
		must(c, q, *seed+uint64(i))
	}
	for i := 0; i < *nBA; i++ {
		q := workload.BAJob(fmt.Sprintf("ba-%d", i), sc, *baRate, nil)
		must(c, q, *seed+100+uint64(i))
	}

	res := c.Run()
	fmt.Printf("scheduler=%v policy=%v nodes=%d workers/node=%d utilization=%.1f%% messages=%d\n\n",
		kind, *policy, *nodes, *workers, res.Utilization*100, res.Messages)
	fmt.Printf("%-8s %10s %10s %10s %10s %9s\n", "job", "outputs", "p50(ms)", "p95(ms)", "p99(ms)", "success")
	for _, js := range res.Recorder.Jobs() {
		if js.Count() == 0 {
			fmt.Printf("%-8s %10d %10s %10s %10s %9s\n", js.Job, 0, "-", "-", "-", "-")
			continue
		}
		fmt.Printf("%-8s %10d %10.2f %10.2f %10.2f %8.1f%%\n",
			js.Job, js.Count(),
			js.Quantile(0.5)/1000,
			js.Quantile(0.95)/1000,
			js.Quantile(0.99)/1000,
			js.SuccessRate()*100)
	}
}

func must(c *sim.Cluster, q workload.Query, seed uint64) {
	if _, err := c.AddJob(q.Spec, q.Feed(seed)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
