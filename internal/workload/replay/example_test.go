package replay_test

import (
	"fmt"

	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/workload"
	"github.com/cameo-stream/cameo/internal/workload/replay"
)

// capacitySpec is the hypothesis under test: an interactive tenant with
// Poisson arrivals and an 80 ms deadline sharing the engine with a spiky
// bulk tenant that may lose up to 10% of its load but must finish within
// 1 s.
func capacitySpec(workers int) *workload.Spec {
	return &workload.Spec{
		Name:       "capacity-question",
		Seed:       7,
		DurationUS: 10 * vtime.Second,
		Workers:    workers,
		Tenants: []workload.TenantSpec{
			{
				Name:       "interactive",
				Sources:    4,
				IntervalUS: 10 * vtime.Millisecond,
				Arrival:    workload.ArrivalSpec{Kind: "poisson", Rate: 400},
				Keys:       64,
				FanOut:     4,
				WindowUS:   50 * vtime.Millisecond,
				Spread:     true,
				SLO:        workload.SLOSpec{DeadlineUS: 80 * vtime.Millisecond},
			},
			{
				Name:       "bulk",
				Sources:    2,
				IntervalUS: 10 * vtime.Millisecond,
				Arrival: workload.ArrivalSpec{
					Kind: "bursty", Rate: 400, Spike: 4000,
					PeriodUS: 500 * vtime.Millisecond, Duty: 0.2,
					Jitter: 0.3,
				},
				Keys:     128,
				FanOut:   4,
				WindowUS: 200 * vtime.Millisecond,
				SLO:      workload.SLOSpec{DeadlineUS: vtime.Second, MaxShedFrac: 0.1},
			},
		},
	}
}

// ExampleSim is capacity planning with the replay harness: "how many
// workers do these two tenants need to meet their SLOs?" The question is
// a workload.Spec — per-tenant arrival processes, dataflow shape and SLO
// targets (a deadline plus a shed budget) — answered by replaying the same
// seeded spec on the virtual-time simulator at increasing worker counts
// until every tenant passes. The replay is deterministic, so the crossover
// worker count is a stable fact about the workload, not a flaky
// measurement. cmd/cameo-replay -mode runtime confirms such an answer on
// the real-time engine.
func ExampleSim() {
	fmt.Println("capacity question: workers needed for both tenants' SLOs?")
	fmt.Println()
	for workers := 1; workers <= 4; workers++ {
		v, err := replay.Sim(capacitySpec(workers))
		if err != nil {
			panic(err)
		}
		fmt.Printf("workers=%d:\n", workers)
		for _, t := range v.Tenants {
			status := "PASS"
			if !t.Pass {
				status = "FAIL"
			}
			fmt.Printf("  [%s] %-12s p99 %8.1fms (deadline %5.0fms)  shed %.1f%%\n",
				status, t.Tenant, t.P99MS, t.DeadlineMS, t.ShedFrac*100)
		}
		if v.Pass {
			fmt.Printf("\nanswer: %d workers\n", workers)
			return
		}
	}
	fmt.Println("\nno worker count up to 4 satisfies the SLOs; revise the spec")
	// Output:
	// capacity question: workers needed for both tenants' SLOs?
	//
	// workers=1:
	//   [FAIL] interactive  p99   2228.2ms (deadline    80ms)  shed 0.0%
	//   [FAIL] bulk         p99   3276.8ms (deadline  1000ms)  shed 0.0%
	// workers=2:
	//   [PASS] interactive  p99      4.4ms (deadline    80ms)  shed 0.0%
	//   [PASS] bulk         p99     47.2ms (deadline  1000ms)  shed 0.0%
	//
	// answer: 2 workers
}
