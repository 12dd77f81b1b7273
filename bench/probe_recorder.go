package main

import (
	"sync"
	"time"

	"github.com/cameo-stream/cameo/internal/metrics"
)

// recorderOps is fixed rather than sized to the budget: the recorder keeps
// every output, so an open-ended loop would measure the allocator.
const recorderOps = 100_000

// probeRecorder: Recorder.Record from one goroutine and from two at once,
// each on a fresh recorder, ns per call.
func probeRecorder(_ time.Duration, add addFunc) error {
	for _, c := range []struct {
		name string
		g    int
	}{{"metrics.record_ns", 1}, {"metrics.record_ns_c2", 2}} {
		per := make([]float64, probeReps)
		for i := range per {
			r := metrics.NewRecorder()
			r.DeclareJob("a", 50_000)
			r.DeclareJob("b", 50_000)
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < c.g; g++ {
				wg.Add(1)
				go func(job string) {
					defer wg.Done()
					for k := 0; k < recorderOps/c.g; k++ {
						r.Record(metrics.Output{Job: job, Ready: 1_000, Emitted: 1_000 + 7, Window: int64(k)})
					}
				}([]string{"a", "b"}[g])
			}
			wg.Wait()
			per[i] = float64(time.Since(start)) / recorderOps
		}
		add(c.name, "ns", median(per))
	}
	return nil
}
