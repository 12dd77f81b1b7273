package main

import (
	"fmt"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

// statsOutputs is how many results the job has produced when Stats is
// called: a few minutes of a busy tenant.
const statsOutputs = 100_000

// probeStatsCall: Engine.Stats on a job with 10^5 recorded outputs — what
// a dashboard poll costs once the recorder has history.
func probeStatsCall(_ time.Duration, add addFunc) error {
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: 1})
	q := cameo.NewQuery("s").LatencyTarget(time.Second).
		Map("id", 1, func(_ time.Duration, k int64, v float64) (int64, float64) { return k, v }).
		Emit("out")
	if err := eng.Submit(q); err != nil {
		return err
	}
	eng.Start()
	defer eng.Stop()
	ev := []cameo.Event{{Value: 1}}
	progress := eng.Now()
	produce := func(n int) error {
		for i := 0; i < n; i++ {
			progress += time.Microsecond
			ev[0].Time = progress
			if err := eng.IngestBatch("s", 0, ev, progress); err != nil {
				return err
			}
		}
		if !eng.Drain(30 * time.Second) {
			return fmt.Errorf("stats probe: engine did not drain")
		}
		return nil
	}
	if err := produce(statsOutputs - 1); err != nil {
		return err
	}
	per := make([]float64, probeReps)
	for i := range per {
		// One more output before every call: a poll that finds nothing new
		// is served from the previous call's sorted sample.
		if err := produce(1); err != nil {
			return err
		}
		start := time.Now()
		st, err := eng.Stats("s")
		if err != nil {
			return err
		}
		per[i] = float64(time.Since(start)) / 1e6
		if st.Outputs != statsOutputs+i {
			return fmt.Errorf("stats probe: %d outputs, want %d", st.Outputs, statsOutputs+i)
		}
	}
	add("metrics.stats_call_ms", "ms", median(per))
	return nil
}
