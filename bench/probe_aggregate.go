package main

import (
	"fmt"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

// probeAggregate: a one-worker engine fed 4096-tuple batches through a
// keyed and a global aggregation, so execution dominates scheduling:
// wall time per tuple from first ingest to drained. Batches are stamped as
// the workloads stamp theirs (gen.go, "How batches are stamped"): event
// time moves 1 ms a batch, progress in whole windows. With progress moving
// per batch, a stretch in which a batch took the box over a millisecond put
// the wall clock ahead of it, a late batch overtook its channel, and the
// engine quarantined the job: one traced run in some dozens failed on it.
func probeAggregate(budget time.Duration, add addFunc) error {
	const tuples, window = 4096, 10 * time.Millisecond
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: 1})
	q := cameo.NewQuery("agg").LatencyTarget(time.Second).
		Aggregate("by-key", 1, cameo.Window(window), cameo.Sum).
		AggregateGlobal("total", cameo.Window(window), cameo.Sum)
	if err := eng.Submit(q); err != nil {
		return err
	}
	eng.Start()
	defer eng.Stop()
	evs := make([]cameo.Event, tuples)
	at := eng.Now()
	var perr error
	ns := nsPerOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			at += time.Millisecond
			for k := range evs {
				evs[k] = cameo.Event{Time: at, Key: int64(k % 256), Value: 1}
			}
			if err := eng.IngestBatch("agg", 0, evs, at/window*window); err != nil {
				perr = err
				return
			}
			// A pending batch holds 100 KB; the worker, not the memory
			// an unbounded backlog would take, is what is timed.
			for eng.Pending() > 64 {
				pause(50 * time.Microsecond)
			}
		}
		if !eng.Drain(30 * time.Second) {
			perr = fmt.Errorf("agg probe: engine did not drain")
		}
	})
	if perr != nil {
		return perr
	}
	add("operators.agg_ns_per_tuple", "ns", ns/tuples)
	return nil
}
