package main

import (
	"fmt"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

// probeCheckpoint: Engine.Checkpoint of a tenant holding 4096 keys in an
// open window: time for the pause-snapshot-resume cut, and its size.
func probeCheckpoint(_ time.Duration, add addFunc) error {
	const keys = 4096
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: 1})
	q := cameo.NewQuery("ckpt").LatencyTarget(time.Second).
		Aggregate("by-key", 1, cameo.Window(time.Hour), cameo.Sum).
		AggregateGlobal("total", cameo.Window(time.Hour), cameo.Sum)
	if err := eng.Submit(q); err != nil {
		return err
	}
	eng.Start()
	defer eng.Stop()
	evs := make([]cameo.Event, keys)
	now := eng.Now()
	for i := range evs {
		evs[i] = cameo.Event{Time: now, Key: int64(i), Value: 1}
	}
	if err := eng.IngestBatch("ckpt", 0, evs, now); err != nil {
		return err
	}
	if !eng.Drain(30 * time.Second) {
		return fmt.Errorf("checkpoint probe: engine did not drain")
	}
	per := make([]float64, probeReps)
	size := 0
	for i := range per {
		start := time.Now()
		b, err := eng.Checkpoint("ckpt")
		if err != nil {
			return err
		}
		per[i] = float64(time.Since(start)) / 1e6
		size = len(b)
	}
	add("runtime.checkpoint_ms", "ms", median(per))
	add("runtime.checkpoint_kb", "KiB", float64(size)/1024)
	return nil
}
