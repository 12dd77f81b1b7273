package main

import (
	"time"

	cameo "github.com/cameo-stream/cameo"
)

// probeSim: the public Simulation on a fixed two-tenant spec, simulated
// messages per wall second. It moves none of the wall-clock metrics; it
// bounds how long the repo's simulator-backed tests take.
func probeSim(_ time.Duration, add addFunc) error {
	per := make([]float64, probeReps)
	for i := range per {
		s := cameo.NewSimulation(cameo.SimulationConfig{
			Nodes: 1, WorkersPerNode: 2, Duration: 2 * time.Second, Seed: 1,
		})
		for _, t := range []struct {
			name   string
			target time.Duration
			batch  int
		}{{"tight", 100 * time.Millisecond, 16}, {"lax", 2 * time.Second, 256}} {
			q := cameo.NewQuery(t.name).Sources(4).LatencyTarget(t.target).
				Aggregate("by-key", 2, cameo.Window(100*time.Millisecond), cameo.Sum).
				AggregateGlobal("total", cameo.Window(100*time.Millisecond), cameo.Sum)
			src := cameo.SourceProfile{Interval: 5 * time.Millisecond, TuplesPerBatch: t.batch, Keys: 64}
			if err := s.Submit(q, src); err != nil {
				return err
			}
		}
		start := time.Now()
		res := s.Run()
		per[i] = float64(res.Messages) / time.Since(start).Seconds()
	}
	add("sim.msgs_per_s", "1/s", median(per))
	return nil
}
