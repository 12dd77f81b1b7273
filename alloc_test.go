package cameo_test

// Public-API allocation-regression gate (ISSUE 10 satellite): the
// runtime-level gates in internal/runtime pin the engine's internal
// window cycle, but the public cameo.Engine.IngestBatch path used to add
// one batch allocation per call (renderBatch built a fresh
// dataflow.Batch every time). Rendering now leases from the engine's
// batch pool, so the whole public ingest→schedule→execute→drain cycle
// must hold the same budget as the internal one.

import (
	"runtime/debug"
	"testing"
	"time"

	cameo "github.com/cameo-stream/cameo"
	"github.com/cameo-stream/cameo/internal/testkit"
)

// maxAllocsPerPublicWindowCycle mirrors the internal gate's budget: the
// steady state measures 0 allocations per window cycle here (14 while the
// aggregation handlers kept their windows in Go maps); 8 leaves the
// internal gate's allocator-jitter headroom while failing if per-message
// allocation (~21 messages per cycle) or per-tuple rendering returns. One
// allocation per IngestBatch call (4 per cycle) would fit inside it.
const maxAllocsPerPublicWindowCycle = 8.0

func TestAllocsEngineSteadyStatePublicAPI(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const sources, warm, runs, tuples = 4, 60, 80, 4
	win := 10 * time.Millisecond
	e := cameo.NewEngine(cameo.EngineConfig{Workers: 1})
	q := cameo.NewQuery("j").
		Sources(sources).
		LatencyTarget(100*time.Millisecond).
		Aggregate("agg", 4, cameo.Window(win), cameo.Sum).
		AggregateGlobal("total", cameo.Window(win), cameo.Sum)
	if err := e.Submit(q); err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	// Pre-render every window's events so the measured cycle is exactly
	// the public ingest path: Event→batch rendering, admission, source
	// fan-out, execution, drain.
	windows := warm + runs + 2
	events := make([][][]cameo.Event, windows+1)
	for w := 1; w <= windows; w++ {
		events[w] = make([][]cameo.Event, sources)
		base := time.Duration(w-1) * win
		for src := 0; src < sources; src++ {
			evs := make([]cameo.Event, tuples)
			for i := range evs {
				evs[i] = cameo.Event{
					Time:  base + time.Duration(i)*(win/(tuples+1)),
					Key:   int64((src*tuples + i) % 16),
					Value: float64(i),
				}
			}
			events[w][src] = evs
		}
	}
	w := 0
	cycle := func() {
		w++
		progress := time.Duration(w) * win
		for src := 0; src < sources; src++ {
			if err := e.IngestBatch("j", src, events[w][src], progress); err != nil {
				t.Fatal(err)
			}
		}
		if !e.Drain(10 * time.Second) {
			t.Fatal("engine did not drain")
		}
	}
	for i := 0; i < warm; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(runs, cycle)
	t.Logf("%.2f allocs per public-API window cycle (%d IngestBatch calls)", allocs, sources)
	if allocs > maxAllocsPerPublicWindowCycle {
		t.Errorf("steady-state public-API window cycle allocates %.1f times, budget %.0f — IngestBatch rendering allocates again",
			allocs, maxAllocsPerPublicWindowCycle)
	}
}
