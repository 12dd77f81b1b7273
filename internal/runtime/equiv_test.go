package runtime_test

// Scheduling-equivalence tests: the same seeded workload is run through
// the deterministic simulator and through a 1-worker real-time engine, and
// the two per-message execution orders must be identical.
//
// Three knobs make wall-clock scheduling bit-comparable to virtual time:
//
//   - testkit.ProgressPolicy derives priorities from logical stream
//     progress only, so measured (nondeterministic) costs never enter a
//     scheduling decision;
//   - the workload is fully enqueued before any execution starts (the
//     simulator feed delivers everything at t=0, the engine is started
//     after ingesting), so arrival interleaving is fixed;
//   - an effectively infinite quantum removes wall-clock yield timing.
//
// What remains is exactly the dispatcher's ordering decisions — which is
// what the test means to pin: the engine's concurrent dispatch path at one
// worker must schedule precisely like the simulator's sequential
// CameoDispatcher, the order reference every engine test pins against.

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/metrics"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/sim"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

const equivTraceLimit = 1 << 16

func equivWorkload() testkit.Workload {
	return testkit.Workload{Seed: 42, Sources: 2, Windows: 8, Tuples: 6, Keys: 8, Win: vtime.Second}
}

// execKey is the identity of one execution: which operator ran which
// message carrying which progress.
type execKey struct {
	Op  string
	Msg int64
	P   vtime.Time
}

func keysOf(events []metrics.ScheduleEvent) []execKey {
	out := make([]execKey, len(events))
	for i, ev := range events {
		out[i] = execKey{Op: ev.Op, Msg: ev.Msg, P: ev.P}
	}
	return out
}

// simOrder is the reference schedule: the equivalence workload on the
// simulator.
func simOrder(t *testing.T) []execKey {
	t.Helper()
	wl := equivWorkload()
	cl := sim.New(sim.Config{
		Nodes: 1, WorkersPerNode: 1,
		Scheduler:  sim.Cameo,
		Policy:     testkit.ProgressPolicy{},
		Quantum:    vtime.Hour, // never yield: ordering is pure dispatcher choice
		End:        10 * vtime.Hour,
		TraceLimit: equivTraceLimit,
	})
	if _, err := cl.AddJob(testkit.AggSpec("eq", wl.Sources, 2, wl.Win, vtime.Second), wl.Feed(nil)); err != nil {
		t.Fatal(err)
	}
	res := cl.Run()
	return keysOf(res.Trace.Events())
}

// runtimeOrder runs the equivalence workload at DrainBatch 1, the exact
// unbatched one-lock-per-pop schedule the simulator's sequential
// dispatcher produces; batch_test.go pins DrainBatch>1 against it.
func runtimeOrder(t *testing.T) []execKey {
	return runtimeOrderBatch(t, 1)
}

func runtimeOrderBatch(t *testing.T, drainBatch int) []execKey {
	return runtimeOrderCfg(t, runtime.Config{
		Policy:     testkit.ProgressPolicy{},
		DrainBatch: drainBatch,
	})
}

// runtimeOrderCfg runs the equivalence workload under cfg's policy and
// drain settings, at one worker with an effectively infinite quantum and a
// strictClock.
func runtimeOrderCfg(t *testing.T, cfg runtime.Config) []execKey {
	t.Helper()
	wl := equivWorkload()
	cfg.Workers, cfg.Quantum, cfg.TraceLimit = 1, vtime.Hour, equivTraceLimit
	e := runtime.New(cfg)
	e.WrapClock(newStrictClock)
	if _, err := e.AddJob(testkit.AggSpec("eq", wl.Sources, 2, wl.Win, vtime.Second)); err != nil {
		t.Fatal(err)
	}
	// Enqueue everything before the worker starts so the schedule is a
	// pure function of priorities, as in the simulator run.
	wl.IngestAll(t, e, "eq")
	e.Start()
	testkit.DrainOrFail(t, e, 10*time.Second)
	e.Stop()
	return keysOf(e.Trace().Events())
}

// strictClock makes the engine clock strictly increasing: the wall clock
// reads in microseconds, so back-to-back ingests can share a reading, and
// arrival-order priorities (which stamp that reading) would then order
// them by a tie-break instead of by arrival. No two reads of a
// strictClock return the same instant.
type strictClock struct {
	inner vtime.Clock
	last  atomic.Int64
}

func newStrictClock(inner vtime.Clock) vtime.Clock { return &strictClock{inner: inner} }

func (c *strictClock) Now() vtime.Time {
	for {
		last := c.last.Load()
		now := max(int64(c.inner.Now()), last+1)
		if c.last.CompareAndSwap(last, now) {
			return vtime.Time(now)
		}
	}
}

func diffOrders(t *testing.T, label string, want, got []execKey) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: executed %d messages, reference executed %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: execution %d diverges: reference %+v, got %+v", label, i, want[i], got[i])
		}
	}
}

func TestSimulatorRuntimeEquivalence(t *testing.T) {
	ref := simOrder(t)
	if len(ref) == 0 {
		t.Fatal("simulator executed nothing")
	}
	diffOrders(t, "sharded vs simulator", ref, runtimeOrder(t))
}

// TestRuntimeEquivalenceAcrossRuns guards against wall-clock
// nondeterminism sneaking back into the progress-driven schedule: two
// independent sharded runs must produce the same order.
func TestRuntimeEquivalenceAcrossRuns(t *testing.T) {
	a := runtimeOrder(t)
	b := runtimeOrder(t)
	diffOrders(t, "sharded run-to-run", a, b)
}
