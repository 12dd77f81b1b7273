package runtime_test

// Engine-level allocation-regression harness (the CI alloc gate runs
// these): testing.AllocsPerRun over a full ingest→schedule→execute→drain
// window cycle, with GC pinned off so sync.Pool backstops are not cleared
// mid-measurement. The budget asserts the zero-allocation hot-path work
// stays done: before message/batch pooling and intrusive scheduling state
// the same cycle cost several allocations *per message*; pooled, and with
// the aggregation handlers' windows recycling one flat table each, the
// whole multi-message cycle reads 0–4 (amortized growth, not per
// message).

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// maxAllocsPerWindowCycle budgets one window cycle: 4 source ingests →
// 16 stage-0 messages + 5 derived messages, executed and drained. The
// steady state measures 0–4 allocations (amortized growth of engine
// buffers; a window opens on its operator's spare table); 8 leaves
// headroom for allocator jitter while failing if one allocation per
// derived message, or the aggregation handlers' old map churn (14–15 per
// cycle), returns.
const maxAllocsPerWindowCycle = 8.0

func TestAllocsEngineSteadyState(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	t.Run("sharded", func(t *testing.T) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const sources, warm, runs = 4, 60, 80
		win := 10 * vtime.Millisecond
		e := runtime.New(runtime.Config{Workers: 1})
		if _, err := e.AddJob(testkit.AggSpec("j", sources, 4, win, 100*vtime.Millisecond)); err != nil {
			t.Fatal(err)
		}
		e.Start()
		defer e.Stop()

		// Pre-render every batch so the measured cycle is pure engine
		// work, then run enough warm-up windows to grow pools, heaps,
		// rings, and the handlers' window state to steady state.
		wl := testkit.Workload{Seed: 9, Sources: sources, Windows: warm + runs + 2, Tuples: 4, Keys: 16, Win: win}
		batches := make([][]*dataflow.Batch, wl.Windows+1)
		for w := 1; w <= wl.Windows; w++ {
			batches[w] = make([]*dataflow.Batch, sources)
			for src := 0; src < sources; src++ {
				batches[w][src] = wl.Batch(src, w)
			}
		}
		w := 0
		cycle := func() {
			w++
			for src := 0; src < sources; src++ {
				if err := e.Ingest("j", src, batches[w][src], wl.Progress(w)); err != nil {
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
		t.Logf("%.2f allocs per window cycle (~21 messages)", allocs)
		if allocs > maxAllocsPerWindowCycle {
			t.Errorf("steady-state window cycle allocates %.1f times, budget %.0f — the zero-allocation hot path has regressed",
				allocs, maxAllocsPerWindowCycle)
		}
	})
}

// TestAllocsCoalescedIngest pins the coalesced ingest at zero allocations:
// on an engine not yet started, every ingest after a window's first finds
// both channel messages still queued and appends its two partitions to
// their payloads — no message, no ID, no push, no batch: the first merge
// (the warm-up run) copied each payload into a batch with room for
// dataflow.MaxCoalesce tuples.
func TestAllocsCoalescedIngest(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := runtime.New(runtime.Config{Workers: 1})
	if _, err := e.AddJob(testkit.AggSpec("j", 1, 2, 100*vtime.Millisecond, vtime.Second)); err != nil {
		t.Fatal(err)
	}
	// Stock the pool the first ingest's partitions are drawn from.
	var stock []*dataflow.Batch
	for range 256 {
		stock = append(stock, e.LeaseBatch(4))
	}
	for _, b := range stock {
		e.ReturnBatch(b)
	}
	b := dataflow.NewBatch(2)
	b.Append(1, 0, 1) // key 0 hashes to partition 0,
	b.Append(1, 1, 1) // key 1 to partition 1
	p := vtime.Time(1)
	ingest := func() {
		if err := e.Ingest("j", 0, b, p); err != nil {
			t.Fatal(err)
		}
		p++ // every ingest in the first window
	}
	ingest()
	created := e.Created()
	// 1 + runs + 1 tuples per partition stay within dataflow.MaxCoalesce.
	const runs = 40
	allocs := testing.AllocsPerRun(runs, ingest)
	if e.Created() != created {
		t.Fatalf("the ingests created %d messages; nothing coalesced", e.Created()-created)
	}
	if allocs != 0 {
		t.Errorf("coalesced ingest allocates %.2f times per call, want 0", allocs)
	}
}

// TestAllocsJobLookup pins the job-registry lookup every ingest starts
// with at zero allocations: the registry is a sync.Map keyed by name, and
// a key boxed onto the heap would cost one allocation per batch.
func TestAllocsJobLookup(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	e := runtime.New(runtime.Config{Workers: 1})
	if _, err := e.AddJob(testkit.AggSpec("j", 2, 2, 10*vtime.Millisecond, 100*vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprint("j") // built at run time, as a caller's name is
	if n := testing.AllocsPerRun(1000, func() { e.JobPaused(name) }); n != 0 {
		t.Errorf("job lookup allocates %.1f times per call, want 0", n)
	}
}

// TestAllocsPausedRefusal pins a paused job's refusal at zero
// allocations: the wrapped ErrJobPaused is built once when the job is
// added, not per refused batch, and keeps its text and errors.Is.
func TestAllocsPausedRefusal(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	e := runtime.New(runtime.Config{Workers: 1})
	if _, err := e.AddJob(testkit.AggSpec("j", 2, 2, 10*vtime.Millisecond, 100*vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := e.PauseJob("j"); err != nil {
		t.Fatal(err)
	}
	b := dataflow.NewBatch(1)
	b.Append(1, 1, 1)
	var err error
	n := testing.AllocsPerRun(1000, func() { err = e.TryIngest("j", 0, b, 1) })
	if !errors.Is(err, runtime.ErrJobPaused) || err.Error() != `runtime: job is paused: job "j"` {
		t.Fatalf("paused TryIngest returned %v", err)
	}
	if n != 0 {
		t.Errorf("a paused refusal allocates %.1f times per call, want 0", n)
	}
}

// TestAllocsEngineSteadyStateAdmission extends the alloc gate to the
// admission layer (ISSUE satellite): with pending-message budgets
// configured (engine-wide AND per-job) and the shed policy armed, the
// accept path — budget checks at ingest plus the queued-counter
// accounting on every push and pop — must stay inside the same window-
// cycle budget. Per-message allocation creeping into admit/enqueued/
// dequeued would show up here as ~21 extra allocations per cycle.
func TestAllocsEngineSteadyStateAdmission(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	for _, cell := range runtime.PathCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const sources, warm, runs = 4, 60, 80
			win := 10 * vtime.Millisecond
			// Budgets far above the working set: the admission checks run on
			// every ingest but never trip, which is exactly the steady state
			// whose allocation profile must not regress.
			e := runtime.New(cell.Cfg(runtime.Config{Workers: 1,
				MaxPending: 1 << 20, Overload: runtime.OverloadShed}))
			spec := testkit.AggSpec("j", sources, 4, win, 100*vtime.Millisecond)
			spec.MaxPending = 1 << 20
			if _, err := e.AddJob(spec); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()

			wl := testkit.Workload{Seed: 9, Sources: sources, Windows: warm + runs + 2, Tuples: 4, Keys: 16, Win: win}
			batches := make([][]*dataflow.Batch, wl.Windows+1)
			for w := 1; w <= wl.Windows; w++ {
				batches[w] = make([]*dataflow.Batch, sources)
				for src := 0; src < sources; src++ {
					batches[w][src] = wl.Batch(src, w)
				}
			}
			w := 0
			cycle := func() {
				w++
				for src := 0; src < sources; src++ {
					if err := e.Ingest("j", src, batches[w][src], wl.Progress(w)); err != nil {
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
			t.Logf("%.2f allocs per window cycle with admission budgets armed", allocs)
			if allocs > maxAllocsPerWindowCycle {
				t.Errorf("budgeted window cycle allocates %.1f times, budget %.0f — the admission accept path allocates",
					allocs, maxAllocsPerWindowCycle)
			}
		})
	}
}

// TestAllocsEngineSteadyStateDrainBatch extends the alloc gate to the
// batched drain path (ISSUE 5 satellite): the window-cycle budget must be
// the same at every DrainBatch setting — the batch buffer is allocated
// once per worker at startup, popMsgs/deliver reuse caller scratch, and
// the grouped-delivery walk indexes in place — so batching adds zero
// steady-state allocations. A per-batch or per-group allocation creeping
// in would show up here as extra allocations per cycle at DrainBatch>1.
func TestAllocsEngineSteadyStateDrainBatch(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	for _, batch := range []int{1, 16, 64} {
		t.Run(fmt.Sprintf("sharded/batch%d", batch), func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const sources, warm, runs = 4, 60, 80
			win := 10 * vtime.Millisecond
			e := runtime.New(runtime.Config{Workers: 1, DrainBatch: batch})
			if _, err := e.AddJob(testkit.AggSpec("j", sources, 4, win, 100*vtime.Millisecond)); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()

			wl := testkit.Workload{Seed: 9, Sources: sources, Windows: warm + runs + 2, Tuples: 4, Keys: 16, Win: win}
			batches := make([][]*dataflow.Batch, wl.Windows+1)
			for w := 1; w <= wl.Windows; w++ {
				batches[w] = make([]*dataflow.Batch, sources)
				for src := 0; src < sources; src++ {
					batches[w][src] = wl.Batch(src, w)
				}
			}
			w := 0
			cycle := func() {
				w++
				for src := 0; src < sources; src++ {
					if err := e.Ingest("j", src, batches[w][src], wl.Progress(w)); err != nil {
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
			t.Logf("DrainBatch=%d: %.2f allocs per window cycle", batch, allocs)
			if allocs > maxAllocsPerWindowCycle {
				t.Errorf("DrainBatch=%d: window cycle allocates %.1f times, budget %.0f — the batch-drain path allocates",
					batch, allocs, maxAllocsPerWindowCycle)
			}
		})
	}
}

// TestAllocsEngineSteadyStateAfterChurn extends the alloc gate to the hot
// query lifecycle: a burst of submit→ingest→cancel cycles on a live
// engine must leave the surviving job's steady-state window cycle inside
// the same allocation budget. A cancel that leaked heap slots (messages or
// batches not returned to their free lists, operators stranded in a run
// queue) or grew the pools' working set would show up here as per-cycle
// allocations after the churn.
func TestAllocsEngineSteadyStateAfterChurn(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	for _, cell := range runtime.PathCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const sources, warm, runs, churns = 4, 60, 80, 8
			win := 10 * vtime.Millisecond
			e := runtime.New(cell.Cfg(runtime.Config{Workers: 1}))
			if _, err := e.AddJob(testkit.AggSpec("j", sources, 4, win, 100*vtime.Millisecond)); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()

			wl := testkit.Workload{Seed: 9, Sources: sources, Windows: warm + runs + churns + 2, Tuples: 4, Keys: 16, Win: win}
			batches := make([][]*dataflow.Batch, wl.Windows+1)
			for w := 1; w <= wl.Windows; w++ {
				batches[w] = make([]*dataflow.Batch, sources)
				for src := 0; src < sources; src++ {
					batches[w][src] = wl.Batch(src, w)
				}
			}
			w := 0
			cycle := func() {
				w++
				for src := 0; src < sources; src++ {
					if err := e.Ingest("j", src, batches[w][src], wl.Progress(w)); err != nil {
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

			// The churn burst: each cycle live-submits a job under a reused
			// name (fresh recorder entry each time), ingests into it, and
			// cancels it with part of its backlog paused — the discard
			// path — while the survivor's ingest continues.
			cwl := testkit.Workload{Seed: 31, Sources: 2, Windows: 4, Tuples: 4, Keys: 8, Win: win}
			for c := 0; c < churns; c++ {
				if _, err := e.AddJob(testkit.AggSpec("churn", cwl.Sources, 2, win, 100*vtime.Millisecond)); err != nil {
					t.Fatal(err)
				}
				for cw := 1; cw <= 2; cw++ {
					for src := 0; src < cwl.Sources; src++ {
						if err := e.Ingest("churn", src, cwl.Batch(src, cw), cwl.Progress(cw)); err != nil {
							t.Fatal(err)
						}
					}
				}
				cycle() // keep the survivor moving between lifecycle events
				// Ingest one more window, then pause before the single worker
				// can drain it (a paused job refuses ingest, so the order is
				// ingest → pause): the retained backlog exercises the
				// cancel-a-paused-backlog discard path.
				for src := 0; src < cwl.Sources; src++ {
					if err := e.Ingest("churn", src, cwl.Batch(src, 3), cwl.Progress(3)); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.PauseJob("churn"); err != nil {
					t.Fatal(err)
				}
				if err := e.CancelJob("churn"); err != nil {
					t.Fatal(err)
				}
			}
			if e.Discarded() == 0 {
				t.Fatal("churn burst discarded nothing; the cancel path went unexercised")
			}

			allocs := testing.AllocsPerRun(runs, cycle)
			t.Logf("%.2f allocs per window cycle after %d submit→cancel cycles", allocs, churns)
			if allocs > maxAllocsPerWindowCycle {
				t.Errorf("window cycle allocates %.1f times after churn, budget %.0f — submit→cancel leaks into the steady state",
					allocs, maxAllocsPerWindowCycle)
			}
			if p := e.Pending(); p != 0 {
				t.Errorf("%d messages still pending after churn + drain", p)
			}
		})
	}
}
