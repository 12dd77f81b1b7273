package runtime_test

// Engine-level coverage for the per-source fairness tier of admission:
//
//   - The per-source admission ledger must reconcile: rejected counts
//     sum to the job total, and per-source shed plus downstream shed
//     sum to the job's shed total.
//   - The fair-share tier must admit a cold source past a hot sibling's
//     exhausted budget, and charge overload shedding to the hot
//     source's own backlog.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// TestPerSourceCountersReconcile pins the admission ledger's sums: the
// per-source rejected counts must equal the engine's rejected total and
// the per-source shed counts plus the downstream count must equal the
// job's shed total, after a run that exercises both refusal and
// shedding.
func TestPerSourceCountersReconcile(t *testing.T) {
	defer testkit.LeakCheck(t)()
	for _, cell := range runtime.PathCells {
		t.Run(cell.Name, func(t *testing.T) {
			const sources = 4
			win := 10 * vtime.Millisecond
			e := runtime.New(cell.Cfg(runtime.Config{
				Workers:    2,
				MaxPending: 32, Overload: runtime.OverloadShed,
			}))
			if _, err := e.AddJob(testkit.AggSpec("j", sources, 4, win, 20*vtime.Millisecond)); err != nil {
				t.Fatal(err)
			}
			e.Start()
			wl := testkit.Workload{Seed: 43, Sources: sources, Windows: 60, Tuples: 6, Keys: 16, Win: win}
			var wg sync.WaitGroup
			for src := 0; src < sources; src++ {
				wg.Add(1)
				go func(src int) {
					defer wg.Done()
					for w := 1; w <= wl.Windows; w++ {
						// Alternate plain ingest (sheds over budget) with
						// TryIngest (rejects over budget) so both per-source
						// counters move.
						if w%2 == 0 {
							err := e.TryIngest("j", src, wl.Batch(src, w), wl.Progress(w))
							if err != nil && !errors.Is(err, runtime.ErrOverloaded) {
								t.Error(err)
								return
							}
							continue
						}
						if err := e.Ingest("j", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
							t.Error(err)
							return
						}
					}
				}(src)
			}
			wg.Wait()
			testkit.DrainOrFail(t, e, 10*time.Second)
			e.Stop()

			per, err := e.PerSource("j")
			if err != nil {
				t.Fatal(err)
			}
			var rejected, shed, queued int64
			for _, s := range per {
				rejected += s.Rejected
				shed += s.Shed
				queued += s.Queued
			}
			ds, err := e.ShedDownstream("j")
			if err != nil {
				t.Fatal(err)
			}
			if got := e.Rejected(); rejected != got {
				t.Errorf("per-source rejected sum %d != engine rejected %d", rejected, got)
			}
			if got := e.Shed(); shed+ds != got {
				t.Errorf("per-source shed %d + downstream %d != engine shed %d", shed, ds, got)
			}
			if queued != 0 {
				t.Errorf("per-source queued sum %d after drain", queued)
			}
			if created, settled := e.Created(), e.Executed()+e.Discarded(); created != settled {
				t.Errorf("conservation: created %d, executed+discarded %d", created, settled)
			}
		})
	}
}

// TestFairShareAdmission pins the deficit tier of the per-job budget
// check: once a hot source has filled the job's whole budget, its own
// further batches are refused — but a cold sibling is admitted until it
// reaches its fair share (budget / sources), and refused past that.
func TestFairShareAdmission(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		win := 10 * vtime.Millisecond
		e := runtime.New(runtime.Config{Workers: 1})
		spec := testkit.AggSpec("j", 2, 2, win, vtime.Second)
		spec.MaxPending = 8
		if _, err := e.AddJob(spec); err != nil {
			t.Fatal(err)
		}
		// The engine is never started: nothing drains, so admission
		// decisions are a pure function of the queued counters.
		wl := testkit.Workload{Seed: 3, Sources: 2, Windows: 16, Tuples: 2, Keys: 4, Win: win}
		// Source 0 fills the whole job budget (each batch fans out into
		// 2 stage-0 messages; 4 batches reach the budget of 8)...
		for w := 1; w <= 4; w++ {
			if err := e.Ingest("j", 0, wl.Batch(0, w), wl.Progress(w)); err != nil {
				t.Fatalf("hot batch %d refused: %v", w, err)
			}
		}
		// ...after which its own next batch is refused...
		if err := e.Ingest("j", 0, wl.Batch(0, 5), wl.Progress(5)); !errors.Is(err, runtime.ErrJobOverloaded) {
			t.Fatalf("hot source over budget: got %v, want ErrJobOverloaded", err)
		}
		// ...but the cold source is admitted up to its fair share of 4
		// messages (2 batches) despite the job being over budget...
		for w := 1; w <= 2; w++ {
			if err := e.Ingest("j", 1, wl.Batch(1, w), wl.Progress(w)); err != nil {
				t.Fatalf("cold batch %d refused under fair share: %v", w, err)
			}
		}
		// ...and refused past it.
		if err := e.Ingest("j", 1, wl.Batch(1, 3), wl.Progress(3)); !errors.Is(err, runtime.ErrJobOverloaded) {
			t.Fatalf("cold source past fair share: got %v, want ErrJobOverloaded", err)
		}
		e.Start()
		testkit.DrainOrFail(t, e, 10*time.Second)
		e.Stop()
	})
}

// TestFairShedHotSource pins shed-side fairness: under OverloadShed,
// the backlog a hot source pushed past the job budget is paid out of
// that source's own queued messages — the cold sibling's backlog
// survives untouched.
func TestFairShedHotSource(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		win := 10 * vtime.Millisecond
		e := runtime.New(runtime.Config{Workers: 1, Overload: runtime.OverloadShed})
		spec := testkit.AggSpec("j", 2, 2, win, vtime.Second)
		spec.MaxPending = 8
		if _, err := e.AddJob(spec); err != nil {
			t.Fatal(err)
		}
		// Engine not started: the shed decisions act on a frozen queue.
		wl := testkit.Workload{Seed: 5, Sources: 2, Windows: 16, Tuples: 2, Keys: 4, Win: win}
		// The cold source parks 2 messages, then the hot source floods
		// far past the whole budget.
		if err := e.Ingest("j", 1, wl.Batch(1, 1), wl.Progress(1)); err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= 10; w++ {
			if err := e.Ingest("j", 0, wl.Batch(0, w), wl.Progress(w)); err != nil {
				t.Fatal(err)
			}
		}
		per, err := e.PerSource("j")
		if err != nil {
			t.Fatal(err)
		}
		if per[0].Shed == 0 {
			t.Error("hot source shed nothing")
		}
		if per[1].Shed != 0 {
			t.Errorf("cold source shed %d messages for the hot source's overload", per[1].Shed)
		}
		if per[1].Queued != 2 {
			t.Errorf("cold source backlog = %d, want its 2 parked messages", per[1].Queued)
		}
		e.Start()
		testkit.DrainOrFail(t, e, 10*time.Second)
		e.Stop()
		if created, settled := e.Created(), e.Executed()+e.Discarded(); created != settled {
			t.Errorf("conservation: created %d, executed+discarded %d", created, settled)
		}
	})
}
