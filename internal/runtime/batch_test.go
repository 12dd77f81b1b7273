package runtime_test

// Batched-drain coverage (ISSUE 5): DrainBatch>1 must change scheduling
// *cost*, never scheduling *meaning*. Three properties are pinned here:
//
//   - per-operator execution order is identical to the simulator's
//     reference order (each operator's messages still execute in PriLocal
//     queue order), and for these pre-enqueued 1-worker workloads the full
//     interleaving is identical too;
//   - conservation (created == executed + discarded) survives lifecycle
//     events that land mid-batch — a cancel or pause must return or
//     discard the unexecuted tail of a worker's drain buffer, never
//     strand it;
//   - the admission layer's queued accounting returns to zero after a
//     batched drain.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// perOpOrders projects a trace onto per-operator execution sequences.
func perOpOrders(keys []execKey) map[string][]execKey {
	out := make(map[string][]execKey)
	for _, k := range keys {
		out[k.Op] = append(out[k.Op], k)
	}
	return out
}

// TestDrainBatchOrderEquivalence: at one worker with everything enqueued
// before start and an effectively infinite quantum, batched draining must
// reproduce the simulator's schedule (which DrainBatch=1 matches, see
// TestSimulatorRuntimeEquivalence) exactly — the batch boundary only
// moves WHERE locks are taken, and these workloads have no mid-drain
// arrivals for the drained operator, so even the full interleaving is
// pinned.
func TestDrainBatchOrderEquivalence(t *testing.T) {
	t.Run("cameo/sharded", func(t *testing.T) {
		ref := simOrder(t)
		if len(ref) == 0 {
			t.Fatal("reference run executed nothing")
		}
		for _, batch := range []int{4, 16, 64} {
			got := runtimeOrderBatch(t, batch)
			diffOrders(t, fmt.Sprintf("DrainBatch=%d vs simulator", batch), ref, got)
			// The stronger per-operator claim is implied by the full
			// diff, but check it explicitly so a future relaxation of
			// the interleaving pin keeps the real invariant visible.
			want, have := perOpOrders(ref), perOpOrders(got)
			for op, seq := range want {
				diffOrders(t, fmt.Sprintf("DrainBatch=%d op %s", batch, op), seq, have[op])
			}
		}
	})
	// Arrival-order priorities stamp wall-clock time on the engine and
	// virtual time in the simulator, so here the unbatched engine run is
	// the reference.
	t.Run("fifo/sharded", func(t *testing.T) {
		ref := runtimeOrderCfg(t, runtime.ArrivalOrder(runtime.Config{DrainBatch: 1}))
		if len(ref) == 0 {
			t.Fatal("reference run executed nothing")
		}
		for _, batch := range []int{4, 16, 64} {
			got := runtimeOrderCfg(t, runtime.ArrivalOrder(runtime.Config{DrainBatch: batch}))
			diffOrders(t, fmt.Sprintf("DrainBatch=%d vs 1", batch), ref, got)
		}
	})
}

// TestDrainBatchConservationUnderLoad: concurrent producers against a
// deep-batching engine; every created message is executed, and the queued
// accounting returns to zero.
func TestDrainBatchConservationUnderLoad(t *testing.T) {
	defer testkit.LeakCheck(t)()
	for _, cell := range runtime.PathCells {
		t.Run(cell.Name, func(t *testing.T) {
			const producers = 4
			win := 10 * vtime.Millisecond
			e := runtime.New(cell.Cfg(runtime.Config{Workers: 4, DrainBatch: 64}))
			if _, err := e.AddJob(testkit.AggSpec("j", producers, 4, win, vtime.Second)); err != nil {
				t.Fatal(err)
			}
			e.Start()
			wl := testkit.Workload{Seed: 17, Sources: producers, Windows: 40, Tuples: 8, Keys: 16, Win: win}
			var wg sync.WaitGroup
			for src := 0; src < producers; src++ {
				wg.Add(1)
				go func(src int) {
					defer wg.Done()
					for w := 1; w <= wl.Windows; w++ {
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
			if created, settled := e.Created(), e.Executed()+e.Discarded(); created != settled {
				t.Fatalf("conservation: created %d, executed+discarded %d", created, settled)
			}
			if e.Pending() != 0 {
				t.Fatalf("pending = %d after drain", e.Pending())
			}
		})
	}
}

// slowSpec is a job whose handler is slow enough that workers are
// reliably mid-batch when a lifecycle event lands.
func slowSpec(name string, sources int) dataflow.JobSpec {
	return dataflow.JobSpec{
		Name: name, Latency: vtime.Second, Sources: sources,
		Stages: []dataflow.StageSpec{{
			Name: "s", Parallelism: 2,
			NewHandler: func(int) dataflow.Handler {
				return dataflow.HandlerFunc(func(*dataflow.Context, *core.Message) []dataflow.Emission {
					time.Sleep(200 * time.Microsecond)
					return nil
				})
			},
		}},
	}
}

// TestDrainBatchMidBatchCancel: cancel a job while workers hold deep
// drain buffers full of its messages. The unexecuted batch tails must be
// discarded with conservation intact — created == executed + discarded —
// and a bystander job must drain untouched. (The -race run of this test
// is the data-race check on the epoch-gated return path.)
func TestDrainBatchMidBatchCancel(t *testing.T) {
	defer testkit.LeakCheck(t)()
	for _, cell := range runtime.PathCells {
		t.Run(cell.Name, func(t *testing.T) {
			const sources = 2
			win := vtime.Millisecond
			e := runtime.New(cell.Cfg(runtime.Config{Workers: 2, DrainBatch: 64}))
			if _, err := e.AddJob(slowSpec("victim", sources)); err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddJob(testkit.AggSpec("bystander", sources, 2, 10*win, vtime.Second)); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()

			vwl := testkit.Workload{Seed: 23, Sources: sources, Windows: 150, Tuples: 4, Keys: 8, Win: win}
			bwl := testkit.Workload{Seed: 29, Sources: sources, Windows: 15, Tuples: 4, Keys: 8, Win: 10 * win}
			for w := 1; w <= vwl.Windows; w++ {
				for src := 0; src < sources; src++ {
					if err := e.Ingest("victim", src, vwl.Batch(src, w), vwl.Progress(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for w := 1; w <= bwl.Windows; w++ {
				for src := 0; src < sources; src++ {
					if err := e.Ingest("bystander", src, bwl.Batch(src, w), bwl.Progress(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
			time.Sleep(2 * time.Millisecond) // let workers fill their drain buffers
			if err := e.CancelJob("victim"); err != nil {
				t.Fatal(err)
			}
			if e.Discarded() == 0 {
				t.Fatal("cancel discarded nothing; the mid-batch path went unexercised")
			}
			testkit.DrainOrFail(t, e, 10*time.Second)
			if created, settled := e.Created(), e.Executed()+e.Discarded(); created != settled {
				t.Fatalf("conservation: created %d, executed+discarded %d", created, settled)
			}
			if e.Pending() != 0 {
				t.Fatalf("pending = %d after cancel+drain", e.Pending())
			}
			if e.Recorder().Job("bystander").Count() == 0 {
				t.Fatal("bystander produced no outputs")
			}
		})
	}
}

// TestDrainBatchMidBatchPause: pause a job while workers are mid-batch;
// the unexecuted tails must return to the operators' queues (nothing
// discarded, nothing executed past the batch boundary once the pause is
// observed), and a resume must drain every retained message.
func TestDrainBatchMidBatchPause(t *testing.T) {
	defer testkit.LeakCheck(t)()
	for _, cell := range runtime.PathCells {
		t.Run(cell.Name, func(t *testing.T) {
			const sources = 2
			win := vtime.Millisecond
			e := runtime.New(cell.Cfg(runtime.Config{Workers: 2, DrainBatch: 64}))
			if _, err := e.AddJob(slowSpec("j", sources)); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()

			wl := testkit.Workload{Seed: 41, Sources: sources, Windows: 100, Tuples: 4, Keys: 8, Win: win}
			for w := 1; w <= wl.Windows; w++ {
				for src := 0; src < sources; src++ {
					if err := e.Ingest("j", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
			time.Sleep(2 * time.Millisecond)
			if err := e.PauseJob("j"); err != nil {
				t.Fatal(err)
			}
			// Workers observe the pause within a bounded number of handler
			// invocations; returned batch tails are retained, not lost.
			time.Sleep(5 * time.Millisecond)
			if e.Discarded() != 0 {
				t.Fatalf("pause discarded %d messages", e.Discarded())
			}
			retained, err := e.JobPending("j")
			if err != nil {
				t.Fatal(err)
			}
			if retained == 0 {
				t.Fatal("pause retained no backlog; the mid-batch return path went unexercised")
			}
			if err := e.ResumeJob("j"); err != nil {
				t.Fatal(err)
			}
			testkit.DrainOrFail(t, e, 10*time.Second)
			if created, executed := e.Created(), e.Executed(); created != executed {
				t.Fatalf("conservation after resume: created %d, executed %d", created, executed)
			}
			if e.Pending() != 0 {
				t.Fatalf("pending = %d after resume+drain", e.Pending())
			}
		})
	}
}
