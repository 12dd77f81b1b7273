package runtime

// Admission-layer tests: pending-message budgets, the backpressure and
// shedding overload responses, and their interaction with the lifecycle and
// pooling invariants. The -race flood test is the reliability pin for
// shedding: concurrent producers overload a budgeted engine while handlers
// verify they never see a recycled message, and conservation (created ==
// executed + discarded) pins that shedding loses nothing to the pools.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// TestIngestSourceOutOfRange: a bad source index must come back as an
// error, not a panic (dataflow.SourceMessage panics, so the engine has to
// validate first).
func TestIngestSourceOutOfRange(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			e := New(cell.Cfg(Config{Workers: 1}))
			if _, err := e.AddJob(lsSpec("j")); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			for _, src := range []int{-1, 2, 99} { // lsSpec has 2 sources
				if err := e.Ingest("j", src, nil, vtime.Millisecond); err == nil {
					t.Errorf("Ingest(src=%d) accepted an out-of-range source", src)
				}
				if err := e.TryIngest("j", src, nil, vtime.Millisecond); err == nil {
					t.Errorf("TryIngest(src=%d) accepted an out-of-range source", src)
				}
			}
			if e.Created() != 0 {
				t.Errorf("out-of-range ingests created %d messages", e.Created())
			}
		})
	}
}

// TestIngestReservedProgress: progress.Unset is the frontiers'
// not-yet-reported marker, so an ingest carrying it must be refused with
// an error before it reaches an operator — accepted, it would stall the
// job's windows for good (or, caught only by the frontier, quarantine it).
// The job must go on producing every window afterwards.
func TestIngestReservedProgress(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			e := New(cell.Cfg(Config{Workers: 2}))
			if _, err := e.AddJob(lsSpec("j")); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			wl := testLoad(10)
			if err := e.Ingest("j", 0, nil, progress.Unset); err == nil {
				t.Error("Ingest accepted the reserved progress value")
			}
			if err := e.TryIngest("j", 1, wl.Batch(1, 1), progress.Unset); err == nil {
				t.Error("TryIngest accepted the reserved progress value")
			}
			if e.Created() != 0 {
				t.Errorf("refused ingests created %d messages", e.Created())
			}
			wl.IngestAll(t, e, "j")
			testkit.DrainOrFail(t, e, 5*time.Second)
			if e.JobPaused("j") {
				t.Error("job was quarantined")
			}
			if n := e.Recorder().Job("j").Count(); n < 8 {
				t.Errorf("outputs = %d after the refused ingests, want >= 8", n)
			}
		})
	}
}

// TestBackpressureRoundTrip pins the ErrOverloaded → drain → accept
// contract: a budgeted engine under OverloadBackpressure refuses batches
// once the budget is full, loses nothing, and accepts again after the
// backlog drains.
func TestBackpressureRoundTrip(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			const budget = 8
			e := New(cell.Cfg(Config{Workers: 1, MaxPending: budget})) // Overload defaults to backpressure
			if _, err := e.AddJob(lsSpec("j")); err != nil {
				t.Fatal(err)
			}

			// Fill to the budget before Start so nothing drains (a paused
			// job would refuse ingest outright with ErrJobPaused). lsSpec
			// fans each batch out to 2 stage-0 instances, so the budget
			// admits exactly budget/2 ingests.
			wl := testLoad(budget)
			accepted := 0
			var rejection error
			for w := 1; w <= budget; w++ {
				err := e.Ingest("j", 0, wl.Batch(0, w), wl.Progress(w))
				if err != nil {
					rejection = err
					break
				}
				accepted++
			}
			if rejection == nil {
				t.Fatalf("no rejection after %d ingests with budget %d", accepted, budget)
			}
			if !errors.Is(rejection, ErrOverloaded) {
				t.Fatalf("rejection = %v, want ErrOverloaded", rejection)
			}
			if accepted != budget/2 {
				t.Errorf("accepted %d ingests, want %d", accepted, budget/2)
			}
			if p := e.Pending(); p > budget {
				t.Errorf("Pending = %d exceeds budget %d", p, budget)
			}
			if e.Rejected() == 0 {
				t.Error("Rejected = 0 after a refused ingest")
			}
			if js := e.Recorder().Job("j"); js.Rejected.Load() == 0 {
				t.Error("per-job Rejected = 0 after a refused ingest")
			}
			if e.Shed() != 0 {
				t.Errorf("backpressure engine shed %d messages", e.Shed())
			}

			// Start the workers, drain, and the same source is welcome again.
			e.Start()
			defer e.Stop()
			testkit.DrainOrFail(t, e, 10*time.Second)
			if err := e.Ingest("j", 0, wl.Batch(0, 1), wl.Progress(budget+1)); err != nil {
				t.Fatalf("ingest after drain refused: %v", err)
			}
			testkit.DrainOrFail(t, e, 10*time.Second)
			if created, executed := e.Created(), e.Executed(); created != executed {
				t.Errorf("created %d != executed %d — backpressure must lose nothing", created, executed)
			}
		})
	}
}

// TestPerJobBudget: one query's budget saturating must not affect its
// neighbor's admission (ErrJobOverloaded, wrapping ErrOverloaded).
func TestPerJobBudget(t *testing.T) {
	e := New(Config{Workers: 1, MaxPending: 0}) // engine-wide unlimited
	capped := lsSpec("capped")
	capped.MaxPending = 4
	if _, err := e.AddJob(capped); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddJob(lsSpec("free")); err != nil {
		t.Fatal(err)
	}
	// Fill before Start so the single worker can't drain the capped job's
	// backlog out from under the budget check.
	wl := testLoad(10)
	var cappedErr error
	for w := 1; w <= 10; w++ {
		if cappedErr = e.Ingest("capped", 0, wl.Batch(0, w), wl.Progress(w)); cappedErr != nil {
			break
		}
	}
	if !errors.Is(cappedErr, ErrJobOverloaded) || !errors.Is(cappedErr, ErrOverloaded) {
		t.Fatalf("capped job rejection = %v, want ErrJobOverloaded wrapping ErrOverloaded", cappedErr)
	}
	// The neighbor keeps ingesting far past the capped job's budget.
	for w := 1; w <= 10; w++ {
		if err := e.Ingest("free", 0, wl.Batch(0, w), wl.Progress(w)); err != nil {
			t.Fatalf("neighbor refused at window %d: %v", w, err)
		}
	}
	if q, err := e.JobPending("capped"); err != nil || q > 4 {
		t.Errorf("capped job pending = %d (err %v), budget 4", q, err)
	}
	e.Start()
	defer e.Stop()
	testkit.DrainOrFail(t, e, 10*time.Second)
}

// TestTryIngestNeverSheds: TryIngest applies backpressure semantics even
// on an OverloadShed engine — it must refuse rather than trigger
// shedding.
func TestTryIngestNeverSheds(t *testing.T) {
	const budget = 8
	e := New(Config{Workers: 1, MaxPending: budget, Overload: OverloadShed})
	if _, err := e.AddJob(lsSpec("j")); err != nil {
		t.Fatal(err)
	}
	// Fill before Start so the backlog can't drain between TryIngests.
	wl := testLoad(2 * budget)
	var rejection error
	for w := 1; w <= 2*budget; w++ {
		if rejection = e.TryIngest("j", 0, wl.Batch(0, w), wl.Progress(w)); rejection != nil {
			break
		}
	}
	if !errors.Is(rejection, ErrOverloaded) {
		t.Fatalf("TryIngest on a full shed engine = %v, want ErrOverloaded", rejection)
	}
	if e.Shed() != 0 {
		t.Errorf("TryIngest triggered shedding (%d messages)", e.Shed())
	}
	e.Start()
	defer e.Stop()
	testkit.DrainOrFail(t, e, 10*time.Second)
}

// overloadSpec is the flood-test job: a forwarding stage and a slow sink,
// both asserting every message they are handed is live (a recycled
// message carries core.PoisonedID — the pin that shedding never recycles
// a message still reachable by a worker). count, when non-nil, tallies
// sink tuples; burn adds per-message sink latency so backlog builds.
func overloadSpec(name string, sources int, latency vtime.Duration,
	maxPending int, burn time.Duration, count *atomic.Int64, bad *atomic.Int64) dataflow.JobSpec {
	check := func(m *core.Message) {
		if m.ID <= 0 || m.ID == core.PoisonedID {
			bad.Add(1)
		}
	}
	return dataflow.JobSpec{
		Name: name, Latency: latency, Sources: sources, MaxPending: maxPending,
		Stages: []dataflow.StageSpec{
			{Name: "fwd", Parallelism: 2,
				NewHandler: func(int) dataflow.Handler {
					return dataflow.HandlerFunc(func(_ *dataflow.Context, m *core.Message) []dataflow.Emission {
						check(m)
						b, _ := m.Payload.(*dataflow.Batch)
						return []dataflow.Emission{{Batch: b, P: m.P, T: m.T}}
					})
				}},
			{Name: "sink", Parallelism: 1,
				NewHandler: func(int) dataflow.Handler {
					return dataflow.HandlerFunc(func(_ *dataflow.Context, m *core.Message) []dataflow.Emission {
						check(m)
						if count != nil {
							if b, _ := m.Payload.(*dataflow.Batch); b != nil {
								count.Add(int64(b.Len()))
							}
						}
						if burn > 0 {
							time.Sleep(burn)
						}
						return nil
					})
				}},
		},
	}
}

// TestShedConservationUnderLoad is the -race reliability pin for
// deadline-aware shedding (ISSUE satellite): concurrent producers flood a
// budgeted OverloadShed engine. Handlers verify no recycled message is ever
// observed, shedding provably happens, and created == executed + discarded
// pins that the shed path loses nothing to the pools.
func TestShedConservationUnderLoad(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			const producers, windows = 4, 60
			var badMsgs atomic.Int64
			e := New(cell.Cfg(Config{Workers: 2, MaxPending: 48, Overload: OverloadShed}))
			// A tight latency constraint dooms backlogged messages quickly,
			// so both shed passes (laxity and excess-backlog) see traffic.
			if _, err := e.AddJob(overloadSpec("flood", producers, 2*vtime.Millisecond,
				0, 100*time.Microsecond, nil, &badMsgs)); err != nil {
				t.Fatal(err)
			}
			e.Start()

			wl := testkit.Workload{Seed: 23, Sources: producers, Windows: windows,
				Tuples: 8, Keys: 16, Win: vtime.Millisecond}
			var wg sync.WaitGroup
			for src := 0; src < producers; src++ {
				wg.Add(1)
				go func(src int) {
					defer wg.Done()
					for w := 1; w <= windows; w++ {
						if err := e.Ingest("flood", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
							t.Error(err)
							return
						}
					}
				}(src)
			}
			wg.Wait()
			testkit.DrainOrFail(t, e, 30*time.Second)
			e.Stop()

			if n := badMsgs.Load(); n != 0 {
				t.Errorf("%d poisoned/malformed messages observed by handlers", n)
			}
			if e.Shed() == 0 {
				t.Error("flood shed nothing; the overload path went unexercised")
			}
			created, executed, discarded := e.Created(), e.Executed(), e.Discarded()
			if created != executed+discarded {
				t.Errorf("created %d, executed %d + discarded %d = %d — shedding broke conservation",
					created, executed, discarded, executed+discarded)
			}
			if e.Shed() > discarded {
				t.Errorf("shed %d > discarded %d — shed must be a subset of discarded",
					e.Shed(), discarded)
			}
			if js := e.Recorder().Job("flood"); js.Shed.Load() != e.Shed() {
				t.Errorf("per-job shed %d != engine shed %d (single job)", js.Shed.Load(), e.Shed())
			}
			if p := e.Pending(); p != 0 {
				t.Errorf("%d messages still pending after drain", p)
			}
			if out := e.outstanding.Load(); out != 0 {
				t.Errorf("outstanding = %d after drain", out)
			}
		})
	}
}

// TestBystanderIsolationUnderShed: a strict query must be untouched while
// its per-job-budgeted lax neighbor sheds — every strict tuple reaches the
// sink, and all shedding is attributed to the neighbor.
func TestBystanderIsolationUnderShed(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			const windows = 40
			var strictTuples, badMsgs atomic.Int64
			e := New(cell.Cfg(Config{Workers: 2, Overload: OverloadShed})) // engine-wide unlimited: only the lax budget shedds
			if _, err := e.AddJob(overloadSpec("strict", 2, vtime.Second,
				0, 0, &strictTuples, &badMsgs)); err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddJob(overloadSpec("lax", 2, vtime.Second,
				16, 200*time.Microsecond, nil, &badMsgs)); err != nil {
				t.Fatal(err)
			}
			e.Start()

			var wg sync.WaitGroup
			for _, job := range []string{"strict", "lax"} {
				wl := testkit.Workload{Seed: 29, Sources: 2, Windows: windows,
					Tuples: 6, Keys: 8, Win: vtime.Millisecond}
				for src := 0; src < 2; src++ {
					wg.Add(1)
					go func(job string, src int) {
						defer wg.Done()
						for w := 1; w <= windows; w++ {
							if err := e.Ingest(job, src, wl.Batch(src, w), wl.Progress(w)); err != nil {
								t.Error(err)
								return
							}
						}
					}(job, src)
				}
			}
			wg.Wait()
			testkit.DrainOrFail(t, e, 30*time.Second)
			e.Stop()

			if n := badMsgs.Load(); n != 0 {
				t.Errorf("%d poisoned/malformed messages observed", n)
			}
			if got, want := strictTuples.Load(), int64(2*windows*6); got != want {
				t.Errorf("strict sink saw %d tuples, ingested %d — shedding touched a bystander", got, want)
			}
			if shed := e.Recorder().Job("strict").Shed.Load(); shed != 0 {
				t.Errorf("strict job shed %d messages; only the lax neighbor may shed", shed)
			}
			if e.Recorder().Job("lax").Shed.Load() == 0 {
				t.Error("lax job shed nothing; the test did not exercise per-job shedding")
			}
			if created, executed, discarded := e.Created(), e.Executed(), e.Discarded(); created != executed+discarded {
				t.Errorf("created %d != executed %d + discarded %d", created, executed, discarded)
			}
		})
	}
}
