package runtime

// Hot-lifecycle tests: jobs submitted, paused, resumed, and cancelled on a
// live engine, in each configuration of EngineCells (cells_test.go). The
// -race cancel-under-load test is the reliability pin for cancellation:
// concurrent producers keep
// ingesting into a job while it is cancelled, and the test asserts no
// handler ever observes a recycled (poisoned) message, tuple conservation
// holds for the surviving job, every created message is either executed or
// discarded, and no goroutine leaks.

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

func TestEngineHotSubmit(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			e := New(cell.Cfg(Config{Workers: 2}))
			if _, err := e.AddJob(lsSpec("old")); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			testLoad(5).IngestAll(t, e, "old")

			// Submit while the pool is busy with "old", then drive the new
			// job end to end.
			if _, err := e.AddJob(lsSpec("hot")); err != nil {
				t.Fatalf("live submit: %v", err)
			}
			testLoad(5).IngestAll(t, e, "hot")
			testkit.DrainOrFail(t, e, 10*time.Second)
			for _, job := range []string{"old", "hot"} {
				if n := e.Recorder().Job(job).Count(); n < 4 {
					t.Errorf("%s: outputs = %d, want >= 4", job, n)
				}
			}
		})
	}
}

func TestEnginePauseResume(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			e := New(cell.Cfg(Config{Workers: 2}))
			if _, err := e.AddJob(lsSpec("j")); err != nil {
				t.Fatal(err)
			}

			// Ingest the whole load, then pause before starting the workers:
			// nothing may execute, so a per-job drain must time out with the
			// backlog intact.
			wl := testLoad(10)
			wl.IngestAll(t, e, "j")
			if err := e.PauseJob("j"); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			if drained, _ := e.DrainJob("j", 50*time.Millisecond); drained {
				t.Fatal("paused job drained")
			}
			if e.Executed() != 0 {
				t.Fatalf("paused job executed %d messages", e.Executed())
			}
			if !e.JobPaused("j") {
				t.Fatal("JobPaused = false for a paused job")
			}

			// A paused job refuses new ingest with the typed error — the
			// retained backlog stays as it was (ISSUE satellite:
			// ErrJobPaused).
			if err := e.Ingest("j", 0, wl.Batch(0, 1), wl.Progress(11)); !errors.Is(err, ErrJobPaused) {
				t.Fatalf("Ingest on paused job = %v, want ErrJobPaused", err)
			}
			if err := e.TryIngest("j", 0, wl.Batch(0, 1), wl.Progress(11)); !errors.Is(err, ErrJobPaused) {
				t.Fatalf("TryIngest on paused job = %v, want ErrJobPaused", err)
			}

			// Resume releases the retained backlog in full.
			if err := e.ResumeJob("j"); err != nil {
				t.Fatal(err)
			}
			testkit.DrainOrFail(t, e, 10*time.Second)
			if n := e.Recorder().Job("j").Count(); n < 8 {
				t.Fatalf("outputs after resume = %d, want >= 8", n)
			}
			if created, executed := e.msgID.Load(), e.Executed(); created != executed {
				t.Fatalf("created %d messages, executed %d after pause/resume", created, executed)
			}
		})
	}
}

// TestEngineCancelUnderLoad is the -race reliability pin for hot
// cancellation (ISSUE satellite): producers for a doomed job keep
// ingesting concurrently with its CancelJob while a surviving job runs
// alongside. Handlers of both jobs verify every message they are handed
// is live (a recycled message carries core.PoisonedID), the surviving
// job's tuples are conserved end to end, and created == executed +
// discarded pins that cancellation loses no message to the pools.
func TestEngineCancelUnderLoad(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			const producers, windows, tuples = 4, 120, 6
			var keepTuples, badMsgs atomic.Int64
			// count == nil marks the doomed job, whose sink burns a little
			// time per message so a backlog is guaranteed to exist when the
			// cancel lands — otherwise fast workers could drain it first
			// and the discard path would go unexercised.
			checkedSpec := func(name string, count *atomic.Int64) dataflow.JobSpec {
				return dataflow.JobSpec{
					Name: name, Latency: vtime.Second, Sources: producers,
					Stages: []dataflow.StageSpec{
						{Name: "fwd", Parallelism: 2,
							NewHandler: func(int) dataflow.Handler {
								return dataflow.HandlerFunc(func(_ *dataflow.Context, m *core.Message) []dataflow.Emission {
									if m.ID <= 0 || m.ID == core.PoisonedID {
										badMsgs.Add(1)
									}
									b, _ := m.Payload.(*dataflow.Batch)
									return []dataflow.Emission{{Batch: b, P: m.P, T: m.T}}
								})
							}},
						{Name: "sink", Parallelism: 1,
							NewHandler: func(int) dataflow.Handler {
								return dataflow.HandlerFunc(func(_ *dataflow.Context, m *core.Message) []dataflow.Emission {
									if m.ID <= 0 || m.ID == core.PoisonedID {
										badMsgs.Add(1)
									}
									if count != nil {
										if b, _ := m.Payload.(*dataflow.Batch); b != nil {
											count.Add(int64(b.Len()))
										}
									} else {
										time.Sleep(50 * time.Microsecond)
									}
									return nil
								})
							}},
					},
				}
			}
			e := New(cell.Cfg(Config{Workers: 4}))
			if _, err := e.AddJob(checkedSpec("keep", &keepTuples)); err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddJob(checkedSpec("doomed", nil)); err != nil {
				t.Fatal(err)
			}
			e.Start()

			var wg sync.WaitGroup
			halfway := make(chan struct{})
			for _, job := range []string{"keep", "doomed"} {
				wl := testkit.Workload{Seed: 11, Sources: producers, Windows: windows,
					Tuples: tuples, Keys: 16, Win: vtime.Millisecond}
				for src := 0; src < producers; src++ {
					wg.Add(1)
					go func(job string, src int) {
						defer wg.Done()
						for w := 1; w <= windows; w++ {
							if w == windows/2 && job == "doomed" && src == 0 {
								close(halfway)
							}
							// Ingest of a cancelled job fails with "unknown
							// job" once the cancel lands; producers racing a
							// cancel must simply stop, losing nothing that
							// was already accepted.
							if err := e.Ingest(job, src, wl.Batch(src, w), wl.Progress(w)); err != nil {
								if job == "doomed" {
									return
								}
								t.Error(err)
								return
							}
						}
					}(job, src)
				}
			}
			<-halfway
			if err := e.CancelJob("doomed"); err != nil {
				t.Fatal(err)
			}
			// After CancelJob returns the job must be fully quiesced: no
			// worker references it and its accounting is settled.
			if err := e.Ingest("doomed", 0, nil, 0); err == nil {
				t.Error("ingest into a cancelled job accepted")
			}
			wg.Wait()
			testkit.DrainOrFail(t, e, 20*time.Second)
			e.Stop()

			if n := badMsgs.Load(); n != 0 {
				t.Errorf("%d poisoned/malformed messages observed by handlers", n)
			}
			total := int64(producers * windows * tuples)
			if got := keepTuples.Load(); got != total {
				t.Errorf("surviving job's sink saw %d tuples, ingested %d", got, total)
			}
			created, executed, discarded := e.msgID.Load(), e.Executed(), e.Discarded()
			if created != executed+discarded {
				t.Errorf("created %d messages, executed %d + discarded %d = %d — cancellation broke conservation",
					created, executed, discarded, executed+discarded)
			}
			if discarded == 0 {
				t.Error("cancel mid-load discarded nothing; the test did not exercise cancellation")
			}
			if p := e.Pending(); p != 0 {
				t.Errorf("%d messages still pending after drain + cancel", p)
			}
			if out := e.outstanding.Load(); out != 0 {
				t.Errorf("outstanding = %d after drain + cancel", out)
			}
		})
	}
}

// TestEnginePauseResumeStorm hammers pause/resume against busy workers
// and concurrent producers — the stress shape for the pop-to-acquire
// window where a pause's run-queue removal can miss an operator a worker
// is about to hold. A double-schedule there would execute one operator on
// two workers at once and break message conservation (or corrupt a lane
// heap outright); conservation and a full drain pin the absence of both.
func TestEnginePauseResumeStorm(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			// 50 ms windows over 80 ms of progress on a clock that starts at
			// 49 ms: most batches are ingested after the end of the window
			// they land in, so their frontier-time estimate is behind their
			// own arrival. Their local priority must still be the window
			// end, or they overtake their channel's queued batches.
			e := New(cell.Cfg(Config{Workers: 4, StartTime: 49 * vtime.Millisecond}))
			if _, err := e.AddJob(testkit.AggSpec("j", 2, 2, 50*vtime.Millisecond, 500*vtime.Millisecond)); err != nil {
				t.Fatal(err)
			}
			e.Start()
			wl := testkit.Workload{Seed: 5, Sources: 2, Windows: 80, Tuples: 6, Keys: 8, Win: vtime.Millisecond}
			var wg sync.WaitGroup
			for src := 0; src < wl.Sources; src++ {
				wg.Add(1)
				go func(src int) {
					defer wg.Done()
					for w := 1; w <= wl.Windows; w++ {
						err := e.Ingest("j", src, wl.Batch(src, w), wl.Progress(w))
						if errors.Is(err, ErrJobPaused) && e.JobFailed("j") {
							t.Error("job quarantined: a handler panicked")
							return
						}
						if errors.Is(err, ErrJobPaused) {
							// The storm goroutine paused the job under us;
							// retry the same window once it resumes.
							w--
							continue
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(src)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if err := e.PauseJob("j"); err != nil {
						t.Error(err)
						return
					}
					if err := e.ResumeJob("j"); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			if t.Failed() {
				e.Stop()
				return
			}
			testkit.DrainOrFail(t, e, 20*time.Second)
			e.Stop()
			if created, executed := e.msgID.Load(), e.Executed(); created != executed {
				t.Fatalf("created %d messages, executed %d — pause/resume storm broke conservation", created, executed)
			}
		})
	}
}

// TestEngineCancelMidExecution pins CancelJob's quiesce contract when a
// worker is inside a handler for the doomed job: Cancel must wait for
// exactly the in-flight message, discard the rest, and leave the engine
// clean.
func TestEngineCancelMidExecution(t *testing.T) {
	for _, cell := range PathCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			started := make(chan struct{})
			var once sync.Once
			spec := dataflow.JobSpec{
				Name: "slow", Latency: vtime.Second, Sources: 1,
				Stages: []dataflow.StageSpec{{
					Name: "s", Parallelism: 1,
					NewHandler: func(int) dataflow.Handler {
						return dataflow.HandlerFunc(func(*dataflow.Context, *core.Message) []dataflow.Emission {
							once.Do(func() { close(started) })
							time.Sleep(50 * time.Millisecond)
							return nil
						})
					},
				}},
			}
			e := New(cell.Cfg(Config{Workers: 1}))
			if _, err := e.AddJob(spec); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			for i := 1; i <= 6; i++ {
				b := dataflow.NewBatch(1)
				b.Append(vtime.Time(i), 0, 1)
				if err := e.Ingest("slow", 0, b, vtime.Time(i)); err != nil {
					t.Fatal(err)
				}
			}
			<-started // a worker is now mid-handler
			if err := e.CancelJob("slow"); err != nil {
				t.Fatal(err)
			}
			if created, executed, discarded := e.msgID.Load(), e.Executed(), e.Discarded(); created != executed+discarded || discarded == 0 {
				t.Fatalf("created %d, executed %d, discarded %d after mid-execution cancel",
					created, executed, discarded)
			}
			if out := e.outstanding.Load(); out != 0 {
				t.Fatalf("outstanding = %d after CancelJob returned", out)
			}
		})
	}
}

// TestEngineCancelPausedBacklog: cancelling a paused job discards its
// retained backlog, unblocking the engine-wide drain.
func TestEngineCancelPausedBacklog(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			e := New(cell.Cfg(Config{Workers: 2}))
			if _, err := e.AddJob(lsSpec("j")); err != nil {
				t.Fatal(err)
			}
			testLoad(6).IngestAll(t, e, "j")
			if err := e.PauseJob("j"); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			if e.Drain(50 * time.Millisecond) {
				t.Fatal("Drain reported idle with a paused backlog")
			}
			if err := e.CancelJob("j"); err != nil {
				t.Fatal(err)
			}
			if !e.Drain(time.Second) {
				t.Fatal("Drain still blocked after cancelling the paused job")
			}
			if e.Pending() != 0 {
				t.Fatalf("pending = %d after cancelling a paused job", e.Pending())
			}
		})
	}
}

// TestEngineNameReuse: a cancelled job's name is immediately reusable —
// with the same or a different latency constraint — and the reused
// name's statistics start fresh instead of merging the dead job's.
func TestEngineNameReuse(t *testing.T) {
	e := New(Config{Workers: 1})
	if _, err := e.AddJob(testkit.AggSpec("x", 2, 2, testWin, 500*vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	testLoad(4).IngestAll(t, e, "x")
	testkit.DrainOrFail(t, e, 5*time.Second)
	if err := e.CancelJob("x"); err != nil {
		t.Fatal(err)
	}
	// Same name, different constraint: must not panic, must start fresh.
	if _, err := e.AddJob(testkit.AggSpec("x", 2, 2, testWin, 100*vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	testLoad(4).IngestAll(t, e, "x")
	testkit.DrainOrFail(t, e, 5*time.Second)
	js := e.Recorder().Job("x")
	if js.Constraint != 100*vtime.Millisecond {
		t.Fatalf("reused job kept stale constraint %v", js.Constraint)
	}
	firstOutputs := js.Count()
	if firstOutputs < 2 {
		t.Fatalf("reused job produced %d outputs", firstOutputs)
	}
	// Same name, SAME constraint: stats must still start fresh, not
	// accumulate the cancelled incarnation's outputs.
	if err := e.CancelJob("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddJob(testkit.AggSpec("x", 2, 2, testWin, 100*vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	testLoad(4).IngestAll(t, e, "x")
	testkit.DrainOrFail(t, e, 5*time.Second)
	if got := e.Recorder().Job("x").Count(); got > firstOutputs {
		t.Fatalf("same-constraint reuse merged stats: %d outputs, want <= %d (fresh)", got, firstOutputs)
	}
}

// TestEngineConcurrentCancel: racing CancelJob calls for one job must all
// return with the quiesce post-condition satisfied (exactly one owns the
// rundown; the others wait for it), never a spurious error.
func TestEngineConcurrentCancel(t *testing.T) {
	for _, cell := range PathCells {
		t.Run(cell.Name, func(t *testing.T) {
			e := New(cell.Cfg(Config{Workers: 2}))
			if _, err := e.AddJob(lsSpec("j")); err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			testLoad(10).IngestAll(t, e, "j")
			var wg sync.WaitGroup
			var succeeded atomic.Int64
			start := make(chan struct{})
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					// A caller that arrives after the rundown fully
					// completed legitimately sees "unknown job"; what must
					// never happen is an error while the rundown is still
					// in flight (the waiter path) — so every run has at
					// least one success and the post-conditions hold for
					// all returners.
					if err := e.CancelJob("j"); err == nil {
						succeeded.Add(1)
					}
				}()
			}
			close(start)
			wg.Wait()
			if succeeded.Load() == 0 {
				t.Error("no concurrent cancel succeeded")
			}
			// Sequentially-after cancel still reports unknown.
			if err := e.CancelJob("j"); err == nil {
				t.Error("cancel after completed cancel accepted")
			}
			if out := e.outstanding.Load(); out != 0 {
				t.Errorf("outstanding = %d after concurrent cancels", out)
			}
		})
	}
}

// TestIngestLookupUnderChurn is the -race pin for the lock-free job
// registry: four producers ingest into two names while one goroutine
// pauses, resumes, cancels and resubmits them, round after round. Each
// name's lifecycle state is published around every transition, so a
// producer that reads one state before and after its ingest knows which
// transitions had completed: after PauseJob returned the ingest must get
// ErrJobPaused; after CancelJob returned it must get "unknown job" until
// the name is resubmitted, and an accepted ingest then belongs to the new
// incarnation. Producers stand off a name while it drains for its cancel,
// so every accepted tuple must reach the sink of exactly the incarnation
// it was attributed to — a batch handed to a stale, cancelled job would
// be discarded and show up as a shortfall.
func TestIngestLookupUnderChurn(t *testing.T) {
	defer testkit.LeakCheck(t)()
	const producers, rounds, tuples = 4, 12, 2
	// A name's published state is transition<<8 | incarnation<<3 | phase.
	// The transition count makes every published value unique, so equal
	// reads on both sides of an ingest prove no transition landed between.
	const (
		live = iota
		pausing
		paused
		resuming
		closing    // draining for the cancel; producers stand off
		cancelled  // CancelJob has returned
		submitting // AddJob of the next incarnation has begun
	)
	type churned struct {
		name     string
		seq      int64 // transitions published; lifecycle goroutine only
		state    atomic.Int64
		inflight atomic.Int64 // producers between their two state reads
		straddle atomic.Int64 // last state a producer read on both sides of an ingest
		accepted [rounds + 1]atomic.Int64
		executed [rounds + 1]atomic.Int64
	}
	names := []*churned{{name: "x"}, {name: "y"}}
	// The budget keeps each name's backlog short (refusals are legitimate
	// outcomes here), so draining for a cancel stays quick under -race.
	spec := func(n *churned, inc int) dataflow.JobSpec {
		return dataflow.JobSpec{
			Name: n.name, Latency: vtime.Second, Sources: producers, MaxPending: 256,
			Stages: []dataflow.StageSpec{
				{Name: "fwd", Parallelism: 2, NewHandler: func(int) dataflow.Handler {
					return dataflow.HandlerFunc(func(_ *dataflow.Context, m *core.Message) []dataflow.Emission {
						b, _ := m.Payload.(*dataflow.Batch)
						return []dataflow.Emission{{Batch: b, P: m.P, T: m.T}}
					})
				}},
				{Name: "sink", Parallelism: 1, NewHandler: func(int) dataflow.Handler {
					return dataflow.HandlerFunc(func(_ *dataflow.Context, m *core.Message) []dataflow.Emission {
						if b, _ := m.Payload.(*dataflow.Batch); b != nil {
							n.executed[inc].Add(int64(b.Len()))
						}
						return nil
					})
				}},
			},
		}
	}
	e := New(Config{Workers: 2})
	for _, n := range names {
		if _, err := e.AddJob(spec(n, 0)); err != nil {
			t.Fatal(err)
		}
	}
	e.Start()
	defer e.Stop()

	var done atomic.Bool
	var wg sync.WaitGroup
	defer func() { // producers stop before the engine does, on every path
		done.Store(true)
		wg.Wait()
	}()
	for src := 0; src < producers; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for seq := 1; !done.Load(); seq++ {
				n := names[seq%len(names)]
				n.inflight.Add(1)
				s1 := n.state.Load()
				if s1&7 == closing {
					n.inflight.Add(-1)
					continue
				}
				b := dataflow.NewBatch(tuples)
				for k := 0; k < tuples; k++ {
					b.Append(vtime.Time(seq), int64(k), 1)
				}
				err := e.Ingest(n.name, src, b, vtime.Time(seq))
				s2 := n.state.Load()
				n.inflight.Add(-1)
				inc, phase := s1>>3&31, s1&7
				if phase == cancelled || phase == submitting {
					inc++ // the old incarnation is gone; only the next can accept
				}
				unknown := err != nil && strings.Contains(err.Error(), "unknown job")
				switch {
				case err == nil:
					n.accepted[inc].Add(tuples)
				case errors.Is(err, ErrJobPaused), errors.Is(err, ErrOverloaded), unknown:
				default:
					t.Errorf("ingest %s: %v", n.name, err)
					return
				}
				if s1 != s2 {
					continue
				}
				n.straddle.Store(s1)
				if (phase == paused && !errors.Is(err, ErrJobPaused)) ||
					(phase == cancelled && !unknown) || (phase == live && err != nil && !errors.Is(err, ErrOverloaded)) {
					t.Errorf("ingest %s in phase %d of incarnation %d = %v", n.name, phase, s1>>3&31, err)
					return
				}
			}
		}(src)
	}

	// publish stores a new state; await waits until some producer has
	// ingested entirely within it, so every checked phase is exercised.
	publish := func(n *churned, inc, phase int) int64 {
		n.seq++
		st := n.seq<<8 | int64(inc)<<3 | int64(phase)
		n.state.Store(st)
		return st
	}
	await := func(n *churned, st int64) {
		deadline := time.Now().Add(10 * time.Second)
		for n.straddle.Load() != st {
			if time.Now().After(deadline) {
				t.Fatalf("%s: no producer ingested within state %d", n.name, st)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	for r := 0; r < rounds; r++ {
		for _, n := range names {
			publish(n, r, pausing)
			if err := e.PauseJob(n.name); err != nil {
				t.Fatal(err)
			}
			await(n, publish(n, r, paused))
			publish(n, r, resuming)
			if err := e.ResumeJob(n.name); err != nil {
				t.Fatal(err)
			}
			await(n, publish(n, r, live))
			publish(n, r, closing)
			for n.inflight.Load() != 0 {
				time.Sleep(20 * time.Microsecond)
			}
			if ok, err := e.DrainJob(n.name, 10*time.Second); !ok || err != nil {
				t.Fatalf("%s did not drain for its cancel: %v", n.name, err)
			}
			if err := e.CancelJob(n.name); err != nil {
				t.Fatal(err)
			}
			await(n, publish(n, r, cancelled))
			publish(n, r, submitting)
			if _, err := e.AddJob(spec(n, r+1)); err != nil {
				t.Fatal(err)
			}
			await(n, publish(n, r+1, live))
		}
	}
	done.Store(true)
	wg.Wait()
	testkit.DrainOrFail(t, e, 10*time.Second)

	for _, n := range names {
		for inc := range n.accepted {
			if a, x := n.accepted[inc].Load(), n.executed[inc].Load(); a != x {
				t.Errorf("%s incarnation %d: accepted %d tuples, its sink saw %d", n.name, inc, a, x)
			}
		}
	}
	if created, executed, discarded := e.Created(), e.Executed(), e.Discarded(); created != executed+discarded {
		t.Errorf("created %d messages, executed %d + discarded %d", created, executed, discarded)
	}
	if p := e.Pending(); p != 0 {
		t.Errorf("%d messages pending after drain", p)
	}
}
