package runtime

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

const testWin = 50 * vtime.Millisecond

func lsSpec(name string) dataflow.JobSpec {
	return testkit.AggSpec(name, 2, 2, testWin, 500*vtime.Millisecond)
}

// testLoad is the shared seeded workload: 10 windows x 2 sources x 10
// tuples.
func testLoad(windows int) testkit.Workload {
	return testkit.Workload{Seed: 7, Sources: 2, Windows: windows, Tuples: 10, Keys: 10, Win: testWin}
}

func TestEngineEndToEnd(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			e := New(cell.Cfg(Config{Workers: 2}))
			if _, err := e.AddJob(lsSpec("j")); err != nil {
				t.Fatal(err)
			}
			e.Start()
			testLoad(10).IngestAll(t, e, "j")
			testkit.DrainOrFail(t, e, 5*time.Second)
			e.Stop()
			js := e.Recorder().Job("j")
			if js.Count() < 8 {
				t.Fatalf("outputs = %d, want >= 8", js.Count())
			}
			if e.Executed() == 0 {
				t.Fatal("no messages executed")
			}
			snap := e.Overhead().Snapshot()
			if snap.Exec <= 0 || snap.Messages != e.Executed() {
				t.Fatalf("overhead accounting %+v", snap)
			}
		})
	}
}

func TestEngineConcurrentIngest(t *testing.T) {
	e := New(Config{Workers: 4})
	if _, err := e.AddJob(lsSpec("j")); err != nil {
		t.Fatal(err)
	}
	e.Start()

	wl := testkit.Workload{Seed: 3, Sources: 2, Windows: 50, Tuples: 5, Keys: 5, Win: testWin}
	var wg sync.WaitGroup
	for src := 0; src < wl.Sources; src++ {
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
	testkit.DrainOrFail(t, e, 5*time.Second)
	if e.Recorder().Job("j").Count() < 40 {
		t.Fatalf("outputs = %d", e.Recorder().Job("j").Count())
	}
	e.Stop()
}

func TestEngineErrors(t *testing.T) {
	e := New(Config{})
	if _, err := e.AddJob(lsSpec("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddJob(lsSpec("a")); err == nil {
		t.Fatal("duplicate job accepted")
	}
	if err := e.Ingest("ghost", 0, nil, 0); err == nil {
		t.Fatal("ingest for unknown job accepted")
	}
	for _, op := range []func() error{
		func() error { return e.CancelJob("ghost") },
		func() error { return e.PauseJob("ghost") },
		func() error { return e.ResumeJob("ghost") },
		func() error { _, err := e.DrainJob("ghost", time.Millisecond); return err },
	} {
		if err := op(); err == nil {
			t.Fatal("lifecycle op for unknown job accepted")
		}
	}
	e.Start()
	if _, err := e.AddJob(lsSpec("b")); err != nil {
		t.Fatalf("AddJob on a running engine: %v", err)
	}
	if _, err := e.AddJob(lsSpec("b")); err == nil {
		t.Fatal("duplicate live-submitted job accepted")
	}
	e.Stop()
	e.Stop() // idempotent
	if _, err := e.AddJob(lsSpec("c")); err == nil {
		t.Fatal("AddJob after Stop accepted")
	}
}

func TestEngineStopWithoutStart(t *testing.T) {
	e := New(Config{})
	e.Stop() // must not hang or panic
}

func TestEngineDrainTimeout(t *testing.T) {
	// A slow handler holds a message long enough for Drain's short timeout
	// to expire.
	slow := dataflow.JobSpec{
		Name: "slow", Latency: vtime.Second, Sources: 1,
		Stages: []dataflow.StageSpec{{
			Name: "s", Parallelism: 1,
			NewHandler: func(int) dataflow.Handler {
				return dataflow.HandlerFunc(func(*dataflow.Context, *core.Message) []dataflow.Emission {
					time.Sleep(300 * time.Millisecond)
					return nil
				})
			},
		}},
	}
	e := New(Config{Workers: 1})
	if _, err := e.AddJob(slow); err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	b := dataflow.NewBatch(1)
	b.Append(1, 0, 1)
	if err := e.Ingest("slow", 0, b, 1); err != nil {
		t.Fatal(err)
	}
	if e.Drain(10 * time.Millisecond) {
		t.Fatal("Drain reported success while a message was executing")
	}
	if !e.Drain(3 * time.Second) {
		t.Fatal("Drain never completed")
	}
}

func TestEnginePanicIsolation(t *testing.T) {
	// A handler panic quarantines its job — paused, marked failed, backlog
	// retained — while a healthy neighbor keeps executing. The panicked
	// message is dropped (counted executed, no emissions) and the engine
	// survives with conservation intact once the quarantined job is
	// cancelled.
	spec := dataflow.JobSpec{
		Name: "panicky", Latency: vtime.Second, Sources: 1,
		Stages: []dataflow.StageSpec{{
			Name: "p", Parallelism: 1,
			NewHandler: func(int) dataflow.Handler {
				return dataflow.HandlerFunc(func(*dataflow.Context, *core.Message) []dataflow.Emission {
					panic("handler bug")
				})
			},
		}},
	}
	e := New(Config{Workers: 1})
	if _, err := e.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddJob(lsSpec("healthy")); err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	for i := 1; i <= 9; i++ {
		b := dataflow.NewBatch(1)
		b.Append(vtime.Time(i), 0, 1)
		err := e.Ingest("panicky", 0, b, vtime.Time(i))
		if errors.Is(err, ErrJobPaused) {
			break // quarantine landed mid-ingest: also fine
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !e.JobFailed("panicky") {
		if time.Now().After(deadline) {
			t.Fatal("job never quarantined after handler panic")
		}
		time.Sleep(time.Millisecond)
	}
	if !e.JobPaused("panicky") {
		t.Fatal("quarantined job is not paused")
	}
	if e.HandlerPanics() == 0 {
		t.Fatal("HandlerPanics = 0 after a handler panic")
	}
	if err := e.Ingest("panicky", 0, nil, vtime.Time(100)); !errors.Is(err, ErrJobPaused) {
		t.Fatalf("ingest into quarantined job = %v, want ErrJobPaused", err)
	}

	// The healthy neighbor is unaffected by the quarantine.
	testLoad(5).IngestAll(t, e, "healthy")
	if drained, err := e.DrainJob("healthy", 10*time.Second); err != nil || !drained {
		t.Fatalf("healthy job did not drain (drained=%v err=%v)", drained, err)
	}
	if e.Recorder().Job("healthy").Count() < 4 {
		t.Fatalf("healthy outputs = %d, want >= 4", e.Recorder().Job("healthy").Count())
	}
	if e.JobFailed("healthy") {
		t.Fatal("healthy job marked failed")
	}

	// Cancelling the quarantined job discards its retained backlog and
	// settles conservation: created == executed + discarded.
	if err := e.CancelJob("panicky"); err != nil {
		t.Fatal(err)
	}
	if e.JobFailed("panicky") {
		t.Fatal("failed mark survived CancelJob")
	}
	if created, executed, discarded := e.msgID.Load(), e.Executed(), e.Discarded(); created != executed+discarded {
		t.Fatalf("created %d != executed %d + discarded %d after quarantine + cancel",
			created, executed, discarded)
	}
}

func TestEngineMeasuresCosts(t *testing.T) {
	// The profiled cost of a deliberately slow operator must reflect the
	// real execution time, proving measured (not modelled) profiling.
	spec := dataflow.JobSpec{
		Name: "prof", Latency: vtime.Second, Sources: 1,
		Stages: []dataflow.StageSpec{{
			Name: "slow", Parallelism: 1,
			NewHandler: func(int) dataflow.Handler {
				return dataflow.HandlerFunc(func(*dataflow.Context, *core.Message) []dataflow.Emission {
					time.Sleep(5 * time.Millisecond)
					return nil
				})
			},
		}},
	}
	e := New(Config{Workers: 1})
	job, err := e.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	for i := 1; i <= 5; i++ {
		b := dataflow.NewBatch(1)
		b.Append(vtime.Time(i), 0, 1)
		if err := e.Ingest("prof", 0, b, vtime.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	got := job.Stages[0][0].Profile.Cost.Value()
	if got < 4*vtime.Millisecond {
		t.Fatalf("profiled cost = %v, want >= ~5ms", got)
	}
}
