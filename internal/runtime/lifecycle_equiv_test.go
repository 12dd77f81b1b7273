package runtime_test

// Lifecycle-script equivalence: the static-workload equivalence tests
// (equiv_test.go) pin the dispatchers' ordering decisions on a frozen job
// set; these extend the pin to a scripted sequence of submit, pause,
// resume, and cancel events on a LIVE engine. The same determinism knobs
// apply (progress-only policy, infinite quantum, 1 worker), plus one new
// one: every chunk of work is staged in full while a gate job holds the
// single worker inside its handler (a paused job refuses ingest with
// ErrJobPaused, so parking chunks behind a pause is no longer possible),
// then released with a drain barrier before the next lifecycle event — so
// the worker races nothing and the trace is a pure function of priorities
// and the script.
//
// Three properties are pinned:
//
//   - two runs of the same script produce identical per-message execution
//     orders (operator, message ID, progress);
//   - the cancel discards exactly the messages the cancelled backlog
//     created — a number computed from the workload, not read off a run;
//   - the surviving job's executions and outputs are identical to a run
//     of the same script WITHOUT the churn — arriving, departing, paused,
//     and cancelled neighbors must not perturb a bystander job (message
//     IDs differ across runs, so this comparison keys on operator +
//     progress).

import (
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/metrics"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// gate occupies the script engine's single worker on demand: its job's
// handler announces entry and then blocks until released, so a chunk of
// work can be ingested in full — queued but unexecuted — before the
// worker is handed back. The gate's own executions appear identically in
// every run of the same script, so trace comparisons are unaffected.
type gate struct {
	entered chan struct{}
	release chan struct{}
	n       int
}

func newGate(t *testing.T, e *runtime.Engine) *gate {
	t.Helper()
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	spec := dataflow.JobSpec{
		Name: "gate", Latency: vtime.Hour, Sources: 1,
		Stages: []dataflow.StageSpec{{
			Name: "g", Parallelism: 1,
			NewHandler: func(int) dataflow.Handler {
				return dataflow.HandlerFunc(func(*dataflow.Context, *core.Message) []dataflow.Emission {
					g.entered <- struct{}{}
					<-g.release
					return nil
				})
			},
		}},
	}
	if _, err := e.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	return g
}

// block ingests one gate message and waits until the worker is inside the
// gate handler — from here until unblock, nothing else executes.
func (g *gate) block(t *testing.T, e *runtime.Engine) {
	t.Helper()
	g.n++
	b := dataflow.NewBatch(1)
	b.Append(vtime.Time(g.n), 0, 1)
	if err := e.Ingest("gate", 0, b, vtime.Time(g.n)); err != nil {
		t.Fatal(err)
	}
	<-g.entered
}

func (g *gate) unblock() { g.release <- struct{}{} }

func keepWorkload() testkit.Workload {
	return testkit.Workload{Seed: 42, Sources: 2, Windows: 12, Tuples: 6, Keys: 8, Win: vtime.Second}
}

func churnWorkload() testkit.Workload {
	return testkit.Workload{Seed: 99, Sources: 2, Windows: 6, Tuples: 5, Keys: 8, Win: vtime.Second}
}

// ingestRange feeds windows [from, to] of wl into one job, with an
// optional trailing progress-only watermark at window close+1.
func ingestRange(t *testing.T, e *runtime.Engine, wl testkit.Workload, job string, from, to int, close bool) {
	t.Helper()
	for w := from; w <= to; w++ {
		for src := 0; src < wl.Sources; src++ {
			if err := e.Ingest(job, src, wl.Batch(src, w), wl.Progress(w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if close {
		for src := 0; src < wl.Sources; src++ {
			if err := e.Ingest(job, src, nil, wl.Progress(to+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// step runs one deterministic lifecycle step: park the worker behind the
// gate, ingest a chunk in full, release the worker, and drain the job —
// the barrier that keeps the 1-worker schedule a pure function of
// priorities.
func step(t *testing.T, e *runtime.Engine, g *gate, wl testkit.Workload, job string, from, to int, close bool) {
	t.Helper()
	g.block(t, e)
	ingestRange(t, e, wl, job, from, to, close)
	g.unblock()
	drained, err := e.DrainJob(job, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatalf("job %q did not drain", job)
	}
}

// The cancelled backlog: adhoc's windows [cancelFrom, cancelTo], staged
// behind the gate and cancelled before any of it executes, on a job whose
// stage 0 runs adhocPar instances.
const (
	cancelFrom, cancelTo = 5, 6
	adhocPar             = 2
)

// churnScript is the scripted submit/pause/resume/cancel sequence under
// priority policy pol. When churn is false only the surviving job's steps
// run — the no-churn reference for the bystander-isolation check.
func churnScript(t *testing.T, pol core.Policy, churn bool) *runtime.Engine {
	t.Helper()
	keep, adhoc := keepWorkload(), churnWorkload()
	e := runtime.New(runtime.Config{
		Workers:    1,
		Policy:     pol,
		Quantum:    vtime.Hour,
		DrainBatch: 1, // pin the unbatched schedule (see runtimeOrder)
		TraceLimit: equivTraceLimit,
		Recorder:   metrics.NewHistoryRecorder(), // the bystander check diffs output windows
	})
	e.WrapClock(newStrictClock)
	if _, err := e.AddJob(testkit.AggSpec("keep", keep.Sources, 2, keep.Win, vtime.Second)); err != nil {
		t.Fatal(err)
	}
	g := newGate(t, e)
	e.Start()

	step(t, e, g, keep, "keep", 1, 4, false)
	if churn {
		// Live submit, run a chunk, then leave a staged backlog behind and
		// cancel it — the discard path.
		if _, err := e.AddJob(testkit.AggSpec("adhoc", adhoc.Sources, adhocPar, adhoc.Win, vtime.Second)); err != nil {
			t.Fatal(err)
		}
		step(t, e, g, adhoc, "adhoc", 1, 4, false)
	}
	step(t, e, g, keep, "keep", 5, 8, false)
	if churn {
		// Stage a backlog behind the gate and cancel before any of it can
		// execute: every message of the staged windows is discarded, so the
		// discard count is a function of the workload.
		g.block(t, e)
		ingestRange(t, e, adhoc, "adhoc", cancelFrom, cancelTo, false)
		if err := e.CancelJob("adhoc"); err != nil {
			t.Fatal(err)
		}
		g.unblock()
		// Name reuse after cancel: a fresh job under the old name.
		if _, err := e.AddJob(testkit.AggSpec("adhoc", adhoc.Sources, adhocPar, adhoc.Win, vtime.Second)); err != nil {
			t.Fatal(err)
		}
		step(t, e, g, adhoc, "adhoc", 1, 2, false)
	}
	step(t, e, g, keep, "keep", 9, 12, true)
	e.Stop()
	return e
}

// opProgressKey is the cross-run identity of one execution: message IDs
// depend on how many neighbors allocated IDs first, so the churn-vs-solo
// comparison keys on operator and progress only.
type opProgressKey struct {
	Op string
	P  vtime.Time
}

func keepOnly(e *runtime.Engine) []opProgressKey {
	var out []opProgressKey
	for _, ev := range e.Trace().Events() {
		if ev.Job == "keep" {
			out = append(out, opProgressKey{Op: ev.Op, P: ev.P})
		}
	}
	return out
}

func TestLifecycleScriptEquivalence(t *testing.T) {
	// The script is deterministic under any priority policy that ignores
	// measured costs: progress priorities, and arrival order (FIFO), whose
	// stamps (read from a strictClock) follow the staged ingest order.
	for _, row := range []struct {
		name string
		pol  core.Policy
	}{{"cameo", testkit.ProgressPolicy{}}, {"fifo", core.ArrivalPolicy{}}} {
		t.Run(row.name, func(t *testing.T) {
			first := churnScript(t, row.pol, true)
			ref := keysOf(first.Trace().Events())
			if len(ref) == 0 {
				t.Fatal("churn script executed nothing")
			}
			diffOrders(t, "churn script run-to-run", ref, keysOf(churnScript(t, row.pol, true).Trace().Events()))
			// Every ingest fans out into one message per stage-0 instance, and
			// the cancel lands before any staged message executes.
			staged := int64((cancelTo - cancelFrom + 1) * churnWorkload().Sources * adhocPar)
			if got := first.Discarded(); got != staged {
				t.Fatalf("cancel discarded %d messages, the staged backlog created %d", got, staged)
			}

			// Bystander isolation: the surviving job must execute and emit
			// exactly as in a churn-free run of its own script.
			solo := churnScript(t, row.pol, false)
			want, got := keepOnly(solo), keepOnly(first)
			if len(want) == 0 {
				t.Fatal("solo reference executed nothing")
			}
			if len(want) != len(got) {
				t.Fatalf("churn perturbed the surviving job: %d executions vs %d solo", len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("churn perturbed the surviving job at execution %d: %+v vs solo %+v",
						i, got[i], want[i])
				}
			}
			soloOut := solo.Recorder().Job("keep").Outputs
			churnOut := first.Recorder().Job("keep").Outputs
			if len(soloOut) == 0 {
				t.Fatal("solo reference emitted nothing")
			}
			if len(soloOut) != len(churnOut) {
				t.Fatalf("surviving job emitted %d outputs under churn, %d solo", len(churnOut), len(soloOut))
			}
			for i := range soloOut {
				if soloOut[i].Window != churnOut[i].Window {
					t.Fatalf("output %d diverges: window %d under churn, %d solo",
						i, churnOut[i].Window, soloOut[i].Window)
				}
			}
		})
	}
}
