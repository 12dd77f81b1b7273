package runtime

// The N-worker stress of the sharded paths now that every operator carries
// its own scheduling lock: many operators over several jobs, concurrent
// producers, and a lifecycle goroutine pausing, resuming and cancelling
// jobs under them. Meant for -race.

import (
	"errors"
	"fmt"
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

// orderChecker builds handlers that assert what the operator lock is
// there to guarantee: one worker per operator at a time, and — per input
// channel — executions in strictly increasing (PriLocal, ID) order. The
// stress jobs have one source and forward progress unchanged, so every
// channel's messages are pushed in increasing order; whatever the
// interleaving of pushes, batched pops, returned batch tails and
// lifecycle calls, a correct per-operator heap executes them in that
// order. forward makes the handler pass its payload on (exercising batch
// partitioning and the pools); the last stage consumes.
type orderChecker struct {
	violations atomic.Int64
	first      atomic.Pointer[string]
}

func (c *orderChecker) fail(format string, args ...any) {
	c.violations.Add(1)
	msg := fmt.Sprintf(format, args...)
	c.first.CompareAndSwap(nil, &msg)
}

func (c *orderChecker) handler(forward bool) func(int) dataflow.Handler {
	return func(inChannels int) dataflow.Handler {
		type key struct {
			pri vtime.Time
			id  int64
		}
		last := make([]key, inChannels)
		var busy atomic.Bool
		return dataflow.HandlerFunc(func(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
			if !busy.CompareAndSwap(false, true) {
				c.fail("%s executing on two workers at once", ctx.Op.Name)
			}
			defer busy.Store(false)
			if m.ID <= 0 {
				c.fail("%s handed a released message (ID %d)", ctx.Op.Name, m.ID)
			}
			k, prev := key{m.PC.PriLocal, m.ID}, last[m.Channel]
			if k.pri < prev.pri || (k.pri == prev.pri && k.id <= prev.id) {
				c.fail("%s channel %d: popped (%d, %d) after (%d, %d)",
					ctx.Op.Name, m.Channel, k.pri, k.id, prev.pri, prev.id)
			}
			last[m.Channel] = k
			if !forward {
				return nil
			}
			b, _ := m.Payload.(*dataflow.Batch)
			return []dataflow.Emission{{Batch: b, P: m.P, T: m.T}}
		})
	}
}

func TestShardedManyOperatorsStress(t *testing.T) {
	const (
		jobs, par = 8, 4 // 8 jobs × 2 stages × 4 instances = 64 operators
		windows   = 120
		cancelled = 2 // the first two jobs are cancelled mid-run
	)
	for _, kind := range []core.SchedulerKind{core.CameoScheduler, core.OrleansScheduler} {
		t.Run(kind.String(), func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			var check orderChecker
			e := New(Config{Workers: 4, Scheduler: kind, Policy: testkit.ProgressPolicy{},
				Dispatch: DispatchSharded, DrainBatch: 4, Quantum: 50 * vtime.Microsecond})
			name := func(j int) string { return fmt.Sprintf("j%d", j) }
			for j := 0; j < jobs; j++ {
				_, err := e.AddJob(dataflow.JobSpec{
					Name: name(j), Latency: vtime.Second, Sources: 1,
					Stages: []dataflow.StageSpec{
						{Name: "a", Parallelism: par, NewHandler: check.handler(true)},
						{Name: "b", Parallelism: par, NewHandler: check.handler(false)},
					},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			e.Start()

			wl := testkit.Workload{Seed: 31, Sources: 1, Windows: windows, Tuples: 8, Keys: 64, Win: vtime.Millisecond}
			var producers sync.WaitGroup
			halfway := make(chan struct{}, jobs)
			for j := 0; j < jobs; j++ {
				producers.Add(1)
				go func(j int) {
					defer producers.Done()
					for w := 1; w <= windows; w++ {
						if w == windows/2 {
							halfway <- struct{}{}
						}
						err := e.Ingest(name(j), 0, wl.Batch(0, w), wl.Progress(w))
						switch {
						case err == nil:
						case errors.Is(err, ErrJobPaused):
							w-- // the lifecycle goroutine holds it; retry
							time.Sleep(20 * time.Microsecond)
						case j < cancelled && strings.Contains(err.Error(), "unknown job"):
							return
						default:
							t.Error(err)
							return
						}
					}
				}(j)
			}
			lifecycle := make(chan struct{})
			go func() {
				defer close(lifecycle)
				for i := 0; i < jobs; i++ {
					<-halfway
				}
				for j := 0; j < cancelled; j++ {
					if err := e.CancelJob(name(j)); err != nil {
						t.Error(err)
					}
				}
				for i := 0; i < 300; i++ {
					j := cancelled + i%(jobs-cancelled)
					if err := e.PauseJob(name(j)); err != nil {
						t.Error(err)
					}
					if err := e.ResumeJob(name(j)); err != nil {
						t.Error(err)
					}
				}
			}()
			producers.Wait()
			<-lifecycle
			testkit.DrainOrFail(t, e, 30*time.Second)
			e.Stop()

			if n := check.violations.Load(); n != 0 {
				t.Errorf("%d ordering/actor violations, first: %s", n, *check.first.Load())
			}
			if p := e.Pending(); p != 0 {
				t.Errorf("Pending() = %d after drain", p)
			}
			if c, x, d := e.Created(), e.Executed(), e.Discarded(); c != x+d {
				t.Errorf("conservation: created %d != executed %d + discarded %d", c, x, d)
			}
			if n := e.HandlerPanics(); n != 0 {
				t.Errorf("%d handler panics", n)
			}
		})
	}
}
