package sim

import (
	"testing"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/queue"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/workload"
)

// FIFODispatcher is the reference for the FIFO baseline: the stand-alone
// dispatcher it was before core built it as the Orleans dispatcher over a
// bag with no local lists. Kept verbatim so TestFIFOMatchesReference can
// show the two schedule identically.
//
// FIFODispatcher is the paper's custom FIFO baseline (§6): "we insert
// operators into the global run queue and extract them in FIFO order",
// with each operator processing its messages in FIFO order. State is
// intrusive like the other dispatchers'.
type FIFODispatcher[O core.Handle] struct {
	runq    queue.Ring[O]
	pending int
}

// Name implements Dispatcher.
func (d *FIFODispatcher[O]) Name() string { return "fifo" }

// Push implements Dispatcher.
func (d *FIFODispatcher[O]) Push(op O, m *core.Message, producer int) {
	st := op.Sched()
	st.FIFO.PushBack(m)
	d.pending++
	if !st.OnQueue && st.Phase == core.OpLive {
		st.OnQueue = true
		d.runq.PushBack(op)
	}
}

// NextOp implements Dispatcher.
func (d *FIFODispatcher[O]) NextOp(worker int) (O, bool) {
	return d.runq.PopFront()
}

// PopMsg implements Dispatcher.
func (d *FIFODispatcher[O]) PopMsg(op O) (*core.Message, bool) {
	m, ok := op.Sched().FIFO.PopFront()
	if ok {
		d.pending--
	}
	return m, ok
}

// PeekMsg implements Dispatcher.
func (d *FIFODispatcher[O]) PeekMsg(op O) (*core.Message, bool) {
	return op.Sched().FIFO.PeekFront()
}

// Done implements Dispatcher.
func (d *FIFODispatcher[O]) Done(op O, worker int) {
	st := op.Sched()
	if st.Phase != core.OpLive || st.FIFO.Len() == 0 {
		st.OnQueue = false
		return
	}
	d.runq.PushBack(op)
}

// ShouldYield implements Dispatcher: yield to the back of the queue after
// the quantum whenever anything else is waiting.
func (d *FIFODispatcher[O]) ShouldYield(op O) bool { return d.runq.Len() > 0 }

// QueueLen implements Dispatcher.
func (d *FIFODispatcher[O]) QueueLen(op O) int { return op.Sched().FIFO.Len() }

// Pending implements Dispatcher.
func (d *FIFODispatcher[O]) Pending() int { return d.pending }

// TestFIFOMatchesReference runs seeded two-node clusters of 1–4 workers,
// each shared by a latency-sensitive job and a bulk job whose stage-0
// instances (two per worker) keep the workers about 80 % busy while the
// sources run, under the FIFO scheduler and again with every node's
// dispatcher replaced by the reference. Messages, busy time, switches and
// every job's latency values must be equal. The seed moves the keys, and
// with them the per-message costs, and each source's phase.
func TestFIFOMatchesReference(t *testing.T) {
	agg := func(name string, par int, win vtime.Duration, cost dataflow.CostModel) dataflow.StageSpec {
		return dataflow.StageSpec{Name: name, Parallelism: par, Slide: win, Cost: cost,
			NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum, Global: par == 1})}
	}
	feed := func(seed uint64, sources int, cfg workload.SourceConfig) *workload.Feed {
		cfgs := make([]workload.SourceConfig, sources)
		for i := range cfgs {
			cfgs[i] = cfg
			cfgs[i].Phase = vtime.Duration((seed*7919+uint64(i)*104729)%uint64(cfg.Interval/vtime.Microsecond)) * vtime.Microsecond
		}
		return workload.NewFeed(seed, cfgs...)
	}
	run := func(workers int, seed uint64, reference bool) Results {
		c := New(Config{
			Nodes: 2, WorkersPerNode: workers, Scheduler: FIFO,
			SwitchCost:   50 * vtime.Microsecond,
			NetworkDelay: vtime.Millisecond,
			End:          4 * vtime.Second,
		})
		if reference {
			for _, n := range c.nodes {
				n.disp = &FIFODispatcher[*dataflow.Operator]{}
			}
		}
		bulk := dataflow.JobSpec{Name: "bulk", Latency: 10 * vtime.Second, Sources: 8, Stages: []dataflow.StageSpec{
			agg("agg", 2*workers, vtime.Second, dataflow.CostModel{Base: 4 * vtime.Millisecond, PerTuple: 50 * vtime.Microsecond}),
			agg("total", 1, vtime.Second, dataflow.CostModel{Base: vtime.Millisecond}),
		}}
		ls := dataflow.JobSpec{Name: "ls", Latency: 50 * vtime.Millisecond, Sources: 4, Stages: []dataflow.StageSpec{
			agg("agg", 2, 200*vtime.Millisecond, dataflow.CostModel{Base: 200 * vtime.Microsecond, PerTuple: 2 * vtime.Microsecond}),
			agg("report", 1, 200*vtime.Millisecond, dataflow.CostModel{Base: 200 * vtime.Microsecond}),
		}}
		for _, j := range []struct {
			spec dataflow.JobSpec
			feed *workload.Feed
		}{
			{bulk, feed(seed, 8, workload.SourceConfig{Interval: 40 * vtime.Millisecond,
				Rate: workload.ConstantRate(8), Keys: 64, End: 3 * vtime.Second})},
			{ls, feed(seed+1, 4, workload.SourceConfig{Interval: 50 * vtime.Millisecond,
				Rate: workload.ConstantRate(10), Keys: 16, End: 3 * vtime.Second})},
		} {
			if _, err := c.AddJob(j.spec, j.feed); err != nil {
				t.Fatal(err)
			}
		}
		return c.Run()
	}
	for workers := 1; workers <= 4; workers++ {
		for seed := uint64(1); seed <= 2; seed++ {
			got, want := run(workers, seed, false), run(workers, seed, true)
			if got.Messages != want.Messages || got.BusyTime != want.BusyTime || got.Switches != want.Switches {
				t.Fatalf("workers %d seed %d: messages/busy/switches %d/%v/%d, reference %d/%v/%d",
					workers, seed, got.Messages, got.BusyTime, got.Switches,
					want.Messages, want.BusyTime, want.Switches)
			}
			for _, job := range []string{"ls", "bulk"} {
				g := got.Recorder.Job(job).Latencies.Values()
				w := want.Recorder.Job(job).Latencies.Values()
				if len(g) == 0 || len(g) != len(w) {
					t.Fatalf("workers %d seed %d job %s: %d outputs, reference %d", workers, seed, job, len(g), len(w))
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("workers %d seed %d job %s: latency %d is %v, reference %v", workers, seed, job, i, g[i], w[i])
					}
				}
			}
		}
	}
}
