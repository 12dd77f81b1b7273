package sim

import (
	"testing"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/workload"
)

func smallScale() workload.Scale {
	return workload.Scale{Sources: 4, TuplesPerMsg: 50, Horizon: 30 * vtime.Second}
}

func runLS(t *testing.T, kind SchedulerKind) Results {
	t.Helper()
	c := New(Config{
		Nodes: 1, WorkersPerNode: 2, Scheduler: kind,
		End: 35 * vtime.Second,
	})
	q := workload.LSJob("ls", smallScale(), 800*vtime.Millisecond)
	if _, err := c.AddJob(q.Spec, q.Feed(1)); err != nil {
		t.Fatal(err)
	}
	return c.Run()
}

func TestSimProducesOutputsAllSchedulers(t *testing.T) {
	for _, kind := range []SchedulerKind{Cameo, Orleans, FIFO} {
		res := runLS(t, kind)
		js := res.Recorder.Job("ls")
		// 30s of 1s windows: at least ~25 outputs expected (warmup aside).
		if js.Latencies.Len() < 20 {
			t.Errorf("%v: only %d outputs", kind, js.Latencies.Len())
		}
		if res.Messages == 0 || res.BusyTime == 0 {
			t.Errorf("%v: no work executed", kind)
		}
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Errorf("%v: utilization = %v", kind, res.Utilization)
		}
		// Sanity: latencies are positive and below the horizon.
		sum := js.Latencies.Summarize()
		if sum.Min < 0 || sum.Max > float64(35*vtime.Second) {
			t.Errorf("%v: latency range [%v, %v] implausible", kind, sum.Min, sum.Max)
		}
	}
}

func TestSimDeterministic(t *testing.T) {
	run := func() Results { return runLS(t, Cameo) }
	a, b := run(), run()
	if a.Messages != b.Messages || a.BusyTime != b.BusyTime || a.Switches != b.Switches {
		t.Fatalf("runs diverged: %+v vs %+v",
			[3]int64{a.Messages, int64(a.BusyTime), a.Switches},
			[3]int64{b.Messages, int64(b.BusyTime), b.Switches})
	}
	la := a.Recorder.Job("ls").Latencies.Values()
	lb := b.Recorder.Job("ls").Latencies.Values()
	if len(la) != len(lb) {
		t.Fatalf("output counts diverged: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("latency %d diverged: %v vs %v", i, la[i], lb[i])
		}
	}
}

func TestSimOutputCorrectness(t *testing.T) {
	// Deterministic single-source pipeline: each 1s window of a constant
	// 10-tuple stream must produce exactly one global count result of 10.
	var sink *countingSink
	spec := dataflow.JobSpec{
		Name: "count", Latency: vtime.Second, Sources: 1,
		Stages: []dataflow.StageSpec{
			{Name: "sink", Parallelism: 1, Slide: vtime.Second,
				NewHandler: func(in int) dataflow.Handler {
					sink = newCountingSink(in)
					return sink
				},
				Cost: dataflow.CostModel{Base: vtime.Millisecond}},
		},
	}
	c := New(Config{Nodes: 1, WorkersPerNode: 1, Scheduler: Cameo, End: 12 * vtime.Second})
	feed := workload.Uniform(3, 1, workload.SourceConfig{
		Interval: vtime.Second, Rate: workload.ConstantRate(10), Keys: 4, End: 10 * vtime.Second,
	})
	if _, err := c.AddJob(spec, feed); err != nil {
		t.Fatal(err)
	}
	res := c.Run()
	js := res.Recorder.Job("count")
	if js.Latencies.Len() < 8 {
		t.Fatalf("outputs = %d", js.Latencies.Len())
	}
	for _, v := range sink.counts {
		if v != 10 {
			t.Fatalf("window count = %v, want 10 (sink saw %v)", v, sink.counts)
		}
	}
}

// countingSink wraps a global tumbling count and records every emitted
// window count, to verify end-to-end tuple conservation through the
// simulator.
type countingSink struct {
	inner  dataflow.Handler
	counts []float64
}

func newCountingSink(in int) *countingSink {
	return &countingSink{
		inner: operators.WindowAgg(operators.WindowAggSpec{
			Size: vtime.Second, Slide: vtime.Second, Agg: operators.Count, Global: true,
		})(in),
	}
}

func (s *countingSink) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
	out := s.inner.OnMessage(ctx, m)
	for _, e := range out {
		for _, v := range e.Batch.Vals {
			s.counts = append(s.counts, v)
		}
	}
	return out
}

func TestSimMultiNodeNetworkDelay(t *testing.T) {
	mk := func(delay vtime.Duration) Results {
		c := New(Config{
			Nodes: 2, WorkersPerNode: 1, Scheduler: Cameo,
			NetworkDelay: delay, End: 35 * vtime.Second,
		})
		q := workload.LSJob("ls", smallScale(), 800*vtime.Millisecond)
		if _, err := c.AddJob(q.Spec, q.Feed(1)); err != nil {
			t.Fatal(err)
		}
		return c.Run()
	}
	fast := mk(0)
	slow := mk(20 * vtime.Millisecond)
	mf := fast.Recorder.Job("ls").Latencies.Median()
	ms := slow.Recorder.Job("ls").Latencies.Median()
	if ms <= mf {
		t.Fatalf("network delay did not increase latency: %v <= %v", ms, mf)
	}
}

func TestSimSwitchCostCountsSwitches(t *testing.T) {
	c := New(Config{
		Nodes: 1, WorkersPerNode: 1, Scheduler: Cameo,
		SwitchCost: 100 * vtime.Microsecond, End: 20 * vtime.Second,
	})
	q := workload.LSJob("ls", smallScale(), 800*vtime.Millisecond)
	if _, err := c.AddJob(q.Spec, q.Feed(1)); err != nil {
		t.Fatal(err)
	}
	res := c.Run()
	if res.Switches == 0 {
		t.Fatal("no operator switches recorded")
	}
}

func TestSimScheduleTrace(t *testing.T) {
	c := New(Config{
		Nodes: 1, WorkersPerNode: 1, Scheduler: Cameo,
		TraceLimit: 100, End: 10 * vtime.Second,
	})
	q := workload.LSJob("ls", smallScale(), 800*vtime.Millisecond)
	if _, err := c.AddJob(q.Spec, q.Feed(1)); err != nil {
		t.Fatal(err)
	}
	res := c.Run()
	evs := res.Trace.Events()
	if len(evs) == 0 || len(evs) > 100 {
		t.Fatalf("trace events = %d", len(evs))
	}
	for _, e := range evs {
		if e.Cost <= 0 || e.Job != "ls" {
			t.Fatalf("bad trace event %+v", e)
		}
	}
}

func TestSimCameoBeatsBaselinesUnderContention(t *testing.T) {
	// The paper's core claim, miniaturized: an LS job collocated with a
	// heavy BA job on a constrained worker pool. Cameo must hold the LS
	// job's tail latency well below the baselines'.
	run := func(kind SchedulerKind) float64 {
		c := New(Config{
			Nodes: 1, WorkersPerNode: 1, Scheduler: kind,
			End: 60 * vtime.Second,
		})
		// The BA job's bursty bulk messages (~290 ms of queued work per
		// second-boundary) land exactly when the LS job's windows close.
		sc := workload.Scale{Sources: 4, TuplesPerMsg: 100, Horizon: 55 * vtime.Second}
		ls := workload.LSJob("ls", sc, 150*vtime.Millisecond)
		ba := workload.BAJob("ba", sc, 240, nil)
		// BA added first: its burst reaches the run queue ahead of the LS
		// window-closing messages, so order-insensitive prioritization —
		// not arrival luck — is what the assertion measures.
		if _, err := c.AddJob(ba.Spec, ba.Feed(2)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddJob(ls.Spec, ls.Feed(1)); err != nil {
			t.Fatal(err)
		}
		res := c.Run()
		return res.Recorder.Job("ls").Latencies.Quantile(0.99)
	}
	cameo := run(Cameo)
	orleans := run(Orleans)
	fifo := run(FIFO)
	if cameo >= orleans || cameo >= fifo {
		t.Fatalf("Cameo p99 %.1fms not better than Orleans %.1fms / FIFO %.1fms",
			cameo/1000, orleans/1000, fifo/1000)
	}
}

func TestSimQuantumBoundsHeadOfLineBlocking(t *testing.T) {
	// One worker; a bulk job whose 16 lockstep sources dump ~640ms of
	// queued work each second into one operator, plus a sparse urgent job.
	// The urgent job's messages preempt at quantum boundaries, so its tail
	// latency must grow with the quantum and stay within quantum + one
	// message of the fine-grained case.
	run := func(quantum vtime.Duration) float64 {
		c := New(Config{
			Nodes: 1, WorkersPerNode: 1, Scheduler: Cameo,
			Quantum: quantum,
			End:     30 * vtime.Second,
		})
		bulk := dataflow.JobSpec{
			Name: "bulk", Latency: 7200 * vtime.Second, Sources: 16,
			Stages: []dataflow.StageSpec{{
				Name: "chew", Parallelism: 1,
				NewHandler: testkit.NopHandler,
				Cost:       dataflow.CostModel{Base: 40 * vtime.Millisecond},
			}},
		}
		bulkFeed := workload.Uniform(1, 16, workload.SourceConfig{
			Interval: vtime.Second, Rate: workload.ConstantRate(1), Keys: 1,
			End: 25 * vtime.Second,
		})
		if _, err := c.AddJob(bulk, bulkFeed); err != nil {
			t.Fatal(err)
		}
		urgent := dataflow.JobSpec{
			Name: "urgent", Latency: 200 * vtime.Millisecond, Sources: 1,
			Stages: []dataflow.StageSpec{{
				Name: "emit", Parallelism: 1,
				NewHandler: operators.Emit(),
				Cost:       dataflow.CostModel{Base: vtime.Millisecond},
			}},
		}
		// Urgent messages arrive mid-drain (offset phase).
		urgentFeed := workload.Uniform(2, 1, workload.SourceConfig{
			Interval: vtime.Second, Rate: workload.ConstantRate(1), Keys: 1,
			Phase: 150 * vtime.Millisecond, End: 25 * vtime.Second,
		})
		if _, err := c.AddJob(urgent, urgentFeed); err != nil {
			t.Fatal(err)
		}
		res := c.Run()
		return res.Recorder.Job("urgent").Latencies.Quantile(0.99)
	}
	fine := run(vtime.Millisecond)
	coarse := run(200 * vtime.Millisecond)
	if coarse <= fine {
		t.Fatalf("coarse quantum p99 %.1fms not above fine %.1fms", coarse/1000, fine/1000)
	}
	// Fine-grained: wait bounded by ~one bulk message (40ms) + own cost.
	if fine > float64(80*vtime.Millisecond) {
		t.Fatalf("fine-quantum p99 %.1fms exceeds one-message blocking bound", fine/1000)
	}
	// Coarse: bounded by ~quantum + one message.
	if coarse > float64(300*vtime.Millisecond) {
		t.Fatalf("coarse-quantum p99 %.1fms exceeds quantum+message bound", coarse/1000)
	}
}

func TestSimRunTwicePanics(t *testing.T) {
	c := New(Config{End: vtime.Second})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Run()
}

func TestSimAddJobAfterRunFails(t *testing.T) {
	c := New(Config{End: vtime.Second})
	c.Run()
	if _, err := c.AddJob(testkit.NopSpec("x"), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestSchedulerKindString(t *testing.T) {
	if Cameo.String() != "cameo" || Orleans.String() != "orleans" || FIFO.String() != "fifo" {
		t.Fatal("names")
	}
}
