package runtime

// White-box reliability tests of the engine's dispatch path. The
// deterministic tests drive shardedPath directly (no goroutines); the
// concurrent ones run real worker pools and are meant for -race.

import (
	"sync"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/queue"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// pushOne delivers a single message the way a one-child execution does.
func pushOne(p *shardedPath, op *dataflow.Operator, m *core.Message, producer int) {
	p.deliver([]dataflow.ChildMessage{{Target: op, Msg: m}}, producer)
}

// priMsg builds a message whose scheduling priority is exactly pri.
func priMsg(id int64, pri vtime.Time) *core.Message {
	return &core.Message{ID: id, P: pri, PC: core.PriorityContext{PriLocal: pri, PriGlobal: pri}}
}

// TestShardedAcquireStealsMostUrgent pins the stealing contract at the
// dispatcher level: a worker with an empty lane steals the victim's most
// urgent operator (by head-message deadline), not an arbitrary one.
func TestShardedAcquireStealsMostUrgent(t *testing.T) {
	e := New(Config{Workers: 2})
	job, err := e.AddJob(testkit.NopSpec("j"))
	if err != nil {
		t.Fatal(err)
	}
	p := e.path
	lax, urgent, mid := job.Stages[0][0], job.Stages[0][1], job.Stages[1][0]

	// producer 0 places all three on worker 0's lane.
	pushOne(p, lax, priMsg(1, 300), 0)
	pushOne(p, urgent, priMsg(2, 10), 0)
	pushOne(p, mid, priMsg(3, 200), 0)
	if p.runq.LaneLen(0) != 3 {
		t.Fatalf("lane 0 holds %d ops, want 3", p.runq.LaneLen(0))
	}

	for _, want := range []*dataflow.Operator{urgent, mid, lax} {
		op, ok := p.acquire(1) // worker 1 is idle: must steal, most urgent first
		if !ok || op != want {
			t.Fatalf("acquire(1) = %v, want %v", op.Name, want.Name)
		}
		var buf [1]*core.Message
		if n, _ := p.popMsgs(op, buf[:]); n != 1 {
			t.Fatalf("stolen op %v has no message", op.Name)
		}
		p.release(op, 1)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after draining", e.Pending())
	}
}

// TestShardedRekeyOnNewHead: a more urgent message arriving for a waiting
// operator must re-key its run-queue entry so acquisition order follows
// the new head.
func TestShardedRekeyOnNewHead(t *testing.T) {
	e := New(Config{Workers: 1})
	job, err := e.AddJob(testkit.NopSpec("j"))
	if err != nil {
		t.Fatal(err)
	}
	p := e.path
	a, b := job.Stages[0][0], job.Stages[0][1]
	pushOne(p, a, priMsg(1, 100), -1)
	pushOne(p, b, priMsg(2, 50), -1)
	// a becomes the most urgent only after this push.
	pushOne(p, a, priMsg(3, 5), -1)
	op, ok := p.acquire(0)
	if !ok || op != a {
		t.Fatalf("acquire = %v, want re-keyed op %v", op.Name, a.Name)
	}
	var buf [1]*core.Message
	if n, _ := p.popMsgs(op, buf[:]); n != 1 {
		t.Fatalf("popMsgs = %d, want 1", n)
	}
	if buf[0].ID != 3 {
		t.Fatalf("head message ID = %d, want 3 (PriLocal order)", buf[0].ID)
	}
}

// TestShardedLockWaitReported: deliver and popMsgs report a wait for an
// operator lock another goroutine held — the worker then re-reads the
// clock, so the wait is not profiled as its next message's cost — and
// report none when the lock was free.
func TestShardedLockWaitReported(t *testing.T) {
	e := New(Config{Workers: 1})
	job, err := e.AddJob(testkit.NopSpec("j"))
	if err != nil {
		t.Fatal(err)
	}
	p := e.path
	op := job.Stages[0][0]
	st := op.Sched()
	var buf [1]*core.Message
	id := int64(0)
	push := func() bool {
		id++
		return p.deliver([]dataflow.ChildMessage{{Target: op, Msg: priMsg(id, 10)}}, -1)
	}
	pop := func() bool {
		n, waited := p.popMsgs(op, buf[:])
		if n != 1 {
			t.Errorf("popMsgs = %d, want 1", n)
		}
		return waited
	}
	// whileHeld runs f in another goroutine while this one holds the
	// operator lock; the hold is retried longer if f got there only after
	// the unlock.
	whileHeld := func(f func() bool) bool {
		for hold := time.Millisecond; hold <= 64*time.Millisecond; hold *= 2 {
			st.Mu.Lock()
			done := make(chan bool)
			go func() { done <- f() }()
			time.Sleep(hold)
			st.Mu.Unlock()
			if <-done {
				return true
			}
		}
		return false
	}
	if push() {
		t.Error("deliver reported a wait on a free lock")
	}
	if pop() {
		t.Error("popMsgs reported a wait on a free lock")
	}
	if !whileHeld(push) {
		t.Error("deliver reported no wait on a held lock")
	}
	for e.Pending() < 8 { // one message for every hold whileHeld may try
		push()
	}
	if !whileHeld(pop) {
		t.Error("popMsgs reported no wait on a held lock")
	}
}

// TestShardedOverflowLane: external arrivals overflow to the global lane
// when the round-robin lane is hoarding runnable operators.
func TestShardedOverflowLane(t *testing.T) {
	e := New(Config{Workers: 2})
	job, err := e.AddJob(testkit.AggSpec("j", 8, 8, vtime.Second, vtime.Second))
	if err != nil {
		t.Fatal(err)
	}
	p := e.path
	// Worker 0 makes four operators runnable on its own lane.
	for i := 0; i < 4; i++ {
		pushOne(p, job.Stages[0][i], priMsg(int64(i+1), 100), 0)
	}
	if lane := p.laneFor(-1); lane != queue.GlobalLane {
		t.Fatalf("laneFor(-1) = %d, want overflow to the global lane", lane)
	}
	// With load spread evenly the same arrival stays on a worker lane.
	p2 := New(Config{Workers: 2}).path
	if lane := p2.laneFor(-1); lane == queue.GlobalLane {
		t.Fatal("laneFor(-1) overflowed on an empty run queue")
	}
}

// TestShardedConcurrentProducersConsumers is the headline -race test:
// N producers ingesting batches (the grouped IngestBatch path) while M
// workers drain, with full message conservation at the end.
func TestShardedConcurrentProducersConsumers(t *testing.T) {
	defer testkit.LeakCheck(t)()
	const producers = 4
	e := New(Config{Workers: 4})
	if _, err := e.AddJob(testkit.AggSpec("j", producers, 4, testWin, vtime.Second)); err != nil {
		t.Fatal(err)
	}
	e.Start()

	wl := testkit.Workload{Seed: 11, Sources: producers, Windows: 60, Tuples: 8, Keys: 16, Win: testWin}
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

	// Conservation: every message the engine created was executed.
	if created, executed := e.msgID.Load(), e.Executed(); created != executed {
		t.Fatalf("created %d messages, executed %d — messages lost", created, executed)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
	if e.Recorder().Job("j").Count() == 0 {
		t.Fatal("no outputs recorded")
	}
}

// TestShardedStopWhileBusy: stopping an engine whose workers are mid-
// message and whose queues are deep must return promptly — no deadlock,
// no leaked workers.
func TestShardedStopWhileBusy(t *testing.T) {
	defer testkit.LeakCheck(t)()
	slow := dataflow.JobSpec{
		Name: "slow", Latency: vtime.Second, Sources: 2,
		Stages: []dataflow.StageSpec{{
			Name: "s", Parallelism: 4,
			NewHandler: func(int) dataflow.Handler {
				return dataflow.HandlerFunc(func(*dataflow.Context, *core.Message) []dataflow.Emission {
					time.Sleep(2 * time.Millisecond)
					return nil
				})
			},
		}},
	}
	e := New(Config{Workers: 4})
	if _, err := e.AddJob(slow); err != nil {
		t.Fatal(err)
	}
	e.Start()
	wl := testkit.Workload{Seed: 5, Sources: 2, Windows: 200, Tuples: 2, Keys: 4, Win: vtime.Millisecond}
	for w := 1; w <= wl.Windows; w++ {
		for src := 0; src < 2; src++ {
			if err := e.Ingest("slow", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	time.Sleep(5 * time.Millisecond) // let workers get busy

	done := make(chan struct{})
	go func() {
		e.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked with busy workers and deep queues")
	}
	if e.Executed() == 0 {
		t.Fatal("nothing executed before stop")
	}
}

// TestDrainWaitsForDerivedWork pins the Drain idle test: while a stage-0
// message is mid-execution the queue is momentarily empty, and the
// children it is about to emit must still hold Drain open. A non-atomic
// pending/active check returns true in that window (the bug this guards
// against); the outstanding counter must not.
func TestDrainWaitsForDerivedWork(t *testing.T) {
	spec := dataflow.JobSpec{
		Name: "cascade", Latency: vtime.Second, Sources: 1,
		Stages: []dataflow.StageSpec{
			{Name: "emit", Parallelism: 1,
				NewHandler: func(int) dataflow.Handler {
					return dataflow.HandlerFunc(func(_ *dataflow.Context, m *core.Message) []dataflow.Emission {
						time.Sleep(time.Millisecond) // widen the in-flight window
						b := dataflow.NewBatch(1)
						b.Append(m.P, 1, 1)
						return []dataflow.Emission{{Batch: b, P: m.P, T: m.T}}
					})
				}},
			{Name: "sink", Parallelism: 1, NewHandler: testkit.NopHandler},
		},
	}
	e := New(Config{Workers: 1})
	if _, err := e.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i := 1; i <= 20; i++ {
		b := dataflow.NewBatch(1)
		b.Append(vtime.Time(i), 0, 1)
		if err := e.Ingest("cascade", 0, b, vtime.Time(i)); err != nil {
			t.Fatal(err)
		}
		testkit.DrainOrFail(t, e, 5*time.Second)
		if created, executed := e.msgID.Load(), e.Executed(); created != executed {
			t.Fatalf("Drain returned with %d of %d messages unexecuted", created-executed, created)
		}
	}
	e.Stop()
}

// TestShardedStopIdempotent: Stop before Start and a second Stop are both
// no-ops.
func TestShardedStopIdempotent(t *testing.T) {
	e := New(Config{Workers: 2})
	e.Stop() // before Start: no-op
	e.Start()
	e.Stop()
	e.Stop() // second stop: no panic, no hang
}
