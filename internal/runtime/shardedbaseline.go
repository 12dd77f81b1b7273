package runtime

import (
	"sync"
	"sync/atomic"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/queue"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// opRunQueue is the run-queue discipline behind shardedBaselinePath: it
// orders *runnable operators* (message queues stay on the operators).
// producer < 0 marks external arrivals. Remove deregisters a departing
// (paused or cancelled) operator; false means a worker concurrently took
// it.
type opRunQueue interface {
	Add(producer int, op *dataflow.Operator)
	Take(worker int) (*dataflow.Operator, bool)
	Remove(op *dataflow.Operator) bool
	Len() int
}

// bagRunQueue realizes the Orleans discipline concurrently: a
// queue.ConcurrentBag preserving the sequential Bag's exact take order
// (own list LIFO, global FIFO, steal oldest).
type bagRunQueue struct {
	bag *queue.ConcurrentBag[*dataflow.Operator]
}

func (q bagRunQueue) Add(producer int, op *dataflow.Operator) { q.bag.Add(producer, op) }
func (q bagRunQueue) Take(w int) (*dataflow.Operator, bool)   { return q.bag.Take(w) }
func (q bagRunQueue) Remove(op *dataflow.Operator) bool       { return q.bag.Remove(op) }
func (q bagRunQueue) Len() int                                { return q.bag.Len() }

// fifoRunQueue realizes the FIFO baseline concurrently: one mutex-guarded
// global ring, preserving the sequential baseline's exact operator order.
// The lock is narrow — taken once per operator acquisition/release, not
// per message — so message-level work still scales through the operator
// locks.
type fifoRunQueue struct {
	mu sync.Mutex
	r  queue.Ring[*dataflow.Operator]
	n  atomic.Int64
}

func (q *fifoRunQueue) Add(producer int, op *dataflow.Operator) {
	q.mu.Lock()
	q.r.PushBack(op)
	q.n.Store(int64(q.r.Len()))
	q.mu.Unlock()
}

func (q *fifoRunQueue) Take(w int) (*dataflow.Operator, bool) {
	q.mu.Lock()
	op, ok := q.r.PopFront()
	q.n.Store(int64(q.r.Len()))
	q.mu.Unlock()
	return op, ok
}

func (q *fifoRunQueue) Remove(op *dataflow.Operator) bool {
	q.mu.Lock()
	ok := queue.RingRemove(&q.r, op)
	q.n.Store(int64(q.r.Len()))
	q.mu.Unlock()
	return ok
}

func (q *fifoRunQueue) Len() int { return int(q.n.Load()) }

// shardedBaselinePath is the concurrent dispatch strategy of the Orleans
// and FIFO baseline schedulers — the sharded counterpart the baselines
// were missing, so baseline-vs-Cameo comparisons can run at high worker
// counts instead of bottlenecking on the engine-wide single lock.
//
// It reuses the Cameo sharded path's two-domain structure: per-operator
// FIFO message rings live intrusively on the operators (SchedState.FIFO,
// guarded by the operator's own lock), while the run queue of runnable
// operators is the discipline-specific opRunQueue. The OnQueue flag has
// exactly the sequential dispatchers' "scheduled" meaning — set while the
// operator is in the run queue or held by a worker — and is flipped only
// under the operator lock, which makes the single-run-queue-membership
// invariant (and the actor guarantee) hold. Lock hierarchy: operator →
// run-queue lane, never the reverse, never two of a kind.
//
// At one worker both realizations take operators and messages in exactly
// the sequential baselines' order, which the equivalence tests pin.
type shardedBaselinePath struct {
	e    *Engine
	name string
	runq opRunQueue

	parker
}

func newShardedBaselinePath(e *Engine, cfg Config) *shardedBaselinePath {
	p := &shardedBaselinePath{e: e, parker: newParker(cfg.Workers)}
	if cfg.Scheduler == core.OrleansScheduler {
		p.name = "orleans"
		p.runq = bagRunQueue{bag: queue.NewConcurrentBag[*dataflow.Operator](cfg.Workers)}
	} else {
		p.name = "fifo"
		p.runq = &fifoRunQueue{}
	}
	return p
}

// ingest is the external-arrival path; the worker loop routes its own
// children through the same grouped delivery with itself as producer.
func (p *shardedBaselinePath) ingest(msgs []dataflow.ChildMessage) {
	p.deliver(msgs, -1)
}

// deliver enqueues a batch of messages, mirroring the Cameo sharded
// path's grouped shape: each target's operator lock is taken once for all
// of its messages, and a newly runnable operator (neither queued nor
// held) gets exactly one run-queue Add under that lock. Pushes to dead
// operators are dropped (the in-flight half of cancellation); pushes to
// paused operators enqueue without scheduling. producer is the delivering
// worker (bag locality), or -1 for external arrivals. Consumed entries
// have their Msg nil'ed (the slice is caller scratch, rebuilt on its next
// use); one signal at the end wakes the pool.
func (p *shardedBaselinePath) deliver(msgs []dataflow.ChildMessage, producer int) {
	scheduled := false
	for i := range msgs {
		if msgs[i].Msg == nil {
			continue
		}
		op := msgs[i].Target
		st := op.Sched()
		st.Mu.Lock()
		if st.Phase == core.OpDead {
			for j := i; j < len(msgs); j++ {
				if msgs[j].Msg != nil && msgs[j].Target == op {
					p.e.discardMessage(op.Job, msgs[j].Msg)
					msgs[j].Msg = nil
				}
			}
			st.Mu.Unlock()
			continue
		}
		pushed := 0
		for j := i; j < len(msgs); j++ {
			if msgs[j].Msg != nil && msgs[j].Target == op {
				st.FIFO.PushBack(msgs[j].Msg)
				noteSrcQueued(op, msgs[j].Msg, 1)
				msgs[j].Msg = nil
				pushed++
			}
		}
		st.Depth.Store(int32(st.FIFO.Len()))
		p.e.adm.enqueuedN(op.Job, pushed)
		if !st.OnQueue && st.Phase == core.OpLive {
			st.OnQueue = true
			p.runq.Add(producer, op)
			scheduled = true
		}
		st.Mu.Unlock()
	}
	if scheduled {
		p.signal(producer)
	}
}

func (p *shardedBaselinePath) stopAll() {
	close(p.stopCh)
}

// cancel implements dispatchPath. Per operator, under its lock: mark it
// dead, discard its ring, and deregister it from the run
// queue (the Remove the baseline disciplines' structures gained for
// exactly this). OnQueue with the removal missing means a worker holds
// (or is taking) the operator; that worker's phase-gated release clears
// the flag without requeueing.
func (p *shardedBaselinePath) cancel(job *dataflow.Job) {
	for _, op := range job.Operators() {
		st := op.Sched()
		st.Mu.Lock()
		st.Phase = core.OpDead
		for {
			m, ok := st.FIFO.PopFront()
			if !ok {
				break
			}
			p.e.adm.dequeued(job)
			noteSrcQueued(op, m, -1)
			p.e.discardMessage(job, m)
		}
		st.Depth.Store(0)
		if st.OnQueue && p.runq.Remove(op) {
			st.OnQueue = false
		}
		st.Mu.Unlock()
	}
}

// pause implements dispatchPath: park each operator, deregistering queued
// ones; held ones leave the schedule at their worker's release.
func (p *shardedBaselinePath) pause(job *dataflow.Job) {
	for _, op := range job.Operators() {
		st := op.Sched()
		st.Mu.Lock()
		if st.Phase == core.OpLive {
			st.Phase = core.OpPaused
			if st.OnQueue && p.runq.Remove(op) {
				st.OnQueue = false
			}
		}
		st.Mu.Unlock()
	}
}

// resume implements dispatchPath: un-park each operator and reschedule
// ones with retained messages as external arrivals.
func (p *shardedBaselinePath) resume(job *dataflow.Job) {
	for _, op := range job.Operators() {
		st := op.Sched()
		st.Mu.Lock()
		if st.Phase != core.OpPaused {
			st.Mu.Unlock()
			continue
		}
		st.Phase = core.OpLive
		schedule := !st.OnQueue && st.FIFO.Len() > 0
		if schedule {
			st.OnQueue = true
			p.runq.Add(-1, op)
		}
		st.Mu.Unlock()
		if schedule {
			p.signal(-1)
		}
	}
}

// eachQueued implements dispatchPath: walk op's FIFO ring in arrival order
// under its lock. Used by the checkpoint path on paused,
// quiesced operators, where the lock publishes the ring contents rather
// than excluding concurrent pops.
func (p *shardedBaselinePath) eachQueued(op *dataflow.Operator, visit func(*core.Message)) {
	st := op.Sched()
	st.Mu.Lock()
	for i := 0; i < st.FIFO.Len(); i++ {
		visit(st.FIFO.At(i))
	}
	st.Mu.Unlock()
}

// shedDoomed implements dispatchPath: sweep each of job's live operators'
// FIFO rings for messages that can no longer meet their deadline (for the
// baselines' arrival policies that is an exhausted latency budget — see
// core.Doomed), preserving the arrival order of the survivors.
func (p *shardedBaselinePath) shedDoomed(job *dataflow.Job, now vtime.Time) int {
	total := 0
	for _, stage := range job.Stages {
		for _, op := range stage {
			total += p.shedOpDoomed(op, now)
		}
	}
	return total
}

func (p *shardedBaselinePath) shedOpDoomed(op *dataflow.Operator, now vtime.Time) int {
	e := p.e
	aware := e.adm.deadlineAware
	job := op.Job
	st := op.Sched()
	st.Mu.Lock()
	if st.Phase != core.OpLive || st.FIFO.Len() == 0 {
		st.Mu.Unlock()
		return 0
	}
	n := st.FIFO.Shed(
		func(m *core.Message) bool { return core.Doomed(m, now, aware) },
		func(m *core.Message) { e.shedQueued(job, op, m) })
	st.Depth.Store(int32(st.FIFO.Len()))
	// An emptied operator leaves the run queue; a failed Remove means a
	// worker holds it (OnQueue stays set — the sequential semantics), and
	// that worker's release clears the flag.
	if n > 0 && st.FIFO.Len() == 0 && st.OnQueue && p.runq.Remove(op) {
		st.OnQueue = false
	}
	st.Mu.Unlock()
	e.noteShed(job, n)
	return n
}

// shedExcess implements dispatchPath: discard up to n queued messages of
// job from the newest end of its rings, stage 0 first.
func (p *shardedBaselinePath) shedExcess(job *dataflow.Job, n int) int {
	total := 0
	for _, stage := range job.Stages {
		for _, op := range stage {
			if total >= n {
				return total
			}
			total += p.shedOpTail(op, n-total)
		}
	}
	return total
}

func (p *shardedBaselinePath) shedOpTail(op *dataflow.Operator, n int) int {
	e := p.e
	job := op.Job
	st := op.Sched()
	st.Mu.Lock()
	if st.Phase != core.OpLive {
		st.Mu.Unlock()
		return 0
	}
	count := 0
	for count < n {
		m, ok := st.FIFO.PopBack()
		if !ok {
			break
		}
		e.shedQueued(job, op, m)
		count++
	}
	st.Depth.Store(int32(st.FIFO.Len()))
	if count > 0 && st.FIFO.Len() == 0 && st.OnQueue && p.runq.Remove(op) {
		st.OnQueue = false
	}
	st.Mu.Unlock()
	e.noteShed(job, count)
	return count
}

// shedSrc implements dispatchPath: discard up to n of job's queued
// stage-0 messages from source channel src (see shardedPath.shedSrc),
// preserving the arrival order of the survivors.
func (p *shardedBaselinePath) shedSrc(job *dataflow.Job, src, n int) int {
	total := 0
	for _, op := range job.Stages[0] {
		if total >= n {
			break
		}
		total += p.shedOpSrc(op, src, n-total)
	}
	return total
}

func (p *shardedBaselinePath) shedOpSrc(op *dataflow.Operator, src, limit int) int {
	e := p.e
	job := op.Job
	st := op.Sched()
	st.Mu.Lock()
	if st.Phase != core.OpLive || st.FIFO.Len() == 0 {
		st.Mu.Unlock()
		return 0
	}
	count := 0
	n := st.FIFO.Shed(
		func(m *core.Message) bool { return count < limit && m.Channel == src },
		func(m *core.Message) { count++; e.shedQueued(job, op, m) })
	st.Depth.Store(int32(st.FIFO.Len()))
	if n > 0 && st.FIFO.Len() == 0 && st.OnQueue && p.runq.Remove(op) {
		st.OnQueue = false
	}
	st.Mu.Unlock()
	e.noteShed(job, n)
	return n
}

// acquire returns the next operator for worker w per the baseline's run
// queue, or ok=false when the engine is stopping. The operator's OnQueue
// flag stays set while held (the sequential dispatchers' semantics).
func (p *shardedBaselinePath) acquire(w int) (*dataflow.Operator, bool) {
	for {
		if p.e.stopped.Load() {
			return nil, false
		}
		if op, ok := p.runq.Take(w); ok {
			return op, true
		}
		// Park: declare intent, then re-check (same protocol as the Cameo
		// sharded path).
		p.parked[w].Store(true)
		if p.runq.Len() > 0 || p.e.stopped.Load() {
			p.parked[w].Store(false)
			continue
		}
		select {
		case <-p.wake[w]:
		case <-p.stopCh:
		}
		p.parked[w].Store(false)
	}
}

// popMsgs removes up to len(buf) messages of a held operator in FIFO
// order under ONE operator lock, and like shardedPath.popMsgs it closes
// the activation when there is nothing to pop: an empty, paused or
// cancelled operator leaves the schedule (OnQueue cleared) and 0 tells the
// worker it no longer holds it. Mid-batch transitions are caught by the
// worker's lifecycle-epoch check.
func (p *shardedBaselinePath) popMsgs(op *dataflow.Operator, buf []*core.Message) int {
	st := op.Sched()
	st.Mu.Lock()
	defer st.Mu.Unlock()
	if st.Phase != core.OpLive || st.FIFO.Len() == 0 {
		st.OnQueue = false
		return 0
	}
	n := st.FIFO.PopFrontInto(buf)
	st.Depth.Store(int32(st.FIFO.Len()))
	p.e.adm.dequeuedN(op.Job, n)
	noteSrcQueuedRun(op, buf[:n], -1)
	return n
}

// returnUndrained disposes of the unexecuted tail of a drain batch when
// the worker must stop mid-batch: prepended back onto the ring in its
// original arrival order (with admission accounting re-armed) while the
// operator still has a queue to hold it, discarded with conservation
// intact when a cancel emptied the queue out from under the batch.
func (p *shardedBaselinePath) returnUndrained(op *dataflow.Operator, msgs []*core.Message) {
	if len(msgs) == 0 {
		return
	}
	st := op.Sched()
	st.Mu.Lock()
	if st.Phase == core.OpDead {
		st.Mu.Unlock()
		for _, m := range msgs {
			p.e.discardMessage(op.Job, m)
		}
		return
	}
	st.FIFO.UnpopFront(msgs)
	st.Depth.Store(int32(st.FIFO.Len()))
	p.e.adm.enqueuedN(op.Job, len(msgs))
	noteSrcQueuedRun(op, msgs, 1)
	st.Mu.Unlock()
}

// release returns a held operator: drained (or paused/cancelled)
// operators leave the schedule (OnQueue cleared); live ones with
// remaining messages re-enter on the finishing worker's list (Orleans
// locality) or the back of the global queue (FIFO).
func (p *shardedBaselinePath) release(op *dataflow.Operator, w int) {
	st := op.Sched()
	st.Mu.Lock()
	if st.Phase != core.OpLive || st.FIFO.Len() == 0 {
		st.OnQueue = false
		st.Mu.Unlock()
		return
	}
	p.runq.Add(w, op)
	st.Mu.Unlock()
	p.signal(w)
}

// shouldYield implements shardedOps with the baselines' rule: once the
// quantum has expired, release whenever any other operator is runnable —
// plain time-slicing with no notion of urgency, so the worker's next
// message does not enter into it.
func (p *shardedBaselinePath) shouldYield(*dataflow.Operator, int, *core.Message) bool {
	return p.runq.Len() > 0
}

// worker implements dispatchPath with the shared sharded drain loop
// (shardedWorker, sharded.go).
func (p *shardedBaselinePath) worker(w int) { p.e.shardedWorker(p, w) }
