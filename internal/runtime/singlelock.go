package runtime

import (
	"sync"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// requeueLocked disposes of the unexecuted tail of a drain batch when the
// worker stops mid-batch: un-popped back to the front of op's queue (with
// the admission accounting re-armed) while op still has a queue to hold
// it, discarded with conservation intact when op was cancelled. Caller
// holds p.mu.
func (p *singleLockPath) requeueLocked(op *dataflow.Operator, msgs []*core.Message) {
	if len(msgs) == 0 {
		return
	}
	if op.Sched().Phase == core.OpDead {
		for _, m := range msgs {
			p.e.discardMessage(op.Job, m)
		}
		return
	}
	p.disp.Unpop(op, msgs)
	p.e.adm.enqueuedN(op.Job, len(msgs))
	noteSrcQueuedRun(op, msgs, 1)
}

// singleLockPath is the original dispatch strategy: the sequential
// core.Dispatcher guarded by one engine-wide mutex, with a condition
// variable waking idle workers. It supports every SchedulerKind (the
// baselines have no sharded realization) and serves as the reference
// implementation the sharded path is cross-checked against in equivalence
// tests — including for the job lifecycle: cancel/pause/resume are a few
// dispatcher calls under the same mutex, so their semantics here are easy
// to read and the concurrent paths are pinned against them.
type singleLockPath struct {
	e    *Engine
	mu   sync.Mutex
	cond *sync.Cond
	disp core.Dispatcher[*dataflow.Operator]
}

func newSingleLockPath(e *Engine, cfg Config) *singleLockPath {
	p := &singleLockPath{
		e:    e,
		disp: core.NewDispatcherRunQueue[*dataflow.Operator](cfg.Scheduler, cfg.Workers, cfg.RunQueue),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// pushLocked routes one message under p.mu: dead targets drop it (the
// in-flight half of cancellation), everything else goes to the dispatcher,
// which enqueues without scheduling when the target is paused.
func (p *singleLockPath) pushLocked(target *dataflow.Operator, m *core.Message, producer int) {
	if target.Sched().Phase == core.OpDead {
		p.e.discardMessage(target.Job, m)
		return
	}
	p.disp.Push(target, m, producer)
	p.e.adm.enqueued(target.Job)
	noteSrcQueued(target, m, 1)
}

func (p *singleLockPath) ingest(msgs []dataflow.ChildMessage) {
	p.mu.Lock()
	for _, cm := range msgs {
		p.pushLocked(cm.Target, cm.Msg, -1)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// stopAll wakes every waiting worker so they observe the stopped flag.
func (p *singleLockPath) stopAll() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// cancel implements dispatchPath: under the engine mutex, mark each
// operator dead, pull it off the run queue, and drain its message queue
// through the dispatcher (keeping its pending count honest) into the
// pools.
func (p *singleLockPath) cancel(job *dataflow.Job) {
	p.mu.Lock()
	for _, op := range job.Operators() {
		op.Sched().Phase = core.OpDead
		p.disp.Deschedule(op)
		for {
			m, ok := p.disp.PopMsg(op)
			if !ok {
				break
			}
			p.e.adm.dequeued(job)
			noteSrcQueued(op, m, -1)
			p.e.discardMessage(job, m)
		}
	}
	p.mu.Unlock()
}

// pause implements dispatchPath: park each operator and deschedule it;
// ones held by a worker leave the schedule at that worker's next release
// (Done is phase-gated).
func (p *singleLockPath) pause(job *dataflow.Job) {
	p.mu.Lock()
	for _, op := range job.Operators() {
		st := op.Sched()
		if st.Phase == core.OpLive {
			st.Phase = core.OpPaused
			p.disp.Deschedule(op)
		}
	}
	p.mu.Unlock()
}

// resume implements dispatchPath: un-park each operator and reschedule the
// ones with pending messages, then wake the workers.
func (p *singleLockPath) resume(job *dataflow.Job) {
	p.mu.Lock()
	for _, op := range job.Operators() {
		st := op.Sched()
		if st.Phase == core.OpPaused {
			st.Phase = core.OpLive
			p.disp.Reschedule(op)
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// eachQueued implements dispatchPath: walk op's queued messages under the
// engine mutex. Which container holds them depends on the scheduler kind
// (Cameo keeps a priority heap in SchedState.Q, the baselines a FIFO ring
// in SchedState.FIFO); exactly one is ever populated, so visiting both is
// safe and keeps this path scheduler-agnostic.
func (p *singleLockPath) eachQueued(op *dataflow.Operator, visit func(*core.Message)) {
	p.mu.Lock()
	st := op.Sched()
	st.Q.Each(visit)
	for i := 0; i < st.FIFO.Len(); i++ {
		visit(st.FIFO.At(i))
	}
	p.mu.Unlock()
}

// shedDoomed implements dispatchPath: under the engine mutex, sweep each
// of job's live operators through the dispatcher's Shed (which keeps the
// run queue re-keyed/descheduled as queues change).
func (p *singleLockPath) shedDoomed(job *dataflow.Job, now vtime.Time) int {
	e := p.e
	aware := e.adm.deadlineAware
	drop := func(m *core.Message) bool { return core.Doomed(m, now, aware) }
	total := 0
	p.mu.Lock()
	for _, stage := range job.Stages {
		for _, op := range stage {
			if op.Sched().Phase != core.OpLive {
				continue
			}
			total += p.disp.Shed(op, drop,
				func(m *core.Message) { e.shedQueued(job, op, m) })
		}
	}
	p.mu.Unlock()
	e.noteShed(job, total)
	return total
}

// shedExcess implements dispatchPath: discard up to n queued messages of
// job from the lax end of its operators' queues, stage 0 first.
func (p *singleLockPath) shedExcess(job *dataflow.Job, n int) int {
	e := p.e
	total := 0
	p.mu.Lock()
	for _, stage := range job.Stages {
		for _, op := range stage {
			if op.Sched().Phase != core.OpLive {
				continue
			}
			for total < n {
				m, ok := p.disp.ShedTail(op)
				if !ok {
					break
				}
				e.shedQueued(job, op, m)
				total++
			}
		}
		if total >= n {
			break
		}
	}
	p.mu.Unlock()
	e.noteShed(job, total)
	return total
}

// shedOpDoomedLocked is the worker-loop laxity sweep: drop the acquired
// operator's doomed messages before spending execution time on them.
// Caller holds p.mu.
func (p *singleLockPath) shedOpDoomedLocked(op *dataflow.Operator, now vtime.Time) {
	e := p.e
	aware := e.adm.deadlineAware
	job := op.Job
	n := p.disp.Shed(op,
		func(m *core.Message) bool { return core.Doomed(m, now, aware) },
		func(m *core.Message) { e.shedQueued(job, op, m) })
	e.noteShed(job, n)
}

// shedSrc implements dispatchPath: discard up to n of job's queued
// stage-0 messages from source channel src (see shardedPath.shedSrc),
// under the engine mutex via the dispatcher's Shed (which keeps the run
// queue re-keyed/descheduled as queues change).
func (p *singleLockPath) shedSrc(job *dataflow.Job, src, n int) int {
	e := p.e
	total := 0
	p.mu.Lock()
	for _, op := range job.Stages[0] {
		if total >= n {
			break
		}
		if op.Sched().Phase != core.OpLive {
			continue
		}
		op := op
		limit := n - total
		count := 0
		total += p.disp.Shed(op,
			func(m *core.Message) bool { return count < limit && m.Channel == src },
			func(m *core.Message) { count++; e.shedQueued(job, op, m) })
	}
	p.mu.Unlock()
	e.noteShed(job, total)
	return total
}

// worker is the scheduling loop of one pool thread, the real-time
// incarnation of the sequential dispatcher protocol. The drain phase is
// batched like the sharded paths': up to Config.DrainBatch messages leave
// the acquired operator per PopMsgs call, so the engine mutex is taken
// once per batch for popping instead of once per message (children still
// re-take it per execution — they must be routed before the env's scratch
// is reused). As there, a batch has no say over preemption: the quantum is
// tested at every message boundary, and on expiry the batch ends — its
// tail is un-popped under the mutex already held, so ShouldYield compares
// the waiting head against the operator's true next message. A pause or
// cancel landing mid-batch is observed at the per-message relock and the
// tail is un-popped or discarded the same way (requeueLocked).
func (p *singleLockPath) worker(id int) {
	e := p.e
	env := e.envs[id]
	ctl := e.drainCtl(id) // nil on the fixed-DrainBatch path
	buf := make([]*core.Message, e.drainBufCap())
	defer e.wg.Done()
	p.mu.Lock()
	for {
		if e.stopped.Load() {
			p.mu.Unlock()
			return
		}
		op, ok := p.disp.NextOp(id)
		if !ok {
			// No acquirable operator right now. This must Wait (releasing
			// the lock) even when messages are pending for operators other
			// workers hold — spinning here would hold the mutex and
			// deadlock the workers that need it to finish their messages.
			p.cond.Wait()
			continue
		}
		if e.adm.pressured() {
			// Background laxity sweep under pressure (see shardedPath).
			p.shedOpDoomedLocked(op, e.clock.Now())
		}
		acquired := e.clock.Now()
		last := acquired
	drain:
		for {
			k := len(buf)
			if ctl != nil {
				// Batch boundary: size the next batch. This path holds p.mu,
				// so the exact queue lengths stand in for the sharded paths'
				// lock-free Depth mirror (exactly one of Q/FIFO is populated,
				// per the scheduler kind).
				st := op.Sched()
				k = ctl.size(st.Q.Len()+st.FIFO.Len(), op.Job.Spec.Latency)
			}
			n := p.disp.PopMsgs(op, buf[:k])
			if n == 0 {
				p.disp.Done(op, id)
				p.cond.Broadcast() // Done may have requeued the operator
				break
			}
			p.e.adm.dequeuedN(op.Job, n)
			noteSrcQueuedRun(op, buf[:n], -1)
			var now vtime.Time
			for i := 0; i < n; i++ {
				p.mu.Unlock()

				var children []dataflow.ChildMessage
				children, now = e.execMessage(op, buf[i], env)

				p.mu.Lock()
				for _, cm := range children {
					p.pushLocked(cm.Target, cm.Msg, id)
				}
				if len(children) > 0 {
					p.cond.Broadcast()
				}
				if e.stopped.Load() {
					p.requeueLocked(op, buf[i+1:n])
					p.disp.Done(op, id)
					p.mu.Unlock()
					return
				}
				// A pause or cancel landed while we executed: stop draining
				// the operator before touching its queue again — a cancelled
				// job's queues are torn down once it quiesces, so the phase
				// gate here (and inside Done) is load-bearing, not cosmetic.
				if op.Sched().Phase != core.OpLive {
					p.requeueLocked(op, buf[i+1:n])
					p.disp.Done(op, id)
					break drain
				}
				if now-acquired >= e.cfg.Quantum {
					// The quantum ran out: the batch ends at this message.
					p.requeueLocked(op, buf[i+1:n])
					n = i + 1
				}
			}
			if ctl != nil {
				ctl.observe(n, now-last)
				last = now
			}
			if now-acquired >= e.cfg.Quantum {
				// Re-scheduling decision point: swap if more urgent work
				// waits, otherwise start a fresh quantum.
				if p.disp.ShouldYield(op) {
					p.disp.Done(op, id)
					p.cond.Broadcast()
					break
				}
				acquired = now
			}
		}
	}
}
