package runtime

import (
	"math/bits"
	"sync/atomic"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/queue"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// laneNone marks an operator that is not on any run-queue lane (idle with
// no messages, or acquired by a worker). It is stamped into every
// operator's intrusive scheduling state when its job is added.
const laneNone = -2

// shardedPath is the engine's dispatch path for the Cameo scheduler: a
// deadline-ordered realization of the shape of Orleans' ConcurrentBag
// (per-worker local lanes, a shared overflow lane, stealing) built from
// two lock domains —
//
//   - operator locks: each operator's message heap and scheduling state live
//     intrusively on the operator (core.SchedState) and are guarded by the
//     mutex in that same struct, so delivering to or draining one operator
//     contends with nothing but that operator's own traffic;
//   - run-queue lanes: a queue.ShardedHeap of *runnable* operators keyed by
//     the deadline (PriGlobal) of their head message — one lane per worker
//     plus the global overflow lane, each with its own lock. Lane heaps
//     track operator positions intrusively too (SchedState.Pos), so the
//     whole scheduling cycle performs no map operations.
//
// The lock hierarchy is strict: an operator lock may be held while taking
// one run-queue lane lock, never the reverse, and never two operator locks
// (or two lane locks) at once — so the structure is deadlock-free by
// construction.
//
// Worker protocol (the same acquire/drain/yield protocol as the simulator's
// sequential core.CameoDispatcher, made concurrent):
//
//	acquire: pop the more urgent of (own lane head, overflow head); when
//	         both are empty, steal the most urgent head among the other
//	         lanes; park when there is nothing anywhere.
//	drain:   pop the acquired operator's messages in PriLocal order,
//	         executing without any scheduling lock held.
//	yield:   after a quantum, release the operator if a waiting operator
//	         (own lane or overflow) is more urgent than our next message.
//
// Placement mirrors the Bag: children a worker generates make their target
// operator runnable on the worker's own lane (locality), external arrivals
// spread round-robin across lanes, overflowing to the global lane when the
// chosen lane is running long. The actor guarantee (one worker per
// operator) is enforced by the acquired flag under the operator lock,
// which every acquisition and release passes through — that lock is also
// the happens-before edge carrying operator state (handler, cost profile)
// between consecutive workers.
//
// The lifecycle methods (cancel, pause, resume) and the shed sweeps run
// concurrently with workers and ingest: each operates per operator under
// that operator's own lock, flips its SchedState.Phase, and fixes up
// run-queue membership — they never stop the worker pool. The engine
// serializes the lifecycle methods against each other (jobsMu held
// exclusively), so the path never sees two transitions for one job at
// once.
type shardedPath struct {
	e       *Engine
	workers int
	runq    *queue.ShardedHeap[*dataflow.Operator]
	rr      atomic.Int64 // round-robin cursor for external arrivals
	// deadlines is the engine's policy when it stamps start deadlines into
	// PriGlobal (LLF/EDF), else nil. It selects the laxity test core.Doomed
	// applies when shedding, and ingest coalesces batches into queued
	// messages only under such a policy (see coalesce).
	deadlines core.DeadlineAware

	// Worker sleep/wake: one buffered wake channel and a parked flag per
	// worker, plus the stop channel that unblocks everyone at shutdown.
	parked []atomic.Bool
	wake   []chan struct{}
	stopCh chan struct{}
}

func newShardedPath(e *Engine, workers int) *shardedPath {
	p := &shardedPath{
		e: e, workers: workers,
		runq:   queue.NewSlotShardedHeap(workers, func(op *dataflow.Operator) *int32 { return &op.Sched().Pos }),
		parked: make([]atomic.Bool, workers),
		wake:   make([]chan struct{}, workers),
		stopCh: make(chan struct{}),
	}
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
	}
	if da, ok := e.cfg.Policy.(core.DeadlineAware); ok && da.DeadlineAware() {
		p.deadlines = da
	}
	return p
}

// signal wakes the lane's worker plus any parked worker — parked thieves
// must learn about work on other lanes, and a wake is one non-blocking
// channel send.
func (p *shardedPath) signal(lane int) {
	if lane >= 0 && lane < len(p.wake) {
		p.wakeWorker(lane)
	}
	for w := range p.parked {
		if w != lane && p.parked[w].Load() {
			p.wakeWorker(w)
		}
	}
}

func (p *shardedPath) wakeWorker(w int) {
	select {
	case p.wake[w] <- struct{}{}:
	default:
	}
}

// laneFor picks the run-queue lane for a newly runnable operator. Workers
// keep their own lane (locality: the freshest producer is the natural
// consumer, and its lane lock is uncontended). External arrivals spread
// round-robin, overflowing to the global lane when the chosen lane is more
// than twice its fair share — the overflow lane is checked by every worker
// on every acquisition, so backlog behind one busy worker stays visible.
func (p *shardedPath) laneFor(producer int) int {
	if producer >= 0 {
		return producer
	}
	lane := int(p.rr.Add(1)-1) % p.workers
	// Overflow when the chosen lane already holds at least twice its fair
	// share of the runnable operators (and a handful in absolute terms) —
	// a racy snapshot, but a misrouted operator is still reachable by
	// everyone via the overflow lane or stealing.
	if n := p.runq.LaneLen(lane); n >= 4 && n*p.workers >= 2*p.runq.Len() {
		return queue.GlobalLane
	}
	return lane
}

// deliver enqueues a batch of messages grouped by target: each target's
// operator lock is taken once for all of its messages, and the operator gets
// exactly one run-queue re-key or lane push for the whole group. producer is
// the delivering worker, or -1 for external arrivals (restore).
// Pushes to dead operators (the target's job was cancelled while the
// messages were in flight) are dropped; pushes to paused operators enqueue
// without scheduling. Consumed entries have their Msg nil'ed (the slice is
// the caller's scratch, rebuilt on its next use). Batches are small (one
// execution's fan-out), so the grouping is a rescan of the tail rather
// than an allocated index. waited reports that some target's lock was held
// by another goroutine when deliver arrived, so a worker can leave that
// wait out of its next message's measured cost.
func (p *shardedPath) deliver(msgs []dataflow.ChildMessage, producer int) (waited bool) {
	var wakes uint64
	for i := range msgs {
		if msgs[i].Msg == nil {
			continue
		}
		op := msgs[i].Target
		st := op.Sched()
		if !st.Mu.TryLock() {
			st.Mu.Lock()
			waited = true
		}
		if st.Phase == core.OpDead {
			// discardMessage takes no scheduling locks, so dropping under
			// the operator lock is safe.
			for j := i; j < len(msgs); j++ {
				if msgs[j].Msg != nil && msgs[j].Target == op {
					p.e.discardMessage(op.Job, msgs[j].Msg)
					msgs[j].Msg = nil
				}
			}
			st.Mu.Unlock()
			continue
		}
		oldHead := st.Q.Peek()
		pushed := 0
		for j := i; j < len(msgs); j++ {
			if msgs[j].Msg != nil && msgs[j].Target == op {
				st.Q.Push(msgs[j].Msg)
				noteSrcQueued(op, msgs[j].Msg, 1)
				msgs[j].Msg = nil
				pushed++
			}
		}
		p.e.adm.note(op.Job, int64(pushed))
		lane := p.schedule(op, oldHead, producer)
		st.Mu.Unlock()
		wakes = p.wakeLater(wakes, lane)
	}
	p.wakeAll(wakes)
	return waited
}

// ingest delivers one admitted source batch's stage-0 fan-out from an
// external producer: parts[i] (see dataflow.SourceParts) is for stage-0
// instance i. Under each target's lock the part is merged into source
// src's queued tail message there when coalesce allows — no message, no
// ID, no conversion, no push — and otherwise becomes a new message
// (dataflow.SourceMessage), pushed and scheduled like deliver's, and the
// channel's new tail. A target whose job was cancelled after ingest
// looked the job up gets no message: its part is released.
func (p *shardedPath) ingest(j *dataflow.Job, src int, parts []*dataflow.Batch, pr, now vtime.Time, env *dataflow.Env) {
	e := p.e
	var wakes uint64
	for i, op := range j.Stages[0] {
		st := op.Sched()
		st.Mu.Lock()
		if st.Phase == core.OpDead {
			st.Mu.Unlock()
			env.FreeBatch(parts[i])
			continue
		}
		if p.coalesce(op, src, parts[i], pr, now) {
			st.Mu.Unlock()
			continue
		}
		m := dataflow.SourceMessage(j, src, op, parts[i], pr, now, env)
		m.Enqueued = now
		// Counted before the push makes it reachable by a worker, so the
		// outstanding counts never dip below the work that exists.
		e.outstanding.Add(1)
		j.Outstanding.Add(1)
		oldHead := st.Q.Peek()
		st.Q.Push(m)
		if st.Tails != nil {
			st.Tails[src] = m
		}
		j.SrcQueued[src].Add(1)
		e.adm.note(j, 1)
		lane := p.schedule(op, oldHead, -1)
		st.Mu.Unlock()
		wakes = p.wakeLater(wakes, lane)
	}
	p.wakeAll(wakes)
}

// coalesce merges part, source src's batch for stage-0 operator op at
// progress pr and arrival time now, into the channel's queued tail message
// at op, and reports whether it did. It merges only when every rule holds:
//
//   - op's handler coalesces (op has Tails) and the policy is
//     deadline-aware: such a policy gives a channel one deadline per
//     window, so the tail already carries the deadline the part would get,
//     where arrival and token policies stamp each message with its own;
//   - the channel has a tail (a queued message: every dequeue site clears
//     it) with the part's port and local priority — the same window — and
//     progress no higher than pr;
//   - dataflow.Coalesce can chain the part onto the tail's payload: both
//     pool-owned and at most MaxCoalesce tuples together.
//
// A merge raises the tail's progress and arrival time to the part's and
// adds one unit to the queued counts, as the message it replaces would
// have; its ID, priorities and queue position stay. An event-time job's
// progress mapper still observes the pair, as the conversion would have.
// Caller holds op's lock.
func (p *shardedPath) coalesce(op *dataflow.Operator, src int, part *dataflow.Batch, pr, now vtime.Time) bool {
	tails := op.Sched().Tails
	if tails == nil || p.deadlines == nil {
		return false
	}
	tail := tails[src]
	j := op.Job
	if tail == nil || tail.P > pr || tail.Port != dataflow.SourcePort(j, src) ||
		tail.PC.PriLocal != p.deadlines.LocalPri(pr, 0, op.Spec().Slide) {
		return false
	}
	head, _ := tail.Payload.(*dataflow.Batch)
	payload, ok := dataflow.Coalesce(head, part)
	if !ok {
		return false
	}
	tail.Payload = payload
	tail.P, tail.T = pr, max(tail.T, now)
	tail.Merged++
	j.SrcQueued[src].Add(1)
	p.e.adm.note(j, 1)
	if j.Spec.Domain == dataflow.EventTime && op.Mapper != nil {
		op.Mapper.Observe(pr, now)
	}
	return true
}

// schedule fixes op's run-queue membership after pushes onto its queue,
// whose head was oldHead before them, and returns the lane to wake, or
// laneNone. The caller holds op's lock and wakes the lane after releasing
// it (wakeLater, wakeAll).
func (p *shardedPath) schedule(op *dataflow.Operator, oldHead *core.Message, producer int) int {
	st := op.Sched()
	switch {
	case st.Acquired || st.Phase == core.OpPaused:
		// Acquired: the holding worker re-checks the heap before
		// releasing, so the new messages cannot be stranded; no signal
		// needed. Paused: resume reschedules the operator.
		return laneNone
	case st.Lane != laneNone:
		// Already runnable on some lane; re-key it if the head changed.
		// A missed update (the operator was popped between our lock and
		// the lane's) is benign: the popping worker sees the new head.
		if head := st.Q.Peek(); head != oldHead {
			p.runq.Update(int(st.Lane), op, core.GlobalPri(head))
		}
		return laneNone
	}
	lane := p.laneFor(producer)
	st.Lane = int32(lane)
	p.runq.Push(lane, op, core.GlobalPri(st.Q.Peek()))
	return lane
}

// wakeLater folds lane into a wake mask (bit lane+1, so GlobalLane(-1)
// folds to bit 0), so a delivery wakes each lane once however many of its
// targets landed there; lanes past the mask's width wake at once.
func (p *shardedPath) wakeLater(mask uint64, lane int) uint64 {
	switch {
	case lane == laneNone:
	case lane < 63:
		mask |= 1 << uint(lane+1)
	default:
		p.signal(lane)
	}
	return mask
}

// wakeAll signals every lane in mask.
func (p *shardedPath) wakeAll(mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		p.signal(bits.TrailingZeros64(mask) - 1)
	}
}

// cancel marks every operator of job dead, discards its queued messages
// back to the pools, and unlinks it from the run queue. Per operator,
// under its lock: mark it dead (in-flight pushes now drop), discard its
// queued messages, and remove its run-queue entry — the arbitrary-element
// removal the lane heaps track intrusively via SchedState.Pos. An
// operator concurrently popped by a worker is simply absent from its
// lane; that worker's popMsgs sees the dead phase and its release leaves
// the operator unscheduled.
func (p *shardedPath) cancel(job *dataflow.Job) {
	for _, op := range job.Operators() {
		st := op.Sched()
		st.Mu.Lock()
		st.Phase = core.OpDead
		for st.Q.Len() > 0 {
			m := st.Q.Pop()
			p.e.adm.note(job, -m.Units())
			noteSrcQueued(op, m, -1)
			p.e.discardMessage(job, m)
		}
		clear(st.Tails)
		// Clear the lane only when the removal actually hit: a miss means
		// a worker popped the operator and is between its lane pop and its
		// first popMsgs — that worker owns the Lane reset (in
		// popMsgs), and overwriting it here would mark a possibly-still-
		// referenced operator as unqueued.
		if st.Lane != laneNone && p.runq.Remove(int(st.Lane), op) {
			st.Lane = laneNone
		}
		st.Mu.Unlock()
	}
}

// pause parks every operator of job and pulls it off its lane; queued
// messages stay put. Held operators park at their worker's next
// popMsgs/release.
func (p *shardedPath) pause(job *dataflow.Job) {
	for _, op := range job.Operators() {
		st := op.Sched()
		st.Mu.Lock()
		if st.Phase == core.OpLive {
			st.Phase = core.OpPaused
			// Lane is cleared only on a successful removal (same reasoning
			// as cancel, but here it is load-bearing): a failed Remove
			// means a worker is mid-acquisition, and resume treats a
			// cleared Lane as "not scheduled" — clearing it on the miss
			// would let resume double-schedule the operator the worker is
			// about to hold, breaking the actor guarantee. The stale Lane
			// instead makes resume defer to the worker, whose phase-gated
			// release parks the operator for a later resume or its next
			// push.
			if st.Lane != laneNone && p.runq.Remove(int(st.Lane), op) {
				st.Lane = laneNone
			}
		}
		st.Mu.Unlock()
	}
}

// resume un-parks every operator of job; ones with pending messages
// re-enter a lane (external-arrival placement) and the lane's worker is
// woken.
func (p *shardedPath) resume(job *dataflow.Job) {
	for _, op := range job.Operators() {
		st := op.Sched()
		st.Mu.Lock()
		if st.Phase != core.OpPaused {
			st.Mu.Unlock()
			continue
		}
		st.Phase = core.OpLive
		wake := -2
		if !st.Acquired && st.Q.Len() > 0 && st.Lane == laneNone {
			lane := p.laneFor(-1)
			st.Lane = int32(lane)
			p.runq.Push(lane, op, core.GlobalPri(st.Q.Peek()))
			wake = lane
		}
		st.Mu.Unlock()
		if wake != -2 {
			p.signal(wake)
		}
	}
}

// eachQueued hands every queued message of op to visit, in no particular
// order, under op's lock. Callers (the checkpoint path) see a frozen
// queue — the operator is paused and its job quiesced, so nothing pops
// concurrently — but the lock is still what publishes the queue contents
// to this goroutine. visit must not mutate the queue or block on engine
// locks.
func (p *shardedPath) eachQueued(op *dataflow.Operator, visit func(*core.Message)) {
	st := op.Sched()
	st.Mu.Lock()
	st.Q.Each(visit)
	st.Mu.Unlock()
}

// queuedLen reports how many messages op's queue holds, read under its
// lock.
func (p *shardedPath) queuedLen(op *dataflow.Operator) int {
	st := op.Sched()
	st.Mu.Lock()
	defer st.Mu.Unlock()
	return st.Q.Len()
}

// shedRule picks the victims of one operator's shed sweep (shedOp). A
// doomed rule takes every message that can no longer meet its deadline
// at now (core.Doomed). The others take messages until they hold limit
// units: those ingested on source channel src (Message.Channel, so stage
// 0 only) when fromSrc is set, else heap leaves off the tail, so the
// operator's most urgent message is the last to go.
type shedRule struct {
	doomed  bool
	now     vtime.Time
	fromSrc bool
	src     int
	limit   int
}

// shedDoomed discards job's queued messages that can no longer meet their
// deadline at instant now, one live operator at a time. Returns the units
// shed.
func (p *shardedPath) shedDoomed(job *dataflow.Job, now vtime.Time) int {
	total := 0
	for _, stage := range job.Stages {
		for _, op := range stage {
			total += p.shedOp(op, shedRule{doomed: true, now: now})
		}
	}
	return total
}

// shedExcess discards queued messages of job holding up to n units (the
// last victim may take it past n), walking stage 0
// first (undigested input is the cheapest work to lose) and taking
// heap-leaf victims so the most urgent message of every operator
// survives. Messages held by workers are not touched; the return value
// may be short.
func (p *shardedPath) shedExcess(job *dataflow.Job, n int) int {
	total := 0
	for _, stage := range job.Stages {
		for _, op := range stage {
			if total >= n {
				return total
			}
			total += p.shedOp(op, shedRule{limit: n - total})
		}
	}
	return total
}

// shedSrc discards job's queued stage-0 messages ingested on source
// channel src until they hold n units — the fair-shed path's victim
// selection (a hot source's own backlog pays for the pressure it
// created). Only stage 0 is walked: downstream messages have no single
// source attribution. Returns the units shed (may be short).
func (p *shardedPath) shedSrc(job *dataflow.Job, src, n int) int {
	total := 0
	for _, op := range job.Stages[0] {
		if total >= n {
			break
		}
		total += p.shedOp(op, shedRule{fromSrc: true, src: src, limit: n - total})
	}
	return total
}

// shedOp sweeps one operator's queued victims under its lock and then
// fixes its run-queue entry: removed when the sweep emptied the queue
// (the arbitrary-element removal the lane heaps track intrusively),
// re-keyed when it removed the head. A tail sweep never changes a
// non-empty queue's head, so it only ever needs the removal. Acquired
// operators need no fix-up — their workers re-check the queue at release.
// Paused and dead operators are skipped (pause retains backlog; cancel
// owns dead queues). Returns the units shed; the shed ledgers count the
// messages.
func (p *shardedPath) shedOp(op *dataflow.Operator, r shedRule) int {
	e := p.e
	job := op.Job
	st := op.Sched()
	st.Mu.Lock()
	if st.Phase != core.OpLive || st.Q.Len() == 0 {
		st.Mu.Unlock()
		return 0
	}
	oldHead := st.Q.Peek()
	n, units := 0, 0
	shed := func(m *core.Message) { n++; units += int(m.Units()); e.shedQueued(job, op, m) }
	switch {
	case r.doomed:
		aware := p.deadlines != nil
		st.Q.Shed(func(m *core.Message) bool { return core.Doomed(m, r.now, aware) }, shed)
	case r.fromSrc:
		st.Q.Shed(func(m *core.Message) bool { return units < r.limit && m.Channel == r.src }, shed)
	default:
		for units < r.limit && st.Q.Len() > 0 {
			shed(st.Q.PopTail())
		}
	}
	if n > 0 && !st.Acquired && st.Lane != laneNone {
		if st.Q.Len() == 0 {
			// Clear the lane only when the removal hit (same reasoning as
			// cancel: a miss means a worker owns the Lane reset).
			if p.runq.Remove(int(st.Lane), op) {
				st.Lane = laneNone
			}
		} else if head := st.Q.Peek(); head != oldHead {
			p.runq.Update(int(st.Lane), op, core.GlobalPri(head))
		}
	}
	st.Mu.Unlock()
	e.noteShed(job, n)
	return units
}

// acquire takes the next operator for worker w off the run queue, or
// reports ok=false when the engine is stopping; it parks when no lane has
// work. The operator is not marked held yet — the worker's first popMsgs
// does that under the same lock round-trip that pops its first batch.
// Until then the operator looks runnable-on-a-lane to everyone else, whose
// lane fix-ups miss harmlessly (see deliver, pause, cancel).
func (p *shardedPath) acquire(w int) (*dataflow.Operator, bool) {
	for {
		if p.e.stopped.Load() {
			return nil, false
		}
		op, _, ok := p.runq.PopLocalOrGlobal(w)
		if !ok {
			op, _, ok = p.runq.Steal(w)
		}
		if ok {
			return op, true
		}
		// Park: declare intent, then re-check for work pushed between the
		// failed scan and the flag store (the pusher's flag load and our
		// queue-length load cannot both miss under seq-cst atomics).
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

// popMsgs removes up to len(buf) messages of the operator worker w took
// from the run queue, in PriLocal order under ONE operator lock — the
// batch-drain entry point that amortizes what used to be a lock per pop.
// It also opens and closes the activation in that same round-trip: every
// call marks the operator held (a no-op after the first), and a call that
// finds nothing to pop — queue empty, or a pause or cancel landed between
// batches — releases it, so 0 means the worker no longer holds op. A
// pause or cancel landing mid-batch is caught by the worker's
// lifecycle-epoch check. (Drain does not watch the pending count —
// e.outstanding retires a message only after execution — so the pops
// create no idle window.) waited reports that the operator's lock was held
// by another goroutine when popMsgs arrived (see deliver).
func (p *shardedPath) popMsgs(op *dataflow.Operator, buf []*core.Message) (n int, waited bool) {
	st := op.Sched()
	if !st.Mu.TryLock() {
		st.Mu.Lock()
		waited = true
	}
	defer st.Mu.Unlock()
	st.Lane = laneNone
	// Phase before queue: a cancelled job's queues are torn down once it
	// quiesces.
	if st.Phase != core.OpLive || st.Q.Len() == 0 {
		st.Acquired = false
		return 0, waited
	}
	st.Acquired = true
	n = st.Q.PopInto(buf)
	p.noteQueuedRun(op, buf[:n], -1)
	return n, waited
}

// noteQueuedRun settles the ledgers at the pop and return sites: msgs
// leave op's queue (delta -1) or go back into it (+1). Their units move
// through one admission call and, at stage 0, one SrcQueued add per run
// of equal source channels (noteSrcQueued's batch form), and at a
// dequeue every channel tail among them is cleared, so no ingest merges
// into a message a worker holds. Caller holds op's lock.
func (p *shardedPath) noteQueuedRun(op *dataflow.Operator, msgs []*core.Message, delta int64) {
	j := op.Job
	if op.Stage != 0 {
		p.e.adm.note(j, delta*int64(len(msgs)))
		return
	}
	tails := op.Sched().Tails
	var units, run int64
	ch := -1
	for _, m := range msgs {
		if delta < 0 && tails != nil && tails[m.Channel] == m {
			tails[m.Channel] = nil
		}
		if m.Channel != ch {
			if run != 0 {
				j.SrcQueued[ch].Add(delta * run)
			}
			ch, run = m.Channel, 0
		}
		u := m.Units()
		run += u
		units += u
	}
	if run != 0 {
		j.SrcQueued[ch].Add(delta * run)
	}
	p.e.adm.note(j, delta*units)
}

// returnUndrained disposes of the unexecuted tail of a drain batch when
// the worker must stop mid-batch (engine stop, or a pause/cancel caught
// by the epoch check): messages go back into the operator's queue with
// the admission accounting re-armed while the operator still has a queue
// to hold them (live or paused — heap order restores by priority), or
// follow the cancel path's discard with conservation intact when the
// operator died (cancel already emptied its queue; these stragglers were
// in our buffer when it swept). The caller still holds op acquired, so no
// run-queue fix-up happens here — its release re-keys or parks as usual.
func (p *shardedPath) returnUndrained(op *dataflow.Operator, msgs []*core.Message) {
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
	for _, m := range msgs {
		st.Q.Push(m)
	}
	p.noteQueuedRun(op, msgs, 1)
	st.Mu.Unlock()
}

// release returns an acquired operator to the scheduler: requeued on the
// worker's own lane if it is live and messages remain (either freshly
// arrived or left by a yield), idle otherwise (its intrusive state simply
// rests on the operator — there is no map entry to clean up). Paused
// operators leave the schedule here; resume re-enters them.
func (p *shardedPath) release(op *dataflow.Operator, w int) {
	st := op.Sched()
	st.Mu.Lock()
	st.Acquired = false
	if st.Phase != core.OpLive || st.Q.Len() == 0 {
		st.Mu.Unlock()
		return
	}
	st.Lane = int32(w)
	p.runq.Push(w, op, core.GlobalPri(st.Q.Peek()))
	st.Mu.Unlock()
	p.signal(w)
}

// shouldYield reports whether worker w, holding op past its quantum,
// should release it: true when a waiting operator visible to this worker
// (own lane or overflow lane) is strictly more urgent than the worker's
// next message. Mid-batch that message is next — the head of the drain
// buffer's unexecuted tail, which the worker owns — so the whole decision
// is lock-free; at a batch boundary next is nil and the operator's queue
// head is read under its lock. Other workers' lanes are
// deliberately not scanned — their owners or thieves will get to them, and
// a cheap decision point is the point of the quantum. Both waiting-lane
// peeks are lock-free top-cache reads (one atomic load each — no lane
// lock, and no separate LaneLen pre-check: emptiness rides in the cached
// word).
func (p *shardedPath) shouldYield(op *dataflow.Operator, w int, next *core.Message) bool {
	var mine queue.Pri
	if next != nil {
		mine = core.GlobalPri(next)
	} else {
		st := op.Sched()
		st.Mu.Lock()
		// Phase before queue (a cancelled job's queues are torn down once
		// it quiesces); a non-live operator always yields.
		if st.Phase != core.OpLive || st.Q.Len() == 0 {
			st.Mu.Unlock()
			return true
		}
		mine = core.GlobalPri(st.Q.Peek())
		st.Mu.Unlock()
	}
	if lp, ok := p.runq.TopOf(w); ok && lp.Less(mine) {
		return true
	}
	if gp, ok := p.runq.TopOf(queue.GlobalLane); ok && gp.Less(mine) {
		return true
	}
	return false
}

// opLive reports op's phase under its lock — the worker's mid-batch
// re-check when the lifecycle epoch moved.
func opLive(op *dataflow.Operator) bool {
	st := op.Sched()
	st.Mu.Lock()
	live := st.Phase == core.OpLive
	st.Mu.Unlock()
	return live
}

// worker is the scheduling loop of one pool thread. The drain phase is
// batched: up to Config.DrainBatch messages leave the acquired operator's
// queue under one operator lock (popMsgs) into the worker's scratch
// buffer, and children are delivered
// grouped (one lock per target). An activation that drains its operator
// in one batch costs two operator-lock round-trips: popMsgs doubles as
// the acquisition on its first call and as the release on the call that
// finds the queue empty. A batch amortizes locking only — it
// has no say over preemption: the quantum is tested at every message
// boundary against the completion time execMessage already returns (one
// integer compare, no clock read), and on expiry the worker asks
// shouldYield, mid-batch or not. A yield returns the unexecuted tail to
// the operator's queue (returnUndrained), so urgent work waits at most one
// quantum plus one message, whatever DrainBatch is. The other per-message
// scheduling cost is two atomic loads (stop flag, lifecycle epoch); a
// moved epoch sends the worker back to the operator lock so pause and cancel
// keep their message-boundary responsiveness, with the tail returned or
// discarded the same way so conservation holds.
func (p *shardedPath) worker(w int) {
	e := p.e
	env := e.envs[w]
	buf := make([]*core.Message, e.cfg.DrainBatch)
	defer e.wg.Done()
	for {
		op, ok := p.acquire(w)
		if !ok {
			return
		}
		if e.adm.pressured() {
			// The background laxity sweep: under sustained pressure, drop
			// the acquired operator's doomed messages before spending
			// execution time on them.
			p.shedOp(op, shedRule{doomed: true, now: e.clock.Now()})
		}
		// The activation's one clock read: it opens the quantum and starts
		// the first message; every later message starts where the one
		// before it completed (see execMessage). Only a wait for a lock
		// another goroutine held costs a fresh read, so that the wait — a
		// preempted holder can make it longer than any handler — is not
		// charged to the next message's profiled cost.
		acquired := e.clock.Now()
		start := acquired
	drain:
		for {
			epoch := e.lifeEpoch.Load()
			n, waited := p.popMsgs(op, buf)
			if n == 0 {
				break // popMsgs released the operator
			}
			if waited {
				start = e.clock.Now()
			}
			yield := false
			for i := 0; i < n; i++ {
				children, now := e.execMessage(op, buf[i], start, env)
				start = now
				if p.deliver(children, w) {
					start = e.clock.Now()
				}
				tail := buf[i+1 : n]
				if e.stopped.Load() {
					p.returnUndrained(op, tail)
					p.release(op, w)
					return
				}
				if len(tail) > 0 && e.lifeEpoch.Load() != epoch {
					// A pause or cancel completed somewhere since this
					// batch was popped; re-check our operator before
					// executing more of its messages.
					epoch = e.lifeEpoch.Load()
					if !opLive(op) {
						p.returnUndrained(op, tail)
						p.release(op, w)
						break drain
					}
				}
				if now-acquired >= e.cfg.Quantum {
					// Re-scheduling decision point: swap if more urgent
					// work waits, otherwise start a fresh quantum.
					var next *core.Message
					if len(tail) > 0 {
						next = tail[0]
					}
					if p.shouldYield(op, w, next) {
						p.returnUndrained(op, tail)
						yield = true // the batch ends here
						break
					}
					acquired = now
				}
			}
			if yield {
				p.release(op, w)
				break
			}
		}
	}
}
