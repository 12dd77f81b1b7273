package core

import "github.com/cameo-stream/cameo/internal/queue"

// CameoDispatcher is the paper's two-level priority scheduler (§5.2,
// Figure 5b): a per-operator message queue ordered by PriLocal, and a
// global indexed min-heap of waiting operators keyed by the PriGlobal of
// each operator's head message. The structure is stateless in the paper's
// sense — it holds only pending messages and their priorities, no per-job
// bookkeeping — so it scales with message volume, not job count.
//
// Both levels are intrusive: an operator's message heap is its
// SchedState.Q and its position in the waiting heap is its SchedState.Pos,
// so the steady-state push/pop cycle performs no map lookups and no
// allocations (message heaps and the waiting heap retain their capacity
// across drain/refill cycles).
type CameoDispatcher[O Handle] struct {
	waiting *queue.IndexedHeap[O] // operators not currently acquired
	pending int
}

// NewCameoDispatcher returns an empty Cameo dispatcher.
func NewCameoDispatcher[O Handle]() *CameoDispatcher[O] {
	return &CameoDispatcher[O]{
		waiting: queue.NewSlotHeap(func(op O) *int32 { return &op.Sched().Pos }),
	}
}

// Name implements Dispatcher.
func (d *CameoDispatcher[O]) Name() string { return "cameo" }

// Push implements Dispatcher. If the target operator is waiting and the new
// message becomes its head, the operator is re-keyed in the global heap.
// Paused operators enqueue without becoming runnable; pushes to dead
// operators are the caller's to drop, not the dispatcher's.
func (d *CameoDispatcher[O]) Push(op O, m *Message, producer int) {
	st := op.Sched()
	st.Q.Push(m)
	d.pending++
	if !st.Acquired && st.Phase == OpLive {
		d.waiting.PushOrUpdate(op, GlobalPri(st.Q.Peek()))
	}
}

// NextOp implements Dispatcher: acquire the operator whose head message has
// the lowest (most urgent) global priority.
func (d *CameoDispatcher[O]) NextOp(worker int) (O, bool) {
	op, _, ok := d.waiting.PopMin()
	if !ok {
		var zero O
		return zero, false
	}
	op.Sched().Acquired = true
	return op, true
}

// PopMsg implements Dispatcher.
func (d *CameoDispatcher[O]) PopMsg(op O) (*Message, bool) {
	st := op.Sched()
	if st.Q.Len() == 0 {
		return nil, false
	}
	m := st.Q.Pop()
	d.pending--
	return m, true
}

// PeekMsg implements Dispatcher.
func (d *CameoDispatcher[O]) PeekMsg(op O) (*Message, bool) {
	st := op.Sched()
	if st.Q.Len() == 0 {
		return nil, false
	}
	return st.Q.Peek(), true
}

// Done implements Dispatcher: a drained (or non-live) operator leaves the
// schedule instead of requeueing.
func (d *CameoDispatcher[O]) Done(op O, worker int) {
	st := op.Sched()
	st.Acquired = false
	if st.Phase != OpLive || st.Q.Len() == 0 {
		return
	}
	d.waiting.PushOrUpdate(op, GlobalPri(st.Q.Peek()))
}

// ShouldYield implements Dispatcher: the paper's quantum swap check — while
// processing an operator, peek at the most urgent waiting operator and
// yield if it is strictly more urgent than our own next message.
func (d *CameoDispatcher[O]) ShouldYield(op O) bool {
	_, next, ok := d.waiting.PeekMin()
	if !ok {
		return false
	}
	st := op.Sched()
	if st.Q.Len() == 0 {
		return true
	}
	return next.Less(GlobalPri(st.Q.Peek()))
}

// QueueLen implements Dispatcher.
func (d *CameoDispatcher[O]) QueueLen(op O) int { return op.Sched().Q.Len() }

// Pending implements Dispatcher.
func (d *CameoDispatcher[O]) Pending() int { return d.pending }
