package core

import "github.com/cameo-stream/cameo/internal/queue"

// OrleansDispatcher models the default Orleans scheduler the paper compares
// against (§6): activations (operators with pending messages) live in a
// global run queue implemented as a ConcurrentBag, so workers prefer
// activations they themselves made runnable (thread-local, LIFO) before
// taking global or stolen work; each activation processes its messages in
// FIFO order. Per-operator queues and the "scheduled" flag are intrusive
// (SchedState.FIFO / SchedState.OnQueue), so the per-message path is
// map-free and allocation-free once rings have grown.
//
// The paper's custom FIFO baseline (§6) — "we insert operators into the
// global run queue and extract them in FIFO order", each operator
// processing its messages in FIFO order — is the same dispatcher over a
// bag with no local lists, where every add lands on the global FIFO
// (NewFIFODispatcher).
type OrleansDispatcher[O Handle] struct {
	bag     *queue.Bag[O]
	name    string
	pending int
}

// NewOrleansDispatcher returns an Orleans-style dispatcher for the given
// worker count (the bag keeps one local list per worker).
func NewOrleansDispatcher[O Handle](workers int) *OrleansDispatcher[O] {
	return &OrleansDispatcher[O]{bag: queue.NewBag[O](workers), name: "orleans"}
}

// NewFIFODispatcher returns the FIFO baseline: the Orleans dispatcher over
// a bag with no local lists, so one global FIFO orders every operator.
func NewFIFODispatcher[O Handle]() *OrleansDispatcher[O] {
	return &OrleansDispatcher[O]{bag: queue.NewBag[O](0), name: "fifo"}
}

// Name implements Dispatcher.
func (d *OrleansDispatcher[O]) Name() string { return d.name }

// Push implements Dispatcher. A newly runnable operator enters the bag on
// the producing worker's local list (or the global list for external
// arrivals) — the ConcurrentBag locality preference the paper describes.
func (d *OrleansDispatcher[O]) Push(op O, m *Message, producer int) {
	st := op.Sched()
	st.FIFO.PushBack(m)
	d.pending++
	if !st.OnQueue && st.Phase == OpLive {
		st.OnQueue = true
		if producer >= 0 {
			d.bag.Add(producer, op)
		} else {
			d.bag.AddGlobal(op)
		}
	}
}

// NextOp implements Dispatcher.
func (d *OrleansDispatcher[O]) NextOp(worker int) (O, bool) {
	return d.bag.Take(worker)
}

// PopMsg implements Dispatcher: activations process messages FIFO.
func (d *OrleansDispatcher[O]) PopMsg(op O) (*Message, bool) {
	m, ok := op.Sched().FIFO.PopFront()
	if ok {
		d.pending--
	}
	return m, ok
}

// PeekMsg implements Dispatcher.
func (d *OrleansDispatcher[O]) PeekMsg(op O) (*Message, bool) {
	return op.Sched().FIFO.PeekFront()
}

// Done implements Dispatcher: a drained (or non-live) operator leaves the
// run queue; one with remaining messages re-enters on the finishing
// worker's local list (it just ran there — Orleans keeps it local).
func (d *OrleansDispatcher[O]) Done(op O, worker int) {
	st := op.Sched()
	if st.Phase != OpLive || st.FIFO.Len() == 0 {
		st.OnQueue = false
		return
	}
	d.bag.Add(worker, op)
}

// ShouldYield implements Dispatcher: after its quantum an activation yields
// whenever any other activation is runnable — plain fair time-slicing with
// no notion of urgency.
func (d *OrleansDispatcher[O]) ShouldYield(op O) bool { return d.bag.Len() > 0 }

// QueueLen implements Dispatcher.
func (d *OrleansDispatcher[O]) QueueLen(op O) int { return op.Sched().FIFO.Len() }

// Pending implements Dispatcher.
func (d *OrleansDispatcher[O]) Pending() int { return d.pending }
