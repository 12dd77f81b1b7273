package core

import (
	"github.com/cameo-stream/cameo/internal/queue"
)

// Dispatcher is the run-queue abstraction shared by the Cameo scheduler and
// the two baselines — Orleans and FIFO, one implementation
// (OrleansDispatcher) whose FIFO form is the bag with no local lists —
// generic over the operator handle type O (engines use
// their operator pointers). Handles carry their scheduling state
// *intrusively* (the Handle constraint): per-operator message queues, run
// flags, and heap positions live on the operator itself, so dispatchers
// never consult a map — or allocate — on the per-message path. Messages
// carry their priorities in their PC. Dispatchers are plain data
// structures the simulator drives single-threaded, so its runs are
// deterministic; the real-time engine runs a concurrent realization of
// the Cameo discipline instead (internal/runtime, sharded.go), pinned to
// CameoDispatcher's order by the equivalence tests.
//
// The worker protocol is:
//
//	op, ok := d.NextOp(worker)      // acquire the most urgent operator
//	for {
//	    m, ok := d.PopMsg(op)        // next message of the acquired op
//	    if !ok { break }
//	    ... execute m ...
//	    if quantumExpired && d.ShouldYield(op) { break }
//	}
//	d.Done(op, worker)               // release; requeues if msgs remain
//
// Between NextOp and Done the operator is "acquired": it is absent from the
// run queue (an operator executes on at most one worker at a time — the
// actor-model guarantee Cameo relies on for per-event synchronization).
type Dispatcher[O Handle] interface {
	// Name identifies the dispatcher in reports ("cameo", "orleans", "fifo").
	Name() string
	// Push enqueues m for operator op. producer is the worker that
	// generated the message, or -1 for external arrivals (sources,
	// network); the Orleans baseline uses it for thread-local affinity.
	Push(op O, m *Message, producer int)
	// NextOp acquires the next operator for the given worker, removing it
	// from the run queue. ok is false when nothing is runnable.
	NextOp(worker int) (O, bool)
	// PopMsg removes and returns the next message of an acquired operator.
	PopMsg(op O) (*Message, bool)
	// PeekMsg returns the next message of op without removing it.
	PeekMsg(op O) (*Message, bool)
	// Done releases an acquired operator, requeueing it if messages remain.
	Done(op O, worker int)
	// ShouldYield reports whether the worker holding op should release it
	// (after its quantum) because more urgent work is waiting.
	ShouldYield(op O) bool
	// QueueLen reports op's pending message count.
	QueueLen(op O) int
	// Pending reports the total queued messages across operators.
	Pending() int
}

// MsgHeap orders an operator's pending messages by (PriLocal, ID) — the
// paper's local priority with deterministic tie-breaking. It is exported so
// the real-time engine's dispatch path reuses the exact ordering of the
// simulator's CameoDispatcher; like it, it is a plain data structure the
// caller synchronizes.
type MsgHeap struct {
	items []*Message
}

func (h *MsgHeap) Len() int { return len(h.items) }

func (h *MsgHeap) Peek() *Message {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func msgLess(a, b *Message) bool {
	if a.PC.PriLocal != b.PC.PriLocal {
		return a.PC.PriLocal < b.PC.PriLocal
	}
	return a.ID < b.ID
}

func (h *MsgHeap) Push(m *Message) {
	h.items = append(h.items, m)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !msgLess(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *MsgHeap) Pop() *Message {
	if len(h.items) == 0 {
		return nil
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

func (h *MsgHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && msgLess(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && msgLess(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// PopInto removes up to len(buf) messages in (PriLocal, ID) order into
// buf, returning how many it popped — the amortized-drain primitive: the
// caller takes whatever lock guards the heap once for the whole batch.
func (h *MsgHeap) PopInto(buf []*Message) int {
	n := 0
	for n < len(buf) && len(h.items) > 0 {
		buf[n] = h.Pop()
		n++
	}
	return n
}

// Shed removes every queued message for which drop returns true, handing
// each removed message to discard, and restores heap order over the
// survivors. It returns the number removed. The full-queue scan is O(n) —
// shedding is an overload-path operation, never steady-state work.
func (h *MsgHeap) Shed(drop func(*Message) bool, discard func(*Message)) int {
	kept := h.items[:0]
	for _, m := range h.items {
		if drop(m) {
			discard(m)
		} else {
			kept = append(kept, m)
		}
	}
	dropped := len(h.items) - len(kept)
	for i := len(kept); i < len(h.items); i++ {
		h.items[i] = nil
	}
	h.items = kept
	if dropped > 0 {
		for i := len(h.items)/2 - 1; i >= 0; i-- {
			h.siftDown(i)
		}
	}
	return dropped
}

// Each hands every queued message to visit in backing-array order (NOT
// priority order — callers needing a deterministic order sort what they
// collect, typically by message ID). The heap must not be mutated during
// the walk. It exists for the checkpoint path, which serializes a paused
// operator's pending messages under the operator's lock.
func (h *MsgHeap) Each(visit func(*Message)) {
	for _, m := range h.items {
		visit(m)
	}
}

// PopTail removes and returns the last element of the heap's backing
// array — a leaf, so never the most urgent message while more than one is
// queued, and its removal cannot change the head. The shed path uses it as
// a cheap least-urgent-ish victim when a backlogged job must give memory
// back. Returns nil when the heap is empty.
func (h *MsgHeap) PopTail() *Message {
	n := len(h.items)
	if n == 0 {
		return nil
	}
	m := h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	return m
}

// GlobalPri is the run-queue key for an operator: the PriGlobal of its head
// message with the message ID as deterministic tie-break.
func GlobalPri(m *Message) queue.Pri {
	return queue.Pri{Key: int64(m.PC.PriGlobal), Tie: m.ID}
}
