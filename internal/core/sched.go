package core

import (
	"sync"

	"github.com/cameo-stream/cameo/internal/queue"
)

// SchedState is the intrusive per-operator scheduling state. It lives
// *on* the operator handle (engines embed one per operator instance), so
// dispatchers find an operator's message queue, run-queue membership, and
// heap position by dereferencing the handle instead of re-discovering them
// through map[O] lookups on every push and pop. That removes the last
// per-message map traffic — and its allocation churn — from the hot path,
// which is what lets the paper's "scheduler overhead scales with message
// volume, not job count" claim hold at allocation granularity too.
//
// Exactly one dispatcher uses an operator's state at a time (an operator
// belongs to one engine); fields are guarded by whatever synchronizes that
// dispatcher — the operator's own Mu on the real-time engine's dispatch
// path, nothing in the sequential simulator.
//
// The zero value is ready for every sequential dispatcher; the real-time
// engine's path requires Lane to be initialized to its "no lane" sentinel
// (the engine does this when a job is added).
type SchedState struct {
	// Mu is the operator's scheduling lock on the real-time engine: it
	// guards every other non-atomic field here, so pushing to, draining,
	// pausing or cancelling one operator contends only with that
	// operator's own traffic. Taking it is also the happens-before edge that carries the
	// operator's handler and cost-profile state from one holding worker to
	// the next. The simulator's dispatchers leave it untouched.
	Mu sync.Mutex
	// Phase is the operator's lifecycle phase. Dispatchers schedule only
	// OpLive operators: pushes to an OpPaused operator enqueue without
	// making it runnable, and an OpDead operator never re-enters a run
	// queue — the engine drops in-flight pushes to it entirely. The field
	// is read and written only under whatever synchronizes the dispatcher
	// (see above), like every other field here.
	Phase OpPhase
	// Q holds pending messages in (PriLocal, ID) order — used by the Cameo
	// discipline (the engine's path and the simulator's CameoDispatcher).
	Q MsgHeap
	// Tails holds, per input channel, the channel's newest message in Q
	// that the real-time engine's ingest may still coalesce batches into,
	// or nil. It is sized only for operators whose handler coalesces
	// (nil otherwise), and every site that takes a message off Q clears
	// the message's entry, so a merge never reaches a message that left
	// the queue.
	Tails []*Message
	// FIFO holds pending messages in arrival order — used by the
	// simulator's Orleans and FIFO baseline dispatchers.
	FIFO queue.Ring[*Message]
	// Acquired marks the operator as held by a worker (absent from the run
	// queue under the actor guarantee).
	Acquired bool
	// OnQueue is the baselines' "scheduled" flag: the operator is in the
	// run queue or acquired. (The Cameo discipline tracks the same fact
	// with Pos/Lane instead, since it needs the position anyway.)
	OnQueue bool
	// Pos is the operator's intrusive position in an indexed run-queue
	// heap, encoded index+1 with 0 = absent (see queue.NewSlotHeap).
	Pos int32
	// Lane is the run-queue lane currently holding the operator on the
	// real-time engine's path, or that path's laneNone sentinel.
	Lane int32
}

// OpPhase is the lifecycle phase of an operator's scheduling state — the
// hook that lets a live engine pause, resume, and cancel individual jobs
// without rebuilding dispatcher state (the paper's dynamic-workload
// setting, §6.4).
type OpPhase int32

const (
	// OpLive is the schedulable steady state (the zero value).
	OpLive OpPhase = iota
	// OpPaused parks the operator: pending messages are retained and new
	// pushes still enqueue, but the operator is not eligible to run until
	// it is resumed.
	OpPaused
	// OpDead marks a cancelled operator: its queues have been (or are
	// being) discarded and any in-flight push must be dropped by the
	// engine instead of enqueued.
	OpDead
)

// Handle is the constraint on dispatcher operator handles: a comparable
// value exposing its intrusive scheduling state. Engines use their
// operator pointers; tests and microbenchmarks use small structs embedding
// a SchedState.
type Handle interface {
	comparable
	Sched() *SchedState
}
