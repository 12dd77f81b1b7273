package core

import "fmt"

// SchedulerKind selects a dispatcher implementation for the simulator
// (the real-time engine runs the Cameo discipline only); the experiments
// sweep over it.
type SchedulerKind int

const (
	// CameoScheduler is the paper's two-level priority scheduler.
	CameoScheduler SchedulerKind = iota
	// OrleansScheduler is the default Orleans baseline (ConcurrentBag).
	OrleansScheduler
	// FIFOScheduler is the custom FIFO baseline.
	FIFOScheduler
)

// String names the scheduler.
func (k SchedulerKind) String() string {
	switch k {
	case CameoScheduler:
		return "cameo"
	case OrleansScheduler:
		return "orleans"
	case FIFOScheduler:
		return "fifo"
	}
	return fmt.Sprintf("scheduler(%d)", int(k))
}

// NewDispatcher constructs the dispatcher for kind; workers is the node's
// worker-pool size (used by the Orleans bag's per-worker locality lists).
func NewDispatcher[O Handle](kind SchedulerKind, workers int) Dispatcher[O] {
	switch kind {
	case OrleansScheduler:
		return NewOrleansDispatcher[O](workers)
	case FIFOScheduler:
		return NewFIFODispatcher[O]()
	default:
		return NewCameoDispatcher[O]()
	}
}
