// Package core implements Cameo's scheduling framework (paper §4–§5): the
// priority and reply contexts that ride on messages, the pluggable
// context-handling policies (LLF, EDF, SJF, token-based fair sharing), and
// the two-level stateless dispatcher that orders operators by the global
// priority of their next pending message.
//
// The package deliberately knows nothing about dataflow graphs, windows, or
// engines. Everything a policy needs about a message's target operator
// arrives through TargetInfo, and dispatchers treat operators as opaque
// comparable handles. That is the paper's design: converters embedded in
// operators generate priorities; the scheduler just reads them.
package core

import (
	"github.com/cameo-stream/cameo/internal/profile"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// PriorityContext is the PC attached to every message (paper §5.1):
// the scheduler-facing priorities plus the dataflow-defined fields
// (p_MF, t_MF, L) that downstream context conversions need.
type PriorityContext struct {
	// PriLocal orders messages within one operator's queue
	// (for the LLF/EDF policies this is frontier progress p_MF).
	PriLocal vtime.Time
	// PriGlobal orders operators against each other via their head message
	// (for LLF this is the start deadline ddl_M; lower = more urgent).
	PriGlobal vtime.Time
	// PMF and TMF are the frontier progress and frontier time computed by
	// the last context conversion.
	PMF, TMF vtime.Time
	// L is the latency constraint of the message's dataflow.
	L vtime.Duration
}

// ReplyContext is the RC attached to acknowledgement messages flowing
// upstream. It re-exports profile.Reply so engines and policies share one
// definition.
type ReplyContext = profile.Reply

// Message is the unit of scheduling: one invocation of one target operator.
// The target operator itself is carried by the dispatcher (messages are
// pushed *at* an operator handle), not duplicated here.
type Message struct {
	// ID is engine-assigned, strictly increasing, and used as the
	// deterministic tie-breaker everywhere priorities collide.
	ID int64
	// P is the logical time of the last event required to produce this
	// message (stream progress); T is that event's physical arrival time at
	// a source (paper Table 1: p_M, t_M).
	P, T vtime.Time
	// Payload is the tuple batch or control payload; opaque to scheduling.
	Payload any
	// Channel identifies the upstream operator instance this message came
	// from, for per-channel frontier tracking at the target.
	Channel int
	// Port is the logical input port at the target (e.g. join side 0/1).
	Port int
	// Enqueued is stamped by engines when the message enters the
	// dispatcher, for queue-delay accounting.
	Enqueued vtime.Time
	// PC is the priority context generated by the context converter.
	PC PriorityContext
	// Merged counts the admitted batches the real-time engine's ingest
	// coalesced into this message while it was queued; zero for every
	// message nothing was merged into. See Units.
	Merged int32
}

// Units is the admission budget m holds: one unit per admitted batch it
// carries, its own and every one merged into it.
func (m *Message) Units() int64 { return int64(m.Merged) + 1 }

// TargetInfo is everything a context converter may use about a message's
// target operator when deriving its priority (paper §4.2–4.3). Engines
// assemble it from the dataflow topology and the profiling state.
type TargetInfo struct {
	// Job names the dataflow the target belongs to (used by per-job
	// policies such as token fair sharing).
	Job string
	// SlideUp is the window slide S_ou of the *sending* operator (0 for a
	// source or regular operator); Slide is S_od of the target (0 for a
	// regular operator).
	SlideUp, Slide vtime.Duration
	// EventTime reports whether the stream's logical time is event time
	// (true) or ingestion time (false); event time requires the regression
	// progress mapper to be kept fresh.
	EventTime bool
	// Mapper translates frontier progress into frontier time. May be nil
	// when no mapping is available, in which case windowed targets are
	// treated as regular operators (conservative laxity).
	Mapper progress.Mapper
	// Cost is the profiled execution cost C_oM of the target operator, and
	// PathCost the critical-path cost strictly below it.
	Cost, PathCost vtime.Duration
	// Latency is the dataflow's latency constraint L.
	Latency vtime.Duration
}

// Doomed reports whether m can no longer meet its deadline at instant now
// — the admission layer's laxity test for load shedding. Under a
// deadline-deriving policy (see DeadlineAware) the message's PriGlobal is
// its start deadline ddl, so negative laxity (ddl − now < 0) marks it
// hopeless: even starting immediately, the profiled costs say its result
// misses the constraint. Under other policies PriGlobal is not a deadline
// (arrival order, token tags), so the conservative fallback is used: the
// message is doomed only once its dataflow's whole latency budget has
// elapsed since its frontier time (TMF + L < now) — the result it feeds is
// already late no matter what the scheduler does.
func Doomed(m *Message, now vtime.Time, deadlineAware bool) bool {
	if deadlineAware {
		return m.PC.PriGlobal < now
	}
	return m.PC.L > 0 && m.PC.TMF+m.PC.L < now
}

// DeadlineAware is optionally implemented by policies whose PriGlobal is a
// start deadline on the engine's time axis (rather than an arrival stamp
// or fair-share tag). The admission layer asks it to decide which laxity
// test Doomed applies when shedding under overload.
//
// Such a policy gives one channel one deadline per window: two messages
// with equal LocalPri carry the same deadline, or the older one an earlier
// one. The real-time engine's ingest relies on that to coalesce a batch
// into its channel's queued message of the same window without converting
// it (see DESIGN.md). LocalPri is the PriLocal the policy's conversion
// gives a message with progress p sent from an operator of slide slideUp
// (0 for a source) to one of slide slide.
type DeadlineAware interface {
	DeadlineAware() bool
	LocalPri(p vtime.Time, slideUp, slide vtime.Duration) vtime.Time
}

// Policy is the pluggable context-handling strategy (paper §5.1's
// programmable API). OnSource builds the PC for a message created at a
// source operator upon receipt of an event; OnHop derives the PC for a
// downstream message from the PC of the upstream message that triggered it.
// Both must leave m.PC fully populated, PriLocal/PriGlobal included.
type Policy interface {
	// Name identifies the policy in reports ("llf", "edf", ...).
	Name() string
	// OnSource populates m.PC for a source-created message.
	OnSource(m *Message, ti TargetInfo)
	// OnHop populates m.PC for a message triggered by a parent message.
	OnHop(parent *PriorityContext, m *Message, ti TargetInfo)
}
