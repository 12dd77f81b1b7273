package dataflow

import (
	"fmt"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// TimeDomain is the interpretation of tuple logical times (paper §4.3).
type TimeDomain int

const (
	// IngestionTime: logical time is assigned by the system when an event
	// first enters; frontier time equals frontier progress.
	IngestionTime TimeDomain = iota
	// EventTime: logical time comes with the data; frontier time is
	// estimated by online linear regression.
	EventTime
)

// String returns the domain's name.
func (d TimeDomain) String() string {
	if d == EventTime {
		return "event-time"
	}
	return "ingestion-time"
}

// Emission is an output produced by a handler invocation: a batch stamped
// with the logical time P of the result (the window end, for windowed
// operators; the input frontier, for stateless ones) and the physical time
// T of the last contributing event.
type Emission struct {
	Batch *Batch
	P, T  vtime.Time
}

// Context is passed to handler invocations. The engines reuse one Context
// per worker; handlers must not retain it (or anything reached through it)
// past the invocation.
type Context struct {
	// Op is the operator instance being invoked.
	Op *Operator
	// Now is the current engine time.
	Now vtime.Time

	env *Env
}

// Progress returns the operator's input frontier: the lowest progress
// over its input channels, this message's included. Until every channel
// has reported it returns progress.Unset and ok=false. It is the most
// progress an emission may claim: Finish caps every child at it.
func (c *Context) Progress() (vtime.Time, bool) { return c.Op.frontier.Min() }

// NewBatch returns an empty batch for the handler to emit, drawn from the
// engine's batch pool when one is attached (zero-allocation steady state)
// and heap-allocated otherwise — so handler code is pooling-agnostic. The
// batch is engine-owned: emit it or discard it within this invocation;
// never store it in handler state.
func (c *Context) NewBatch(capacity int) *Batch {
	if c.env == nil {
		return NewBatch(capacity)
	}
	return c.env.NewBatch(capacity)
}

// Handler is the user-defined function a stage executes — the paper's
// operator body. Implementations hold per-operator-instance state (window
// accumulators, join tables) and return the emissions triggered by the
// message, if any. A handler instance is owned by exactly one operator and
// is never invoked concurrently (the actor guarantee).
type Handler interface {
	OnMessage(ctx *Context, m *core.Message) []Emission
}

// Coalescer is optionally implemented by a Handler that reads a chained
// payload (Batch.Next) link by link: given a message whose payload chains
// several batches it does exactly what it does given one batch of their
// tuples in chain order, and which window a tuple joins depends on the
// tuple's own time, so its results do not depend on how one channel's
// on-time tuples of one window were cut into messages. The real-time
// engine's ingest coalesces same-window batches into a channel's queued
// stage-0 message only for such handlers (see DESIGN.md). A wrapper
// forwards the inner handler's answer (see Coalesces).
type Coalescer interface {
	CoalescesBatches() bool
}

// Coalesces reports whether h opts into coalescing (see Coalescer).
func Coalesces(h Handler) bool {
	c, ok := h.(Coalescer)
	return ok && c.CoalescesBatches()
}

// HandlerFunc adapts a function to the Handler interface for stateless
// operators.
type HandlerFunc func(ctx *Context, m *core.Message) []Emission

// OnMessage implements Handler.
func (f HandlerFunc) OnMessage(ctx *Context, m *core.Message) []Emission { return f(ctx, m) }

// CostModel is the simulator's execution-cost model for one stage's
// messages: Cost = Base + PerTuple·tuples. The real-time engine ignores it
// and measures wall time instead.
type CostModel struct {
	Base     vtime.Duration
	PerTuple vtime.Duration
}

// Cost returns the modelled execution cost for a message carrying n tuples.
func (c CostModel) Cost(n int) vtime.Duration {
	return c.Base + c.PerTuple*vtime.Duration(n)
}

// StageSpec describes one stage of a job.
type StageSpec struct {
	// Name identifies the stage in traces ("agg1", "join", ...).
	Name string
	// Parallelism is the number of operator instances (>= 1).
	Parallelism int
	// Slide is the window slide S of this stage's operators, 0 for regular
	// (non-windowed) operators. It drives the TRANSFORM deadline extension
	// for messages *into* this stage.
	Slide vtime.Duration
	// NewHandler constructs the handler for one operator instance;
	// inChannels is the number of input channels the instance will see.
	NewHandler func(inChannels int) Handler
	// Cost is the simulator's execution-cost model for this stage.
	Cost CostModel
}

// JobSpec describes a streaming dataflow job.
type JobSpec struct {
	// Name must be unique within an engine.
	Name string
	// Latency is the job's latency constraint L.
	Latency vtime.Duration
	// Domain is the logical-time interpretation of the job's streams.
	Domain TimeDomain
	// Sources is the number of source channels feeding stage 0.
	Sources int
	// SourcePorts partitions the source channels into logical input ports
	// for stage 0 (2 for a two-stream join; 0/1 for single-input jobs).
	// Sources must be divisible by SourcePorts.
	SourcePorts int
	// Stages are executed in order; the last stage is the sink.
	Stages []StageSpec
	// MapperWindow is the sliding-window length of the event-time
	// regression mapper (observations); defaults to 64.
	MapperWindow int
	// EWMAAlpha is the smoothing factor of operator cost profiles;
	// defaults to 0.2 (recent messages dominate within tens of samples).
	EWMAAlpha float64
	// MaxPending caps this job's admitted batches not yet executed in the
	// real-time engine, counted per stage-0 instance as Engine.Pending
	// counts them (a batch merged into a queued message still counts);
	// 0 means unlimited. The engine's admission layer enforces it at
	// ingest — refusing the batch or shedding, per the engine's overload
	// policy.
	MaxPending int
}

// Validate checks the spec and fills defaults, returning a descriptive
// error for anything a user could get wrong.
func (s *JobSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("dataflow: job name is empty")
	}
	if s.Latency <= 0 {
		return fmt.Errorf("dataflow: job %q: latency constraint must be positive", s.Name)
	}
	if s.Sources <= 0 {
		return fmt.Errorf("dataflow: job %q: needs at least one source", s.Name)
	}
	if s.SourcePorts == 0 {
		s.SourcePorts = 1
	}
	if s.Sources%s.SourcePorts != 0 {
		return fmt.Errorf("dataflow: job %q: %d sources not divisible by %d ports",
			s.Name, s.Sources, s.SourcePorts)
	}
	if len(s.Stages) == 0 {
		return fmt.Errorf("dataflow: job %q: needs at least one stage", s.Name)
	}
	if s.MapperWindow <= 0 {
		s.MapperWindow = 64
	}
	if s.EWMAAlpha < 0 || s.EWMAAlpha > 1 {
		return fmt.Errorf("dataflow: job %q: EWMAAlpha %v out of [0,1]", s.Name, s.EWMAAlpha)
	}
	if s.EWMAAlpha == 0 {
		s.EWMAAlpha = DefaultEWMAAlpha
	}
	if s.MaxPending < 0 {
		return fmt.Errorf("dataflow: job %q: negative MaxPending %d", s.Name, s.MaxPending)
	}
	for i := range s.Stages {
		st := &s.Stages[i]
		if st.Name == "" {
			st.Name = fmt.Sprintf("stage%d", i)
		}
		if st.Parallelism <= 0 {
			return fmt.Errorf("dataflow: job %q stage %q: parallelism must be >= 1", s.Name, st.Name)
		}
		if st.NewHandler == nil {
			return fmt.Errorf("dataflow: job %q stage %q: NewHandler is nil", s.Name, st.Name)
		}
		if st.Slide < 0 {
			return fmt.Errorf("dataflow: job %q stage %q: negative slide", s.Name, st.Name)
		}
	}
	return nil
}
