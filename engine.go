package cameo

import (
	"fmt"
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// OverloadPolicy selects the engine's response when admitting a batch
// would exceed a pending-message budget (EngineConfig.MaxPending or a
// query's MaxPending).
type OverloadPolicy = runtime.OverloadPolicy

// Overload policies for EngineConfig.Overload.
const (
	// OverloadBackpressure (the default) refuses the batch: IngestBatch
	// returns ErrOverloaded and enqueues nothing, so sources can apply
	// flow control. No admitted message is ever dropped.
	OverloadBackpressure = runtime.OverloadBackpressure
	// OverloadShed admits the batch and discards queued messages to get
	// back under budget — messages that can no longer meet their deadline
	// first (negative laxity), then the lax end of the largest-backlog
	// query. Shed counts surface in Stats.
	OverloadShed = runtime.OverloadShed
)

// ErrOverloaded is returned by IngestBatch (under OverloadBackpressure)
// and TryIngestBatch when the batch would push the engine past its
// engine-wide pending-message budget; drain and retry. Compare with
// errors.Is — the per-query form ErrJobOverloaded wraps it.
var ErrOverloaded = runtime.ErrOverloaded

// ErrJobOverloaded is the per-query form of ErrOverloaded: the target
// query's own MaxPending budget would be exceeded. It wraps
// ErrOverloaded.
var ErrJobOverloaded = runtime.ErrJobOverloaded

// ErrJobPaused is returned by IngestBatch and TryIngestBatch when the
// target query is paused (by Pause, or quarantined after a handler
// panic): new batches are refused, while everything the query accepted
// before pausing is retained and executes on Resume. Compare with
// errors.Is.
var ErrJobPaused = runtime.ErrJobPaused

// EngineConfig parameterizes a real-time Engine.
type EngineConfig struct {
	// Workers is the worker-pool size (default 1).
	Workers int
	// Policy generates message priorities for the engine's Cameo
	// scheduler (default LLF()). The Orleans and FIFO baselines are
	// simulator-only: see SimulationConfig.Scheduler.
	Policy Policy
	// Quantum is the re-scheduling grain (default 1ms): how long a worker
	// holds an operator before checking, at the next message boundary,
	// whether more urgent work waits. A more urgent arrival therefore
	// waits at most Quantum plus one message, whatever DrainBatch is.
	Quantum time.Duration
	// DrainBatch is the number of messages a worker drains from an
	// acquired operator per scheduler-lock acquisition (default 16; values
	// above 1024 are silently capped at 1024). 1 disables batching — every
	// pop takes its lock. Larger values amortize scheduling locks across
	// the batch and cost no preemption granularity: a batch ends early at
	// the message where the quantum expires and more urgent work waits, or
	// where a pause or cancel is observed.
	DrainBatch int
	// MaxPending caps the engine-wide count of queued (admitted but not
	// yet executed) messages; 0 means unlimited. Enforced at ingest by the
	// admission layer, with the response selected by Overload. Per-query
	// budgets are set with Query.MaxPending.
	MaxPending int
	// Overload selects the over-budget response: OverloadBackpressure
	// (default) or OverloadShed.
	Overload OverloadPolicy
	// StartClock advances the new engine's clock origin — pass the source
	// engine's Now() when restoring a checkpoint taken on another engine,
	// so the snapshot's in-flight deadlines and window times stay on one
	// continuous time axis. Zero starts the clock at zero as usual.
	StartClock time.Duration
}

// Engine is the real-time execution engine: a single-node worker pool
// scheduling every submitted job's operators with the Cameo scheduler out
// of per-worker deadline-ordered run queues. Queries are first-class runtime objects
// with a hot lifecycle: Submit, Pause, Resume, and Cancel all operate on
// a live, running engine without stopping the workers or disturbing
// other queries' scheduling.
type Engine struct {
	inner *runtime.Engine
}

// NewEngine returns a stopped engine. Submit queries and Start it in
// either order — queries may keep arriving (and departing, via Cancel)
// while the engine runs.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{
		inner: runtime.New(runtime.Config{
			Workers:    cfg.Workers,
			Policy:     cfg.Policy,
			Quantum:    vtime.FromStd(cfg.Quantum),
			DrainBatch: cfg.DrainBatch,
			MaxPending: cfg.MaxPending,
			Overload:   cfg.Overload,
			StartTime:  vtime.FromStd(cfg.StartClock),
		}),
	}
}

// Submit validates and instantiates a query on the engine — before Start
// or while it is running. A live submit registers the query's operators
// with the running scheduler without rebuilding any state; the query is
// immediately ready for IngestBatch. A cancelled query's name may be
// reused. Safe for concurrent use.
func (e *Engine) Submit(q *Query) error {
	spec, err := q.Spec()
	if err != nil {
		return err
	}
	_, err = e.inner.AddJob(spec)
	return err
}

// Cancel removes a submitted query from the live engine: its operators
// are quiesced, their pending messages discarded, and every scheduler
// link severed, all while other queries keep executing undisturbed.
// Cancel returns once no worker references the query (a worker
// mid-message finishes that one message first); the query's accumulated
// Stats survive until its name is reused, which becomes possible the
// moment Cancel returns. Cancel must not be called from inside a handler
// of the query being cancelled — the quiesce would wait on the handler's
// own in-flight message.
func (e *Engine) Cancel(job string) error { return e.inner.CancelJob(job) }

// Pause parks a submitted query: its operators stop being scheduled
// while retaining queued work and window state. New IngestBatch and
// TryIngestBatch calls are refused with ErrJobPaused — the retained
// backlog executes on Resume, but nothing new is admitted while parked.
// Pausing a paused query is a no-op. Note that the engine-wide Drain
// counts a paused query's retained messages; use DrainJob for the others
// or Resume first.
func (e *Engine) Pause(job string) error { return e.inner.PauseJob(job) }

// Resume reverses Pause: the query's operators re-enter the run queue
// (retained messages first, in priority order) and execution continues.
func (e *Engine) Resume(job string) error { return e.inner.ResumeJob(job) }

// Checkpoint captures a consistent snapshot of one query — window and
// accumulator state, per-source stream progress, and every queued
// message — as a versioned, integrity-checked byte string for Restore.
// A running query is paused for the duration of the capture and resumed
// after; a query the caller already paused stays paused. Other queries
// keep executing throughout.
//
// A query quarantined by a handler panic (JobStats.Failed) is refused with
// an error, also when the panic lands during the capture: its state is
// suspect, and the query stays paused. Checkpoint only returns the bytes;
// storing them durably — for a file, write a temporary file and rename it
// over the previous checkpoint, so a crash mid-write leaves that one
// intact — is the caller's job.
func (e *Engine) Checkpoint(job string) ([]byte, error) {
	w := snap.NewWriter()
	if err := e.inner.CheckpointJob(job, w); err != nil {
		return nil, err
	}
	return append([]byte(nil), w.Bytes()...), nil
}

// Restore instantiates a query from a Checkpoint snapshot — on a fresh
// engine after a crash, or on a second engine for live migration. The
// query definition must match the one the snapshot was taken from (the
// snapshot embeds a topology digest and a CRC; mismatched, torn, or
// corrupted snapshots are rejected and the engine is left unchanged).
// The restored query is left paused with its recovered backlog; call
// Resume to continue execution, then re-feed each source from the caller's
// own record of what it had fed when it took the checkpoint — the engine
// exposes no per-source resume point. When restoring onto a
// different engine, construct it with StartClock set to the source
// engine's Now() so the recovered deadlines stay meaningful.
func (e *Engine) Restore(q *Query, snapshot []byte) error {
	spec, err := q.Spec()
	if err != nil {
		return err
	}
	_, err = e.inner.RestoreJob(spec, snapshot)
	return err
}

// HandlerPanics reports how many operator invocations have panicked.
// Each panic quarantines its query — paused and marked failed (see
// JobStats.Failed) — while other queries keep executing.
func (e *Engine) HandlerPanics() int64 { return e.inner.HandlerPanics() }

// Start launches the worker pool.
func (e *Engine) Start() { e.inner.Start() }

// Stop shuts the engine down, abandoning queued work. Call Drain first for
// a clean flush.
func (e *Engine) Stop() { e.inner.Stop() }

// Drain waits until all queued messages are processed, or the timeout
// expires; it reports whether the engine fully drained. A paused query's
// retained messages count as queued — Resume or Cancel it first, or use
// DrainJob.
func (e *Engine) Drain(timeout time.Duration) bool { return e.inner.Drain(timeout) }

// DrainJob waits until one query's messages are fully processed or the
// timeout expires, unaffected by other queries' backlogs; it reports
// whether that query drained. The error is non-nil only for unknown jobs.
func (e *Engine) DrainJob(job string, timeout time.Duration) (bool, error) {
	return e.inner.DrainJob(job, timeout)
}

// Event is one tuple offered to a source: its logical time on the engine's
// clock (see Engine.Now), a grouping key, and a value.
type Event struct {
	Time  time.Duration
	Key   int64
	Value float64
}

// Now returns the engine's clock: time elapsed since NewEngine. Event
// times and stream progress are expressed on this axis.
func (e *Engine) Now() time.Duration { return vtime.Std(e.inner.Now()) }

// Executed reports the number of messages executed so far — the engine's
// raw scheduling throughput counter.
func (e *Engine) Executed() int64 { return e.inner.Executed() }

// Created reports the number of messages created so far. At quiescence
// conservation holds: Created == Executed + Discarded — cancellation and
// overload shedding lose nothing to the pools.
func (e *Engine) Created() int64 { return e.inner.Created() }

// Discarded reports the number of messages dropped instead of executed,
// by query cancellation or overload shedding.
func (e *Engine) Discarded() int64 { return e.inner.Discarded() }

// Pending reports the number of queued (admitted but not yet executed)
// messages — the quantity MaxPending bounds.
func (e *Engine) Pending() int { return e.inner.Pending() }

// Shed reports how many queued messages the admission layer discarded
// under overload, across all queries (per-query counts are in Stats).
func (e *Engine) Shed() int64 { return e.inner.Shed() }

// Rejected reports how many ingest attempts were refused with
// ErrOverloaded across all queries (per-query counts are in Stats).
func (e *Engine) Rejected() int64 { return e.inner.Rejected() }

// IngestBatch offers a batch of events on one source channel of a job,
// advancing the channel's stream progress to the given value. Progress is
// a promise that no later batch on this channel carries an event with
// Time <= progress; window results for windows ending at or before the
// progress of all channels become eligible to fire. Safe for concurrent
// use across sources.
func (e *Engine) IngestBatch(job string, source int, events []Event, progress time.Duration) error {
	b := e.renderBatch(events)
	err := e.inner.Ingest(job, source, b, vtime.FromStd(progress))
	if err != nil {
		e.inner.ReturnBatch(b)
	}
	return err
}

// TryIngestBatch is the non-blocking, never-shedding variant of
// IngestBatch: when admitting the batch would exceed a pending-message
// budget it returns ErrOverloaded (or ErrJobOverloaded) without
// enqueueing anything, regardless of the engine's overload policy — the
// flow-control primitive for sources that would rather slow down than
// have the engine shed.
func (e *Engine) TryIngestBatch(job string, source int, events []Event, progress time.Duration) error {
	b := e.renderBatch(events)
	err := e.inner.TryIngest(job, source, b, vtime.FromStd(progress))
	if err != nil {
		e.inner.ReturnBatch(b)
	}
	return err
}

// renderBatch renders []Event into a columnar batch leased from the
// engine's batch pool, so the public ingest path costs zero steady-state
// allocations per call (the alloc gate pins it): on successful ingest the
// engine recycles the batch like any other pooled payload; on refusal the
// caller returns it. A nil return (empty events) is a pure watermark.
func (e *Engine) renderBatch(events []Event) *dataflow.Batch {
	if len(events) == 0 {
		return nil
	}
	b := e.inner.LeaseBatch(len(events))
	for _, ev := range events {
		b.Append(vtime.FromStd(ev.Time), ev.Key, ev.Value)
	}
	return b
}

// AdvanceProgress advances one source channel's stream progress without
// data — a watermark/heartbeat that lets windows close during idle periods.
// Watermarks are exempt from the admission budgets (refusing one under
// overload would delay exactly the window closures that drain state), so
// AdvanceProgress never returns ErrOverloaded.
func (e *Engine) AdvanceProgress(job string, source int, progress time.Duration) error {
	return e.inner.Ingest(job, source, nil, vtime.FromStd(progress))
}

// JobStats summarizes a job's results so far. Outputs and SuccessRate are
// exact; the percentiles come from a fixed-size latency histogram, so a
// job's statistics take the same memory however long it runs.
type JobStats struct {
	// Outputs is the number of results produced (exact).
	Outputs int
	// P50, P95 and P99 are latency percentiles: time from the last
	// contributing event's arrival to result emission. They are precise to
	// one histogram bucket: within 12.5 % of the exact percentile, and
	// exact below 16 µs.
	P50, P95, P99 time.Duration
	// SuccessRate is the fraction of outputs that met the latency target
	// (exact).
	SuccessRate float64
	// Shed is the number of this job's queued messages discarded by the
	// admission layer under overload (OverloadShed); Backpressure is the
	// number of this job's ingest attempts refused with ErrOverloaded.
	Shed, Backpressure int64
	// Failed reports whether a handler panic quarantined this job: it is
	// paused, refuses ingest with ErrJobPaused, and stays failed until
	// cancelled (see Engine.HandlerPanics for the engine-wide count).
	Failed bool
	// PerSource breaks admission down by source channel (index == source).
	// The per-source rejected counts sum to Backpressure; the per-source
	// shed counts plus ShedDownstream sum to Shed.
	PerSource []SourceStats
	// ShedDownstream counts this job's shed messages that were past stage
	// 0 and so cannot be attributed to one source.
	ShedDownstream int64
}

// SourceStats is one source channel's admission ledger within JobStats.
type SourceStats struct {
	// Accepted counts batches admitted on this source; Rejected counts
	// batches refused with ErrOverloaded/ErrJobOverloaded.
	Accepted, Rejected int64
	// Shed counts this source's queued stage-0 messages discarded by the
	// admission layer under overload.
	Shed int64
	// Queued is the source's current queued stage-0 backlog — the signal
	// the per-source fair-share admission and shedding act on.
	Queued int64
}

// Stats reports a submitted job's current output statistics.
func (e *Engine) Stats(job string) (JobStats, error) {
	js := e.inner.Recorder().Job(job)
	if js == nil {
		return JobStats{}, fmt.Errorf("cameo: unknown job %q", job)
	}
	out := JobStats{
		Outputs:      int(js.Count()),
		SuccessRate:  js.SuccessRate(),
		Shed:         js.Shed.Load(),
		Backpressure: js.Rejected.Load(),
		Failed:       e.inner.JobFailed(job),
	}
	if per, err := e.inner.PerSource(job); err == nil {
		out.PerSource = make([]SourceStats, len(per))
		for i, s := range per {
			out.PerSource[i] = SourceStats{
				Accepted: s.Accepted,
				Rejected: s.Rejected,
				Shed:     s.Shed,
				Queued:   s.Queued,
			}
		}
	}
	if ds, err := e.inner.ShedDownstream(job); err == nil {
		out.ShedDownstream = ds
	}
	if out.Outputs > 0 {
		out.P50 = vtime.Std(vtime.Time(js.Quantile(0.50)))
		out.P95 = vtime.Std(vtime.Time(js.Quantile(0.95)))
		out.P99 = vtime.Std(vtime.Time(js.Quantile(0.99)))
	}
	return out, nil
}
