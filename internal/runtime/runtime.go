// Package runtime is the real-time execution engine: the same dataflow and
// scheduling code the simulator drives, running on actual goroutine
// workers against the wall clock. It is the engine library users embed —
// the examples under examples/ are built on it — and it cross-checks that
// Cameo's scheduling behaviour holds outside virtual time.
//
// One Engine is one node: a worker pool pulling deadline-ordered work,
// exactly like a simulated node. Events enter through Ingest; operator
// costs are measured (not modelled) and feed the same profiling machinery
// the policies consume.
//
// The engine runs the Cameo scheduler through one dispatch path
// (sharded.go): each operator is locked on its own (the mutex sits in its
// intrusive scheduling state) and the run queue is sharded per worker —
// per-worker deadline heaps with a global overflow lane and
// priority-aware stealing — so Ingest and the workers contend only on the
// operator a message is for and on one run-queue lane. The Orleans and
// FIFO baselines the paper compares against exist only in the simulator
// (internal/sim), which is also the order reference this path is pinned
// against message for message.
//
// The steady-state message path is allocation-free: messages and
// engine-created batches recycle through pools, execution emits into
// per-worker scratch buffers (dataflow.Env), and scheduling state lives
// intrusively on the operators — see TESTING.md's zero-allocation
// section and the Allocs tests that gate it.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/metrics"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// ErrJobPaused is returned by Ingest/TryIngest when the target job is
// paused (explicitly, by a checkpoint in progress, or by quarantine after
// a handler panic). The job's already-admitted backlog is retained —
// nothing is dropped — but new work is refused until ResumeJob; compare
// with errors.Is.
var ErrJobPaused = errors.New("runtime: job is paused")

// ErrProgressRegressed is returned by Ingest/TryIngest when a batch's
// progress is below the progress its source channel already reported:
// progress promises that no later batch on the channel carries an earlier
// event, so a lower value breaks the promise and is refused before
// admission, with nothing enqueued. Equal progress is accepted (a refused
// batch is retried with the same value); compare with errors.Is.
var ErrProgressRegressed = errors.New("runtime: progress below the source's recorded progress")

// Config parameterizes an Engine.
type Config struct {
	// Workers is the worker-pool size (defaults to 1).
	Workers int
	// Policy generates priorities (default LLF, as in the simulator).
	Policy core.Policy
	// Quantum is the re-scheduling grain (default 1 ms): a worker that has
	// held one operator this long asks, at the next message boundary,
	// whether a more urgent operator is waiting, and swaps if so. It is
	// the one knob trading preemption delay (at most Quantum plus one
	// message, whatever DrainBatch is) against switch cost.
	Quantum vtime.Duration
	// DrainBatch is the number of messages a worker pops from an acquired
	// operator per operator-lock acquisition (default 16, capped at 1024).
	// It amortizes the pop lock and nothing else: a batch ends early at the
	// message boundary where the quantum expires and more urgent work
	// waits, or where a pause, cancel or stop is observed, and its
	// unexecuted tail goes back to the operator's queue. 1 reproduces the
	// unbatched one-lock-per-pop behavior exactly and is what the
	// order-equivalence tests pin.
	DrainBatch int
	// TraceLimit, when positive, records up to this many executions in a
	// schedule trace (mirrors sim.Config.TraceLimit), exposed via Trace.
	TraceLimit int
	// MaxPending caps the engine-wide count of admitted batches not yet
	// executed (0 = unlimited), counted as Engine.Pending counts them: a
	// source batch as one unit per stage-0 instance, whether it is queued
	// as its own message or merged into one, and a derived message as one.
	// Budgets are enforced at ingest by the admission layer; per-job
	// budgets live on JobSpec.MaxPending.
	// Data-less ingests (watermarks) are exempt from the check, and
	// concurrent ingests may transiently overshoot by their combined
	// fan-out — the budget is memory back-pressure, not an exact
	// semaphore.
	MaxPending int
	// Overload selects the response when a budget would be exceeded:
	// backpressure (default — Ingest returns ErrOverloaded) or
	// deadline-aware shedding (see OverloadPolicy).
	Overload OverloadPolicy
	// StartTime advances the engine clock at construction — a restored
	// engine sets it to the crashed/migrated-from engine's last Now() so
	// deadlines, laxity, and recorded latencies stay on one time axis
	// across the restore boundary.
	StartTime vtime.Duration
	// Recorder, when non-nil, is used instead of a fresh metrics recorder.
	// Migration hands the source engine's recorder to the target so a
	// job's outputs accumulate across the move (DeclareJob is idempotent
	// for an unchanged constraint).
	Recorder *metrics.Recorder
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxPending < 0 {
		c.MaxPending = 0
	}
	if c.Quantum <= 0 {
		c.Quantum = vtime.Millisecond
	}
	if c.DrainBatch <= 0 {
		c.DrainBatch = 16
	}
	if c.DrainBatch > 1024 {
		c.DrainBatch = 1024
	}
	if c.Policy == nil {
		c.Policy = &core.DeadlinePolicy{Kind: core.KindLLF}
	}
}

// Engine is a single-node real-time stream engine.
type Engine struct {
	cfg   Config
	clock vtime.Clock

	// jobs maps a name to its live *dataflow.Job. Reads (every ingest and
	// the per-job queries) are lock-free: a sync.Map load writes no shared
	// cache line, where a read lock writes its reader count. Stores and
	// deletes happen only in AddJob/RestoreJob and CancelJob, under jobsMu,
	// which also serializes every lifecycle transition and guards
	// cancelling and failed. A job's paused state is its own Paused flag.
	jobsMu     sync.RWMutex
	jobs       sync.Map
	cancelling map[string]bool
	// failed marks jobs quarantined after a handler panic: paused, refused
	// by CheckpointJob, and reported via JobFailed.
	// Cleared when the job is cancelled (its name leaves all maps).
	failed  map[string]bool
	started atomic.Bool
	stopped atomic.Bool

	path *shardedPath
	// adm is the admission layer: pending-message budgets, overload
	// response, and the queued-message accounting the path reports into.
	adm *admission

	rec           *metrics.Recorder
	overhead      *metrics.Overhead
	trace         *metrics.ScheduleTrace
	msgID         atomic.Int64
	discarded     atomic.Int64
	handlerPanics atomic.Int64
	// lifeEpoch counts lifecycle transitions (pause, cancel) engine-wide.
	// Workers snapshot it before draining a popped batch and re-check it
	// after each execution (one atomic load): an unchanged epoch proves no
	// pause or cancel has completed anywhere since the batch left its
	// queue, so the worker may keep draining without touching the
	// operator's lock; a moved epoch sends it back to the lock
	// for a phase check. This is what keeps batched draining at the same
	// message-granular lifecycle responsiveness as the unbatched path.
	// Each bump lands AFTER the path finished flipping phases, so a worker
	// that observes the new epoch is guaranteed to see the new phase.
	lifeEpoch atomic.Uint64
	// outstanding counts messages that exist but have not finished
	// executing: incremented when a message is created (ingest; children
	// in the same atomic op as their parent's completion), decremented on
	// completion. A single atomic read therefore gives Drain a consistent
	// idle test — the consistency the engine-wide mutex used to provide.
	outstanding atomic.Int64
	wg          sync.WaitGroup

	// msgs and batches recycle the hot path's two per-message allocations;
	// envs holds each worker's execution environment (policy binding plus
	// reusable outcome/partition scratch), and ingestEnvs lends equivalent
	// environments to concurrent Ingest callers.
	msgs       *core.MessagePool
	batches    *dataflow.BatchPool
	envs       []*dataflow.Env
	ingestEnvs sync.Pool
}

// New returns an engine. Jobs may be added before or after Start; the
// worker pool runs until Stop.
func New(cfg Config) *Engine {
	cfg.fill()
	clock := vtime.NewWallClock()
	if cfg.StartTime > 0 {
		clock.Advance(cfg.StartTime)
	}
	e := &Engine{
		cfg:        cfg,
		clock:      clock,
		cancelling: make(map[string]bool),
		failed:     make(map[string]bool),
		rec:        cfg.Recorder,
		overhead:   metrics.NewOverhead(cfg.Workers),
	}
	if e.rec == nil {
		e.rec = metrics.NewRecorder()
	}
	if cfg.TraceLimit > 0 {
		e.trace = metrics.NewScheduleTrace(cfg.TraceLimit)
	}
	e.msgs = core.NewMessagePool(cfg.Workers)
	e.batches = dataflow.NewBatchPool(cfg.Workers)
	e.adm = newAdmission(e, cfg)
	e.envs = make([]*dataflow.Env, cfg.Workers)
	for i := range e.envs {
		e.envs[i] = e.newEnv(i)
	}
	e.ingestEnvs.New = func() any { return e.newEnv(-1) }
	e.path = newShardedPath(e, cfg.Workers)
	return e
}

// newEnv builds one execution environment bound to this engine's policy,
// ID counter, and pools. worker -1 marks external (ingest) environments.
func (e *Engine) newEnv(worker int) *dataflow.Env {
	env := dataflow.NewEnv(e.cfg.Policy, e.nextID, worker)
	env.Msgs = e.msgs
	env.Batches = e.batches
	return env
}

// borrowEnv lends the caller an external (non-worker) environment — its
// route to the pools and to the scratch ingest cuts a batch in; hand it
// back with ingestEnvs.Put once nothing it returned is in use.
func (e *Engine) borrowEnv() *dataflow.Env { return e.ingestEnvs.Get().(*dataflow.Env) }

// Recorder exposes collected output metrics.
func (e *Engine) Recorder() *metrics.Recorder { return e.rec }

// Overhead exposes the engine's time accounting.
func (e *Engine) Overhead() *metrics.Overhead { return e.overhead }

// Trace exposes the schedule trace (nil unless Config.TraceLimit was set).
func (e *Engine) Trace() *metrics.ScheduleTrace { return e.trace }

// Now reports engine time (microseconds since engine creation).
func (e *Engine) Now() vtime.Time { return e.clock.Now() }

// Executed reports the number of messages executed so far — the sum of
// the per-worker tallies in Overhead, exact at quiescence.
func (e *Engine) Executed() int64 { return e.overhead.Snapshot().Messages }

// Created reports the number of messages created so far (source fan-outs
// plus derived children; a batch ingest merges into a queued message
// creates none). Conservation holds at quiescence:
// Created == Executed + Discarded.
func (e *Engine) Created() int64 { return e.msgID.Load() }

// Discarded reports the number of messages dropped instead of executed —
// by job cancellation (queued at or pushed to a cancelled operator) or by
// overload shedding. Every created message is eventually either executed
// or discarded.
func (e *Engine) Discarded() int64 { return e.discarded.Load() }

// Shed reports how many queued messages the admission layer discarded
// under overload (a subset of Discarded). Per-job counts are in the
// metrics recorder.
func (e *Engine) Shed() int64 { return e.adm.shed.Load() }

// Rejected reports how many ingest attempts were refused with
// ErrOverloaded / ErrJobOverloaded (backpressure). Per-job counts are in
// the metrics recorder.
func (e *Engine) Rejected() int64 { return e.adm.rejected.Load() }

// HandlerPanics reports how many handler invocations panicked. A panic
// drops the message and quarantines its job — paused and marked failed
// (see JobFailed) — instead of letting a corrupted handler keep
// executing; a nonzero count indicates a bug in user handler code.
func (e *Engine) HandlerPanics() int64 { return e.handlerPanics.Load() }

// JobFailed reports whether the named job has been quarantined after a
// handler panic: it is paused (backlog retained, ingest refused with
// ErrJobPaused) and stays failed until cancelled. Resuming a failed job
// is permitted — the caller is asserting the panic was transient — but
// does not clear the failed mark.
func (e *Engine) JobFailed(name string) bool {
	e.jobsMu.RLock()
	defer e.jobsMu.RUnlock()
	return e.failed[name]
}

// quarantineJob pauses and marks failed the job whose handler panicked.
// Called from a worker with no scheduling locks held (execMessage's
// contract). Races benignly with lifecycle calls: a cancelled or already-
// paused job keeps its state, and the failed mark is set regardless so
// the panic is never silently absorbed by a concurrent pause.
func (e *Engine) quarantineJob(name string) {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	j, ok := e.job(name)
	if !ok || e.cancelling[name] {
		return
	}
	e.failed[name] = true
	e.pauseLocked(j)
}

// pauseLocked pauses j unless it already is; the caller holds jobsMu
// exclusively. The flag is set before the operators park, so an ingest
// that sees it unset was admitted before the pause and is retained like
// the rest of the backlog.
func (e *Engine) pauseLocked(j *dataflow.Job) {
	if j.Paused.Swap(true) {
		return
	}
	e.path.pause(j)
	e.lifeEpoch.Add(1) // after the phases are set; see lifeEpoch
}

// job looks up a live job by name without taking a lock.
func (e *Engine) job(name string) (*dataflow.Job, bool) {
	v, ok := e.jobs.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*dataflow.Job), true
}

// eachJob hands every live job to visit. Like sync.Map.Range it is no
// consistent snapshot: a job submitted or cancelled concurrently may or
// may not be visited.
func (e *Engine) eachJob(visit func(*dataflow.Job)) {
	e.jobs.Range(func(_, v any) bool {
		visit(v.(*dataflow.Job))
		return true
	})
}

// AddJob instantiates a job on this engine — before Start or on a live,
// running engine. A live submit is pure registration: the new operators
// are fresh objects no worker has seen, so making them schedulable is one
// map insert under jobsMu; no dispatcher or worker state is rebuilt (the
// paper's stateless-scheduler property, which is what lets queries arrive
// and depart at high churn, §6.4). A cancelled job's name may be reused;
// reuse starts the name's recorded statistics fresh (the cancelled job's
// stats are dropped, never merged into the new job's — reaching here with
// a recorder entry but no live job means the entry is stale, and no
// in-flight execution can still record against it because CancelJob
// releases the name only after its quiesce).
func (e *Engine) AddJob(spec dataflow.JobSpec) (*dataflow.Job, error) {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	return e.addJobLocked(spec, false)
}

// addJobLocked registers spec under jobsMu (held exclusively by the
// caller). restored marks a RestoreJob registration, which differs from a
// fresh submit in two ways: the job enters PAUSED — its operators are
// flipped before the map insert publishes them, so nothing can schedule
// until its state is reinstated — and the name's recorded statistics are
// kept rather than dropped, so a migrated job's outputs accumulate across
// the move on a shared recorder.
func (e *Engine) addJobLocked(spec dataflow.JobSpec, restored bool) (*dataflow.Job, error) {
	if e.stopped.Load() {
		return nil, fmt.Errorf("runtime: AddJob on stopped engine")
	}
	if _, dup := e.job(spec.Name); dup {
		return nil, fmt.Errorf("runtime: duplicate job %q", spec.Name)
	}
	job, err := dataflow.NewJob(spec)
	if err != nil {
		return nil, err
	}
	// The dispatch path keeps an operator's run-queue lane in its
	// intrusive scheduling state; "no lane" is a non-zero sentinel, so it
	// must be stamped before the operator can be scheduled.
	for _, op := range job.Operators() {
		st := op.Sched()
		st.Lane = laneNone
		if restored {
			st.Phase = core.OpPaused
		}
	}
	if !restored {
		e.rec.DropJob(spec.Name) // stale stats from a cancelled incarnation, if any
	}
	job.Stats = e.rec.DeclareJob(spec.Name, spec.Latency)
	job.PausedErr = fmt.Errorf("%w: job %q", ErrJobPaused, spec.Name)
	job.Paused.Store(restored)
	// Publish last: lookups take no lock, so the job must be complete
	// before its name resolves.
	e.jobs.Store(spec.Name, job)
	return job, nil
}

// CancelJob removes a job from the live engine: its operators are marked
// dead, their pending messages are discarded (pooled messages and batches
// return to their free lists), and every intrusive run-queue link is
// severed — all without stopping the workers or touching other jobs'
// scheduling state. CancelJob then waits for the job to quiesce: a worker
// mid-message finishes that message (its children are dropped at push),
// so the wait is bounded by one handler invocation per worker. After it
// returns no worker references the job and its name is free for reuse.
// The job's recorded output statistics survive in Recorder.
//
// The name is unlinked only AFTER the quiesce, so a dying worker's last
// output always finds its recorder entry and a concurrent AddJob under
// the same name (which may drop that entry for a changed constraint)
// cannot begin until no in-flight execution can record against it.
// Ingests racing the cancel are accepted and discarded.
//
// CancelJob must not be called from inside a handler of the job being
// cancelled: the handler's own message counts as in-flight, so the
// quiesce would wait on itself. Handlers that self-terminate should
// signal another goroutine to cancel.
func (e *Engine) CancelJob(name string) error {
	e.jobsMu.Lock()
	j, ok := e.job(name)
	if !ok {
		e.jobsMu.Unlock()
		return fmt.Errorf("runtime: unknown job %q", name)
	}
	if e.cancelling[name] {
		// Another CancelJob owns this job's rundown. Wait for it to
		// finish (the name leaves the map, or is even replaced by a
		// resubmission) so this caller gets the same post-condition —
		// returning early would break "no worker references the job".
		e.jobsMu.Unlock()
		waitUntil(func() bool { cur, _ := e.job(name); return cur != j }, time.Time{})
		return nil
	}
	e.cancelling[name] = true
	e.path.cancel(j)
	// Bump AFTER the phases are all dead: a worker mid-batch that sees the
	// new epoch re-checks its operator's phase and disposes of the batch
	// tail (see lifeEpoch).
	e.lifeEpoch.Add(1)
	e.jobsMu.Unlock()
	// Quiesce outside the lock so other jobs' lifecycle and ingest calls
	// proceed while the last in-flight executions retire.
	waitUntil(func() bool { return j.Outstanding.Load() == 0 }, time.Time{})
	e.jobsMu.Lock()
	e.jobs.Delete(name)
	delete(e.failed, name)
	delete(e.cancelling, name)
	e.jobsMu.Unlock()
	j.Teardown()
	return nil
}

// PauseJob parks a running job: its operators stop being eligible for
// scheduling while retaining queued messages (nothing already admitted is
// dropped), and NEW ingests are refused with ErrJobPaused until the job
// is resumed. Workers holding one of its operators finish only the
// current message. Pausing a paused job is a no-op. Note that the
// engine-wide Drain counts a paused job's retained messages, so it will
// not report idle until the job is resumed or cancelled; DrainJob targets
// live jobs individually.
func (e *Engine) PauseJob(name string) error {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	j, ok := e.job(name)
	if !ok {
		return fmt.Errorf("runtime: unknown job %q", name)
	}
	e.pauseLocked(j)
	return nil
}

// ResumeJob makes a paused job schedulable again: every operator with
// pending messages re-enters its run queue and workers are woken.
// Resuming a job that is not paused is a no-op.
func (e *Engine) ResumeJob(name string) error {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	j, ok := e.job(name)
	if !ok {
		return fmt.Errorf("runtime: unknown job %q", name)
	}
	if j.Paused.Swap(false) {
		e.path.resume(j)
	}
	return nil
}

// JobPaused reports whether the named job is currently paused.
func (e *Engine) JobPaused(name string) bool {
	j, ok := e.job(name)
	return ok && j.Paused.Load()
}

// Jobs returns the names of the currently submitted (not cancelled) jobs.
func (e *Engine) Jobs() []string {
	var out []string
	e.eachJob(func(j *dataflow.Job) { out = append(out, j.Spec.Name) })
	return out
}

// DrainJob blocks until one job's messages are fully executed (queued and
// in-flight) or the timeout elapses, reporting whether it drained. Unlike
// the engine-wide Drain it is unaffected by other jobs' backlogs — the
// per-job outstanding counter follows the same children-before-parent
// atomic counting rule, so a single read is a consistent idle test for
// that job.
func (e *Engine) DrainJob(name string, timeout time.Duration) (bool, error) {
	j, ok := e.job(name)
	if !ok {
		return false, fmt.Errorf("runtime: unknown job %q", name)
	}
	return waitUntil(func() bool { return j.Outstanding.Load() == 0 }, time.Now().Add(timeout)), nil
}

// discardMessage settles a message that will never execute — one found
// queued at a cancelled operator, or pushed to one in flight. Its payload
// batch and the message itself return to the pools (through a borrowed
// external env: discards happen in lifecycle, shed and delivery code that
// owns no worker's free list) and every counter that registered the
// message is balanced. The caller owns the queued-message accounting.
func (e *Engine) discardMessage(j *dataflow.Job, m *core.Message) {
	env := e.borrowEnv()
	if b, ok := m.Payload.(*dataflow.Batch); ok {
		env.FreeBatch(b)
	}
	env.FreeMessage(m)
	e.ingestEnvs.Put(env)
	e.discarded.Add(1)
	e.outstanding.Add(-1)
	j.Outstanding.Add(-1)
}

// shedQueued settles one queued message the admission layer discarded:
// the queued-budget counters release its units, the shed is attributed to
// its source channel (stage 0) or the downstream bucket, a channel tail it
// was stops being one, then discardMessage recycles it with the usual
// conservation accounting. Callers hold the lock guarding the queue the
// message came from — op is the operator the message was queued at.
func (e *Engine) shedQueued(j *dataflow.Job, op *dataflow.Operator, m *core.Message) {
	e.adm.note(j, -m.Units())
	if op.Stage == 0 {
		noteSrcQueued(op, m, -1)
		j.SrcShed[m.Channel].Add(1)
		if tails := op.Sched().Tails; tails != nil && tails[m.Channel] == m {
			tails[m.Channel] = nil
		}
	} else {
		j.ShedDownstream.Add(1)
	}
	e.discardMessage(j, m)
}

// noteSrcQueued attributes a queued stage-0 message's units to its source
// channel (delta +1 at enqueue, -1 at dequeue or discard) — stage-0
// messages carry their source index in Message.Channel. Downstream
// messages have no source attribution and are skipped. Called at the
// same sites as the admission queued counters, under the same locks.
func noteSrcQueued(op *dataflow.Operator, m *core.Message, delta int64) {
	if op.Stage == 0 {
		op.Job.SrcQueued[m.Channel].Add(delta * m.Units())
	}
}

// noteShed records n shed messages against job j — the engine-wide shed
// counter plus the per-job metrics entry. Called once per swept operator
// (not per message).
func (e *Engine) noteShed(j *dataflow.Job, n int) {
	if n == 0 {
		return
	}
	e.adm.shed.Add(int64(n))
	j.Stats.Shed.Add(int64(n))
}

// Start launches the worker pool.
func (e *Engine) Start() {
	if e.started.Swap(true) {
		return
	}
	for i := 0; i < e.cfg.Workers; i++ {
		e.wg.Add(1)
		go e.path.worker(i)
	}
}

// Stop shuts the workers down and waits for them to exit. Pending messages
// are abandoned; call Drain first for a clean flush.
func (e *Engine) Stop() {
	if !e.started.Load() || e.stopped.Swap(true) {
		return
	}
	close(e.path.stopCh) // wakes every parked worker to observe e.stopped
	e.wg.Wait()
}

// Ingest feeds one source batch for a job: src is the source channel, b the
// tuple batch, p the stream progress (logical time of the newest tuple).
// The arrival time is stamped by the engine clock. Safe for concurrent use:
// concurrent ingests from different sources proceed in parallel,
// contending only per target operator and lane.
//
// Under a deadline-aware policy (LLF, EDF) a batch's partition whose
// source channel already has a queued message of the same window at a
// windowed stage-0 instance is appended to that message's payload instead
// of becoming a message of its own, within dataflow.MaxCoalesce tuples
// (see DESIGN.md); it still counts as one pending unit there.
//
// Every ingest passes through the admission layer: when a pending-message
// budget (Config.MaxPending, JobSpec.MaxPending) would be exceeded, the
// batch is either refused with ErrOverloaded / ErrJobOverloaded (under
// OverloadBackpressure — nothing was enqueued; drain and retry) or
// admitted with doomed/excess queued messages shed to make room (under
// OverloadShed). TryIngest always gets the backpressure behaviour.
func (e *Engine) Ingest(job string, src int, b *dataflow.Batch, p vtime.Time) error {
	return e.ingest(job, src, b, p, false)
}

// TryIngest is the non-blocking, never-shedding variant of Ingest: when
// admitting the batch would exceed a pending-message budget it returns
// ErrOverloaded (or ErrJobOverloaded) without enqueueing anything —
// regardless of the configured overload policy — so sources can apply
// their own flow control even on a shedding engine.
func (e *Engine) TryIngest(job string, src int, b *dataflow.Batch, p vtime.Time) error {
	return e.ingest(job, src, b, p, true)
}

func (e *Engine) ingest(job string, src int, b *dataflow.Batch, p vtime.Time, try bool) error {
	j, ok := e.job(job)
	if !ok {
		return fmt.Errorf("runtime: unknown job %q", job)
	}
	if j.Paused.Load() {
		// A paused job retains its already-admitted backlog but refuses new
		// work — growing an unschedulable queue without bound would turn
		// pause into a memory leak, and checkpoint/migration rely on a
		// paused job's queues being frozen. The check races a concurrent
		// PauseJob by design (a batch admitted just before the pause lands
		// is retained like the rest of the backlog); PauseJob stores the
		// flag before it returns, so every later ingest observes the pause.
		return j.PausedErr
	}
	if src < 0 || src >= j.Spec.Sources {
		return fmt.Errorf("runtime: job %q: source %d out of range [0,%d)",
			job, src, j.Spec.Sources)
	}
	if p == progress.Unset {
		// The frontiers' not-yet-reported marker: accepted, it would count
		// the channel as heard from without a value and stall every
		// window downstream of it.
		return fmt.Errorf("runtime: job %q: source %d: progress %d is reserved", job, src, p)
	}
	if last := vtime.Time(j.SourceProgress[src].Load()); p < last {
		// Accepted, it would regress the stage-0 frontiers on this channel
		// and quarantine the job. Progress is recorded only after
		// admission, so a refused batch's retry is compared against the
		// progress accepted before it.
		return fmt.Errorf("%w: job %q: source %d: progress %d after %d", ErrProgressRegressed, job, src, p, last)
	}
	// The admission check precedes message creation — the fan-out width is
	// stage-0 parallelism, known up front — so a refused batch allocates
	// nothing and the accept path adds only a few atomic loads. Data-less
	// ingests (nil batch: watermarks/heartbeats) are exempt: refusing a
	// watermark under overload would delay exactly the window closures
	// that drain state, and a heartbeat's fan-out is the bounded price of
	// letting progress advance. Their messages still count against the
	// queued totals once pushed.
	if b != nil {
		if err := e.adm.admit(j, src, len(j.Stages[0]), try); err != nil {
			return err
		}
	}
	// Record the channel's stream progress for checkpointing: a snapshot
	// carries where every source stood at the cut, so a restored job's
	// feeder can resume from there instead of regressing stage-0 frontiers.
	j.NoteSourceProgress(src, p)
	now := e.clock.Now()
	env := e.borrowEnv()
	// The path consumes the batch synchronously (every partition is merged
	// or pushed before it returns), so the env's scratch can go straight
	// back to the pool. If the job was cancelled between the map lookup
	// above and here, the path observes the dead operators and releases
	// the batch.
	e.path.ingest(j, src, b, p, now, env)
	e.ingestEnvs.Put(env)
	e.adm.enforce(j, now)
	return nil
}

// LeaseBatch draws an empty batch from the engine's batch pool for an
// external producer (the networked ingest tier's decode buffers). A
// leased batch handed to Ingest/TryIngest is owned by the engine on
// success — it recycles through the pool like any engine-created batch —
// and stays the caller's to ReturnBatch when ingest refuses it. The batch
// has room for capacity tuples, and steady-state leasing does not
// allocate.
func (e *Engine) LeaseBatch(capacity int) *dataflow.Batch {
	env := e.borrowEnv()
	b := env.NewBatch(capacity)
	e.ingestEnvs.Put(env)
	return b
}

// ReturnBatch releases a leased batch that was never successfully
// ingested (a refused flush, a torn connection's pending buffer). Safe on
// nil and on externally created batches (both are no-ops).
func (e *Engine) ReturnBatch(b *dataflow.Batch) {
	env := e.borrowEnv()
	env.FreeBatch(b)
	e.ingestEnvs.Put(env)
}

// JobShape reports the named job's ingest-facing shape: its source
// channel count and stage-0 parallelism (the fan-out every admitted batch
// multiplies into). The serving tier derives per-stream credit windows
// from it together with JobBudget.
func (e *Engine) JobShape(name string) (sources, stage0 int, err error) {
	j, ok := e.job(name)
	if !ok {
		return 0, 0, fmt.Errorf("runtime: unknown job %q", name)
	}
	return j.Spec.Sources, len(j.Stages[0]), nil
}

// JobSlack reports what bounds the urgency of the named job's input: its
// latency target L and the slide S of the first windowed stage on the path
// from the sources (0 if none — every input then triggers output). The
// serving tier reads it once per bind and schedules its flushes by it.
func (e *Engine) JobSlack(name string) (latency, slide vtime.Duration, err error) {
	j, ok := e.job(name)
	if !ok {
		return 0, 0, fmt.Errorf("runtime: unknown job %q", name)
	}
	for _, st := range j.Spec.Stages {
		if st.Slide > 0 {
			return j.Spec.Latency, st.Slide, nil
		}
	}
	return j.Spec.Latency, 0, nil
}

// JobBudget reports the named job's pending budget, JobSpec.MaxPending
// (0 = unlimited).
func (e *Engine) JobBudget(name string) (int64, error) {
	j, ok := e.job(name)
	if !ok {
		return 0, fmt.Errorf("runtime: unknown job %q", name)
	}
	return int64(j.Spec.MaxPending), nil
}

// SourceCounters is one source channel's admission ledger (see
// PerSource).
type SourceCounters struct {
	// Accepted counts data batches admitted from this source; Rejected
	// counts batches refused by backpressure. Shed counts this source's
	// stage-0 messages discarded by overload shedding, and Queued is its
	// currently admitted-but-not-popped stage-0 backlog in units (see
	// Engine.Pending).
	Accepted, Rejected, Shed, Queued int64
}

// PerSource reports the named job's per-source admission counters. The
// per-source rejected counts sum to the job's recorded rejected total,
// and the per-source shed counts plus the job's downstream-shed count
// sum to its shed total — the reconciliation the fairness tests pin.
func (e *Engine) PerSource(name string) ([]SourceCounters, error) {
	j, ok := e.job(name)
	if !ok {
		return nil, fmt.Errorf("runtime: unknown job %q", name)
	}
	out := make([]SourceCounters, j.Spec.Sources)
	for s := range out {
		out[s] = SourceCounters{
			Accepted: j.SrcAccepted[s].Load(),
			Rejected: j.SrcRejected[s].Load(),
			Shed:     j.SrcShed[s].Load(),
			Queued:   j.SrcQueued[s].Load(),
		}
	}
	return out, nil
}

// ShedDownstream reports how many of the named job's shed messages came
// from stages past 0 — shed work with no single source attribution.
func (e *Engine) ShedDownstream(name string) (int64, error) {
	j, ok := e.job(name)
	if !ok {
		return 0, fmt.Errorf("runtime: unknown job %q", name)
	}
	return j.ShedDownstream.Load(), nil
}

// Pending reports the number of admitted batches not yet executed — the
// units of every queued message, the quantity the admission layer's
// budgets bound. A message counts one unit per batch it carries: a source
// batch fans out into one unit per stage-0 instance, merged into a queued
// message or not, and a derived message is one unit.
func (e *Engine) Pending() int { return int(e.adm.queued.Load()) }

// JobPending reports one job's admitted batches not yet executed, counted
// as Pending counts them.
func (e *Engine) JobPending(name string) (int, error) {
	j, ok := e.job(name)
	if !ok {
		return 0, fmt.Errorf("runtime: unknown job %q", name)
	}
	return int(j.Queued.Load()), nil
}

// Drain blocks until every queued message has been executed (and no worker
// is mid-message) or the timeout elapses; it reports whether the engine
// fully drained. The outstanding counter covers queued AND in-flight
// messages (children are added in the same atomic op that retires their
// parent), so one atomic read is a consistent idle test. A paused job's
// retained messages count as outstanding — Drain will time out while one
// holds backlog; resume or cancel it first, or use DrainJob.
func (e *Engine) Drain(timeout time.Duration) bool {
	return waitUntil(func() bool { return e.outstanding.Load() == 0 }, time.Now().Add(timeout))
}

// waitInterval is how often waitUntil polls.
const waitInterval = 50 * time.Microsecond

// waitUntil polls done every waitInterval until it holds, and reports
// true, or until deadline passes, and reports false. A zero deadline
// waits as long as it takes. Every wait of the engine's lifecycle calls —
// cancel, drain, the checkpoint's quiesce — is this one loop.
func waitUntil(done func() bool, deadline time.Time) bool {
	for !done() {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		time.Sleep(waitInterval)
	}
	return true
}

func (e *Engine) nextID() int64 { return e.msgID.Add(1) }

// safeInvoke runs the operator handler, converting a handler panic into a
// dropped message instead of a dead worker.
func (e *Engine) safeInvoke(op *dataflow.Operator, m *core.Message, now vtime.Time, env *dataflow.Env) (emissions []dataflow.Emission, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
		}
	}()
	return dataflow.Invoke(op, m, now, env), false
}

// execMessage runs one message end to end — invoke, profile, route, record
// — and returns the derived child messages (stamped Enqueued) plus the
// completion instant. The worker loop calls it with no scheduling locks
// held; everything it touches is either owned by the executing worker (the
// operator under the actor guarantee, the env by construction) or
// internally synchronized.
//
// start is when the message began: the previous message's completion
// instant inside an activation, the activation's own clock read for its
// first message, or a fresh read after a wait for an operator lock. The
// one clock read here is both the end of the measured cost and the
// completion instant everything below is stamped with. The cost therefore
// also covers the previous message's Finish (profiling, routing, context
// conversion) and the uncontended delivery of its children — well under a
// microsecond, the whole fixed cost of a message being about 0.5 µs — and
// a second read per message to exclude them was a measurable slice of
// a small message's fixed cost. Lock waits are excluded (see the worker
// loop): a holder preempted by the OS can stretch one to milliseconds.
//
// The executed message is recycled here — after every child has copied
// what it needs from the parent's priority context and the trace has read
// its identity — per the pool's "released by the finishing worker" rule.
// The returned children are env scratch: the caller must push them before
// executing its next message through the same env.
func (e *Engine) execMessage(op *dataflow.Operator, m *core.Message, start vtime.Time, env *dataflow.Env) ([]dataflow.ChildMessage, vtime.Time) {
	emissions, panicked := e.safeInvoke(op, m, start, env)
	now := e.clock.Now()
	cost := now - start
	if cost <= 0 {
		cost = 1
	}
	if panicked {
		// The message is dropped and the job is quarantined: a handler that
		// panicked may have corrupted its own state mid-update, so letting
		// the operator keep executing would silently produce wrong windows.
		// The panic must not take the engine down either — the job is
		// paused (backlog retained, ingest refused) and marked failed, while
		// every other job keeps running. execMessage holds no scheduling
		// locks here, so the lifecycle call is safe from worker context.
		e.handlerPanics.Add(1)
		emissions = nil
		e.quarantineJob(op.Job.Spec.Name)
	}
	outcome := dataflow.Finish(op, m, emissions, cost, env)

	e.overhead.AddExec(env.Worker, cost)
	for _, o := range outcome.Outputs {
		op.Job.Stats.Record(metrics.Output{
			Job: op.Job.Spec.Name, Emitted: now, Ready: o.T, Window: int64(o.P),
		})
	}
	if e.trace != nil {
		e.trace.Add(metrics.ScheduleEvent{
			Start: start, Cost: cost,
			Job: op.Job.Spec.Name, Stage: op.Stage, Op: op.Name, P: m.P, Msg: m.ID,
		})
	}
	for _, cm := range outcome.Children {
		cm.Msg.Enqueued = now
	}
	env.FreeMessage(m)
	// One atomic op both registers the children and retires the parent,
	// so the outstanding count can never dip to zero while derived work
	// exists. The children are counted before the caller pushes them —
	// over-counting briefly, never under-counting. The per-job counter
	// follows the same rule (children never cross jobs), which is what
	// makes CancelJob's quiesce wait and DrainJob sound.
	// A message with exactly one child hands its count on unchanged.
	if d := int64(len(outcome.Children)) - 1; d != 0 {
		e.outstanding.Add(d)
		op.Job.Outstanding.Add(d)
	}
	return outcome.Children, now
}
