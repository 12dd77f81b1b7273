package dataflow

import (
	"fmt"
	"sync/atomic"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/metrics"
	"github.com/cameo-stream/cameo/internal/profile"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// Operator is one parallel instance of a stage — the schedulable actor.
// Engines use *Operator as the dispatcher's operator handle.
type Operator struct {
	// Job is the owning job.
	Job *Job
	// Stage and Index locate the instance in the job's DAG.
	Stage, Index int
	// Name is the globally unique instance name, e.g. "ipq1/agg[2]".
	Name string
	// Handler executes messages (exactly one at a time).
	Handler Handler
	// Profile holds the instance's cost estimate and downstream path costs.
	Profile *profile.OpProfile
	// Mapper is the PROGRESSMAP for streams into this operator.
	Mapper progress.Mapper

	spec  *StageSpec
	sched core.SchedState
	// frontier is the low watermark of the operator's input channels:
	// Invoke advances it with every message's progress before the handler
	// runs, handlers read it through Context.Progress, and Finish caps
	// every child's progress at it. It is the one owner of the progress an
	// operator may claim.
	frontier progress.Frontier
}

// Frontier returns the operator's input frontier, which only Invoke
// advances; tests hand it to a Snapshotter.
func (o *Operator) Frontier() *progress.Frontier { return &o.frontier }

// Spec returns the stage spec this operator instantiates.
func (o *Operator) Spec() *StageSpec { return o.spec }

// Sched exposes the operator's intrusive scheduling state, satisfying
// core.Handle — dispatchers store per-operator queues, flags, and heap
// positions here instead of in maps keyed by operator.
func (o *Operator) Sched() *core.SchedState { return &o.sched }

// IsSink reports whether the operator belongs to the job's last stage.
func (o *Operator) IsSink() bool { return o.Stage == len(o.Job.Spec.Stages)-1 }

// InChannels reports how many input channels feed this operator: the
// source count for stage 0, the previous stage's parallelism otherwise.
func (o *Operator) InChannels() int {
	if o.Stage == 0 {
		return o.Job.Spec.Sources
	}
	return o.Job.Spec.Stages[o.Stage-1].Parallelism
}

// Job is an instantiated dataflow with live operator instances.
type Job struct {
	// Spec is the validated job description.
	Spec JobSpec
	// Stages holds operator instances: Stages[s][i].
	Stages [][]*Operator
	// SourceTracker accumulates reply contexts flowing from stage-0
	// operators back to the job's sources (the sources' RC_local).
	SourceTracker *profile.PathTracker
	// Outstanding counts this job's messages that exist but have not
	// finished executing — the per-job half of the real-time engine's
	// drain accounting, which is what lets Drain and Cancel target one
	// job out of a churning population. Derived messages never cross
	// jobs, so the counter is independently consistent under the same
	// counting rule as the engine-wide one (children are registered in
	// the same atomic op that retires their parent). The simulator
	// leaves it zero.
	Outstanding atomic.Int64
	// Queued counts this job's admitted-but-not-yet-popped units — the
	// per-job half of the real-time engine's admission accounting
	// (incremented when a message enters an operator's queue or a batch is
	// merged into a queued one, decremented by a message's units when it
	// is popped for execution, discarded, or shed; see
	// core.Message.Units). The admission layer checks it against
	// Spec.MaxPending and uses it to pick the largest-backlog victim when
	// shedding. The simulator leaves it zero.
	Queued atomic.Int64
	// SourceProgress records the highest stream progress ingested per
	// source channel (monotone, maintained by the real-time engine's
	// ingest path with an atomic max; progress.Unset before the first).
	// Ingest refuses progress below it. Checkpoints serialize it so a
	// restored job knows where each source stream stood at the cut, and
	// drivers can resume feeding from there instead of regressing the
	// stage-0 frontiers. The simulator leaves it unused.
	SourceProgress []atomic.Int64
	// Stats is the job's entry in the real-time engine's metrics recorder,
	// resolved once when the job is added so the sink-output, refusal and
	// shed paths update it with plain atomics instead of a locked lookup by
	// name per event. It outlives the job in the recorder (a cancelled
	// job's counts stay readable until its name is reused), so a shed
	// racing the cancellation still lands on the right incarnation. The
	// simulator leaves it nil.
	Stats *metrics.JobStats
	// SrcQueued counts admitted-but-not-yet-popped *stage-0* units per
	// source channel — the signal behind per-source fair admission and
	// fair shedding (a hot source's backlog is attributed to it, so its
	// siblings keep their fair share of the job budget). Stage-0 messages
	// carry their source index in Message.Channel, so dispatchers
	// maintain these at the same sites as Queued with no message-format
	// change. Downstream (stage > 0) messages are never attributed.
	SrcQueued []atomic.Int64
	// SrcAccepted / SrcRejected / SrcShed are per-source admission
	// outcome counters: batches admitted and rejected at ingest, and
	// stage-0 messages shed from the queue, by source index. Together
	// with ShedDownstream they reconcile exactly against the job-level
	// totals (Σ SrcRejected == rejected, Σ SrcShed + ShedDownstream ==
	// shed) — the observability pin for the fairness machinery.
	SrcAccepted, SrcRejected, SrcShed []atomic.Int64
	// ShedDownstream counts shed messages from stages > 0, which have no
	// single source attribution.
	ShedDownstream atomic.Int64
	// Paused is the real-time engine's pause flag: set by a pause (explicit,
	// a checkpoint's, or a quarantine) and by a restore until resumed, and
	// read by every ingest, which refuses a paused job's new work. Writers
	// serialize under the engine's lifecycle lock; the flag is stored before
	// the pausing call returns, so every later ingest observes it. The
	// simulator leaves it false.
	Paused atomic.Bool
	// PausedErr is the error the real-time engine's ingest returns while
	// the job is paused, built once when the job is added so a refusal
	// allocates nothing. The simulator leaves it nil.
	PausedErr error
}

// NoteSourceProgress folds progress p on source channel src into
// SourceProgress with an atomic max — safe against concurrent ingests on
// the same channel and free of allocation.
func (j *Job) NoteSourceProgress(src int, p vtime.Time) {
	slot := &j.SourceProgress[src]
	for {
		cur := slot.Load()
		if int64(p) <= cur || slot.CompareAndSwap(cur, int64(p)) {
			return
		}
	}
}

// DefaultEWMAAlpha is the default smoothing factor of operator cost
// profiles. Recent messages dominate quickly so the scheduler adapts to
// workload shifts within tens of messages.
const DefaultEWMAAlpha = 0.2

// NewJob validates spec and instantiates its operators.
func NewJob(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	j := &Job{Spec: spec, SourceTracker: profile.NewPathTracker(spec.Stages[0].Parallelism)}
	j.SourceProgress = make([]atomic.Int64, spec.Sources)
	for i := range j.SourceProgress {
		j.SourceProgress[i].Store(int64(progress.Unset))
	}
	j.SrcQueued = make([]atomic.Int64, spec.Sources)
	j.SrcAccepted = make([]atomic.Int64, spec.Sources)
	j.SrcRejected = make([]atomic.Int64, spec.Sources)
	j.SrcShed = make([]atomic.Int64, spec.Sources)
	j.Stages = make([][]*Operator, len(spec.Stages))
	for s := range spec.Stages {
		st := &j.Spec.Stages[s]
		ops := make([]*Operator, st.Parallelism)
		children := 0 // the next stage's parallelism: one reply slot each
		if s+1 < len(spec.Stages) {
			children = spec.Stages[s+1].Parallelism
		}
		for i := range ops {
			op := &Operator{
				Job:     j,
				Stage:   s,
				Index:   i,
				Name:    fmt.Sprintf("%s/%s[%d]", spec.Name, st.Name, i),
				Profile: profile.NewOpProfile(j.Spec.EWMAAlpha, children),
				spec:    st,
			}
			op.frontier = *progress.NewFrontier(op.InChannels())
			op.Handler = st.NewHandler(op.InChannels())
			if s == 0 && Coalesces(op.Handler) {
				op.sched.Tails = make([]*core.Message, op.InChannels())
			}
			if spec.Domain == EventTime {
				op.Mapper = progress.NewRegressionMapper(spec.MapperWindow, 2)
			} else {
				op.Mapper = progress.IdentityMapper{}
			}
			ops[i] = op
		}
		j.Stages[s] = ops
	}
	return j, nil
}

// Teardown releases the memory a departing job's operators accumulated:
// grown message-heap capacity in the intrusive scheduling state,
// and the handler (whose open windows and spare tables dominate a
// long-lived job's footprint). Without it a high-churn engine would
// retain every departed job's steady-state capacity for as long as
// anything referenced the job.
//
// Call only after the job has quiesced: every operator dead, no worker
// holding one, and no in-flight message still to be pushed — the real-time
// engine guarantees this by waiting for Outstanding to reach zero after
// marking the operators dead. Lifecycle fields (Phase, flags, positions)
// are left untouched so stragglers keep observing a dead operator.
func (j *Job) Teardown() {
	for _, op := range j.Operators() {
		st := op.Sched()
		st.Q = core.MsgHeap{}
		st.Tails = nil
		op.Handler = nil
	}
}

// Operators returns all operator instances in stage order.
func (j *Job) Operators() []*Operator {
	var out []*Operator
	for _, stage := range j.Stages {
		out = append(out, stage...)
	}
	return out
}

// TargetInfo assembles the core.TargetInfo for a message sent from `from`
// (nil when the sender is a source) to `target` — the paper's
// context-conversion inputs: the target's window slide, the sender's slide,
// the progress mapper, and the (C_m, C_path) pair from the sender's stored
// reply context for that child (Algorithm 1's RC_local).
func (j *Job) TargetInfo(from *Operator, target *Operator) core.TargetInfo {
	ti := core.TargetInfo{
		Job:       j.Spec.Name,
		Slide:     target.spec.Slide,
		EventTime: j.Spec.Domain == EventTime,
		Mapper:    target.Mapper,
		Latency:   j.Spec.Latency,
	}
	var rc profile.Reply
	if from == nil {
		rc = j.SourceTracker.Reply(target.Index)
	} else {
		ti.SlideUp = from.spec.Slide
		rc = from.Profile.Path.Reply(target.Index)
	}
	ti.Cost, ti.PathCost = rc.Cm, rc.Cpath
	return ti
}

// DeliverReply folds the reply context rc from a target operator back into
// the sender's local state (Algorithm 1's PROCESSCTXFROMREPLY). A nil from
// means the sender is the job's source layer.
func (j *Job) DeliverReply(from *Operator, target *Operator, rc profile.Reply) {
	if from == nil {
		j.SourceTracker.OnReply(target.Index, rc)
		return
	}
	from.Profile.Path.OnReply(target.Index, rc)
}
