package runtime

import (
	"fmt"
	"sort"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/snap"
)

// This file is the engine's checkpoint/restore subsystem: CheckpointJob
// captures one job's complete dynamic state — operator frontiers and
// handler state through Operator.SnapshotState, per-source stream
// progress, and every
// queued (admitted, not yet executed) message — into a snap-encoded
// snapshot; RestoreJob reinstates that state on a fresh engine (crash
// recovery) or a second live engine (migration). When to checkpoint and
// where the bytes go are the caller's decisions.
//
// A snapshot is taken at a *consistent cut*: the job is paused (other jobs
// keep running — pause is per-job, the paper's stateless-scheduler
// property), in-flight messages settle back into the queues, and only then
// is state read. Conservation extends across the boundary by construction:
//
//   - On the source engine, the serialized backlog is eventually discarded
//     by CancelJob (counted in Discarded), so Created == Executed +
//     Discarded still holds there.
//   - On the target engine, restored messages are created fresh — they
//     draw new IDs from the target's allocator and count toward its
//     Created — so the target's conservation holds independently.
//
// Restored messages get fresh IDs assigned in ascending order of their
// original IDs (per operator), preserving the (PriLocal, ID) tie-break
// order inside each queue.

// snapshotJob serializes j's dynamic state into w. Caller guarantees the
// job is paused and quiesced (no in-flight messages); the dispatch path's
// eachQueued still takes the per-queue locks, which is what publishes the
// queue contents to this goroutine.
//
// Layout (after the snap header): job name; topology digest (sources,
// source ports, time domain, per-stage name/parallelism/slide); per-source
// progress; then per operator in stage-major order: its state
// (Operator.SnapshotState: a presence flag, then the handler's section or,
// for a stateless handler, its frontier) and the queued messages sorted
// by ID.
func (e *Engine) snapshotJob(j *dataflow.Job, w *snap.Writer) {
	spec := &j.Spec
	w.String(spec.Name)
	w.U32(uint32(spec.Sources))
	w.U32(uint32(spec.SourcePorts))
	w.U8(uint8(spec.Domain))
	w.U32(uint32(len(spec.Stages)))
	for i := range spec.Stages {
		w.String(spec.Stages[i].Name)
		w.U32(uint32(spec.Stages[i].Parallelism))
		w.Dur(spec.Stages[i].Slide)
	}
	for i := range j.SourceProgress {
		w.I64(j.SourceProgress[i].Load())
	}
	for _, op := range j.Operators() {
		op.SnapshotState(w)
		e.snapshotQueue(op, w)
	}
}

// snapshotQueue serializes op's queued messages, sorted ascending by ID so
// the encoding is independent of heap/ring layout and restore re-assigns
// fresh IDs in the same relative order.
func (e *Engine) snapshotQueue(op *dataflow.Operator, w *snap.Writer) {
	var msgs []*core.Message
	e.path.eachQueued(op, func(m *core.Message) { msgs = append(msgs, m) })
	sort.Slice(msgs, func(a, b int) bool { return msgs[a].ID < msgs[b].ID })
	w.U32(uint32(len(msgs)))
	for _, m := range msgs {
		writeMessage(w, m)
	}
}

func writeMessage(w *snap.Writer, m *core.Message) {
	w.Time(m.P)
	w.Time(m.T)
	w.I64(int64(m.Channel))
	w.I64(int64(m.Port))
	w.Time(m.Enqueued)
	w.Time(m.PC.PriLocal)
	w.Time(m.PC.PriGlobal)
	w.Time(m.PC.PMF)
	w.Time(m.PC.TMF)
	w.Dur(m.PC.L)
	b, _ := m.Payload.(*dataflow.Batch)
	writeBatch(w, b)
}

// writeBatch encodes a columnar payload batch: tuple count, the Times
// column, then Keys and Vals behind presence flags (nil columns — unkeyed
// or value-less streams — stay nil on restore, which partitioning and
// handlers rely on). A coalesced payload is one batch like any other, so
// a merged message is written as the unmerged message of its tuples.
func writeBatch(w *snap.Writer, b *dataflow.Batch) {
	if b == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.U32(uint32(b.Len()))
	for _, t := range b.Times {
		w.Time(t)
	}
	w.Bool(b.Keys != nil)
	for _, k := range b.Keys {
		w.I64(k)
	}
	w.Bool(b.Vals != nil)
	for _, v := range b.Vals {
		w.F64(v)
	}
}

// readMessage materializes one serialized message on this engine: a pooled
// message with a FRESH ID from the engine's allocator — the restored
// message counts as created here, which is what keeps per-engine
// conservation (Created == Executed + Discarded) intact across a restore
// boundary. If the reader is already poisoned the fields decode as zeros;
// the caller checks r.Err() once and discards everything it created.
func (e *Engine) readMessage(r *snap.Reader, env *dataflow.Env) *core.Message {
	m := env.NewMessage()
	m.ID = e.nextID()
	m.P = r.Time()
	m.T = r.Time()
	m.Channel = int(r.I64())
	m.Port = int(r.I64())
	m.Enqueued = r.Time()
	m.PC.PriLocal = r.Time()
	m.PC.PriGlobal = r.Time()
	m.PC.PMF = r.Time()
	m.PC.TMF = r.Time()
	m.PC.L = r.Dur()
	m.Payload = readBatch(r, env)
	return m
}

func readBatch(r *snap.Reader, env *dataflow.Env) *dataflow.Batch {
	if !r.Bool() {
		return nil
	}
	n := int(r.U32())
	if left := r.Remaining(); n > left/8 { // each tuple needs ≥ 8 bytes
		r.Fail(fmt.Errorf("batch of %d tuples needs at least %d bytes, %d left", n, 8*n, left))
		return nil
	}
	b := env.NewBatch(n)
	for i := 0; i < n && r.Err() == nil; i++ {
		b.Times = append(b.Times, r.Time())
	}
	if r.Bool() {
		for i := 0; i < n && r.Err() == nil; i++ {
			b.Keys = append(b.Keys, r.I64())
		}
	} else {
		b.Keys = nil
	}
	if r.Bool() {
		for i := 0; i < n && r.Err() == nil; i++ {
			b.Vals = append(b.Vals, r.F64())
		}
	} else {
		b.Vals = nil
	}
	return b
}

// quiesceJob waits until a paused job has no in-flight messages: everything
// that exists for the job is sitting in an operator queue. Each poll counts
// the queued messages (operator by operator, under each one's lock) BEFORE
// reading Outstanding: for a paused job nothing pops (workers skip
// non-live operators), so the queued count is non-decreasing, and
// Outstanding ≥ queued holds at every instant (children register before
// they are pushed). A count taken by t1 equal to Outstanding(t2), t1 < t2,
// therefore forces queued(t2) = Outstanding(t2) — a consistent quiesce
// without one lock over the job. (Job.Queued counts units, not messages,
// so it cannot stand in for the count.) Bounded by one handler invocation
// per worker once the pause lands, like CancelJob's quiesce.
func (e *Engine) quiesceJob(j *dataflow.Job) {
	waitUntil(func() bool {
		var q int64
		for _, stage := range j.Stages {
			for _, op := range stage {
				q += int64(e.path.queuedLen(op))
			}
		}
		return j.Outstanding.Load() == q
	}, time.Time{})
}

// CheckpointJob snapshots one job's complete dynamic state into w (which is
// Reset first; seal with w.Bytes). The job is paused for the duration of
// the capture — a consistent cut through the quiesce CancelJob also uses —
// and resumed afterwards if it was running; a job the caller had already
// paused stays paused, so checkpoint-then-migrate can hold the cut open.
// Other jobs are unaffected throughout. Concurrent lifecycle calls for the
// SAME job (pause/resume/cancel from other goroutines) are the caller's
// coordination problem, exactly as they are for PauseJob itself.
//
// A checkpoint never captures post-panic handler state: a job quarantined
// by a handler panic (JobFailed) is refused, also when the panic lands
// during the quiesce. Such a job stays paused and w stays empty.
func (e *Engine) CheckpointJob(name string, w *snap.Writer) error {
	w.Reset()
	j, ok := e.job(name)
	if !ok {
		return fmt.Errorf("runtime: unknown job %q", name)
	}
	if e.JobFailed(name) {
		return errQuarantined(name)
	}
	wasPaused := j.Paused.Load()
	if !wasPaused {
		if err := e.PauseJob(name); err != nil {
			return err
		}
	}
	e.quiesceJob(j)
	// A message in flight when the pause landed may have panicked during
	// the quiesce. Past it nothing of the job executes until a resume, so
	// this check is final — and the quarantine must not be resumed away.
	if e.JobFailed(name) {
		return errQuarantined(name)
	}
	e.snapshotJob(j, w)
	if !wasPaused {
		return e.ResumeJob(name)
	}
	return nil
}

func errQuarantined(name string) error {
	return fmt.Errorf("runtime: job %q is quarantined after a handler panic; its state is not checkpointed", name)
}

// RestoreJob reinstates a checkpointed job on this engine: the spec is
// validated against the snapshot's topology digest, the job is registered
// paused (nothing schedules mid-restore), operator state (frontiers and
// handler state) is reinstated on the freshly constructed operators,
// per-source progress is reloaded, and the serialized backlog is
// re-created as fresh messages and re-enqueued with full admission
// accounting. The job is left
// PAUSED: call ResumeJob once the feeder is wired up (it should resume
// from the offsets in Job.SourceProgress rather than regressing stage-0
// frontiers).
//
// Unlike AddJob, restoring does not drop the name's recorded statistics —
// a migration hands the source engine's recorder across (Config.Recorder)
// so a job's outputs accumulate over the move. On any decode or mismatch
// error the half-registered job is cancelled and the engine is left as if
// RestoreJob had never been called.
func (e *Engine) RestoreJob(spec dataflow.JobSpec, data []byte) (*dataflow.Job, error) {
	r, err := snap.NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore %q: %w", spec.Name, err)
	}
	// Fill the spec's defaults (source ports, stage names) before digest
	// comparison — the snapshot was taken from a normalized spec.
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: restore %q: %w", spec.Name, err)
	}
	if err := readDigest(r, &spec); err != nil {
		return nil, fmt.Errorf("runtime: restore %q: %w", spec.Name, err)
	}

	e.jobsMu.Lock()
	j, err := e.addJobLocked(spec, true)
	e.jobsMu.Unlock()
	if err != nil {
		return nil, err
	}

	var msgs []dataflow.ChildMessage
	fail := func(err error) (*dataflow.Job, error) {
		// Created-but-not-enqueued messages are discarded to re-balance the
		// conservation counters, then the registration is rolled back.
		for _, cm := range msgs {
			e.discardMessage(j, cm.Msg)
		}
		_ = e.CancelJob(spec.Name)
		return nil, fmt.Errorf("runtime: restore %q: %w", spec.Name, err)
	}

	for i := range j.SourceProgress {
		j.SourceProgress[i].Store(r.I64())
	}
	env := e.borrowEnv()
	defer e.ingestEnvs.Put(env)
	for _, op := range j.Operators() {
		if err := op.RestoreState(r); err != nil {
			return fail(fmt.Errorf("state of %s: %w", op.Name, err))
		}
		n := int(r.U32())
		for k := 0; k < n && r.Err() == nil; k++ {
			m := e.readMessage(r, env)
			e.outstanding.Add(1)
			j.Outstanding.Add(1)
			msgs = append(msgs, dataflow.ChildMessage{Target: op, Msg: m})
		}
	}
	if r.Err() != nil {
		return fail(r.Err())
	}
	if r.Remaining() != 0 {
		return fail(fmt.Errorf("%d trailing bytes after job state", r.Remaining()))
	}
	// Pushes to the paused operators enqueue without scheduling, with the
	// usual admission accounting, so the restored backlog is
	// indistinguishable from one that was retained by PauseJob.
	e.path.deliver(msgs, -1)
	return j, nil
}

// readDigest validates the snapshot's topology digest against spec: same
// name, source layout, time domain, and per-stage name/parallelism/slide.
// Restoring into a structurally different job would scatter keyed state
// across the wrong partitions, so this fails loudly instead.
func readDigest(r *snap.Reader, spec *dataflow.JobSpec) error {
	name := r.String()
	sources := int(r.U32())
	ports := int(r.U32())
	domain := dataflow.TimeDomain(r.U8())
	nstages := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if name != spec.Name {
		return fmt.Errorf("snapshot is of job %q", name)
	}
	if sources != spec.Sources || ports != spec.SourcePorts || domain != spec.Domain || nstages != len(spec.Stages) {
		return fmt.Errorf("topology mismatch: snapshot %d sources/%d ports/domain %d/%d stages, spec %d/%d/%d/%d",
			sources, ports, domain, nstages, spec.Sources, spec.SourcePorts, spec.Domain, len(spec.Stages))
	}
	for i := 0; i < nstages; i++ {
		sname := r.String()
		par := int(r.U32())
		slide := r.Dur()
		if err := r.Err(); err != nil {
			return err
		}
		st := &spec.Stages[i]
		if sname != st.Name || par != st.Parallelism || slide != st.Slide {
			return fmt.Errorf("stage %d mismatch: snapshot %s/%d/%v, spec %s/%d/%v",
				i, sname, par, slide, st.Name, st.Parallelism, st.Slide)
		}
	}
	return nil
}
