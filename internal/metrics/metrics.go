// Package metrics collects the measurements the paper reports: per-output
// latency against each job's constraint, deadline success rate, throughput
// over time, operator schedule traces (Fig 7c), and scheduler overhead
// accounting (Fig 12).
//
// All collectors are safe for concurrent use so the same code serves the
// single-threaded simulator and the goroutine-based real-time engine.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/cameo-stream/cameo/internal/stats"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// Output is one sink emission: a job produced a result at Emitted whose
// inputs were complete at Ready (the latest arrival among contributing
// events, the paper's latency origin).
type Output struct {
	Job     string
	Emitted vtime.Time
	Ready   vtime.Time
	Window  int64 // window ID or output sequence, for traceability
}

// Latency returns the end-to-end latency of the output.
func (o Output) Latency() vtime.Duration { return o.Emitted - o.Ready }

// JobStats aggregates a job's outputs against its latency constraint. Every
// entry keeps an exact output count, an exact count of outputs that met the
// constraint, and a latency histogram: constant memory, recorded lock-free.
// Only an entry of a history recorder (NewHistoryRecorder) also keeps every
// output and latency.
type JobStats struct {
	Job        string
	Constraint vtime.Duration
	// Latencies (microseconds) and Outputs (in record order) hold every
	// output; both are nil unless the recorder keeps history. Record guards
	// them with mu; read them once recording has stopped.
	Latencies *stats.Sample
	Outputs   []Output
	mu        sync.Mutex

	hist       latencyHistogram
	count, met atomic.Int64
	// Shed counts the job's queued messages discarded by the engine's
	// admission layer under overload; Rejected counts the job's ingest
	// attempts refused by backpressure. Atomic because the engine adds to
	// them, and callers read them, outside the Recorder's mutex.
	Shed     atomic.Int64
	Rejected atomic.Int64
}

// Record adds one output of this job: a histogram add and two counter adds,
// with no lock and no allocation unless the recorder keeps history. An
// output meets the constraint when its latency is at most the constraint.
func (j *JobStats) Record(o Output) {
	lat := o.Latency()
	j.hist.Record(int64(lat))
	j.count.Add(1)
	if lat <= j.Constraint {
		j.met.Add(1)
	}
	if j.Latencies != nil {
		j.mu.Lock()
		j.Latencies.Add(float64(lat))
		j.Outputs = append(j.Outputs, o)
		j.mu.Unlock()
	}
}

// Count reports the number of outputs recorded (exact).
func (j *JobStats) Count() int64 { return j.count.Load() }

// Quantile returns the q-th latency quantile in microseconds from the
// histogram, within one bucket of the exact value (see
// latencyHistogram.Quantile). It panics when the job has no outputs.
func (j *JobStats) Quantile(q float64) float64 { return j.hist.Quantile(q) }

// SuccessRate reports the fraction of outputs that met the constraint
// (paper Fig 10's "success rate"), exactly. Jobs with no outputs report 0.
func (j *JobStats) SuccessRate() float64 {
	n := j.count.Load()
	if n == 0 {
		return 0
	}
	return float64(j.met.Load()) / float64(n)
}

// Recorder accumulates outputs for all jobs in one experiment run.
type Recorder struct {
	mu      sync.Mutex
	jobs    map[string]*JobStats
	history bool
}

// NewRecorder returns an empty recorder that keeps each job's counts and
// latency histogram only, so its memory does not grow with run length —
// the real-time engine's default.
func NewRecorder() *Recorder {
	return &Recorder{jobs: make(map[string]*JobStats)}
}

// NewHistoryRecorder returns an empty recorder that also keeps every
// output and latency (JobStats.Outputs, JobStats.Latencies) — for the
// simulator's figures and for tests that compare output windows.
func NewHistoryRecorder() *Recorder {
	return &Recorder{jobs: make(map[string]*JobStats), history: true}
}

// DeclareJob registers a job and its latency constraint and returns its
// stats entry, which engines keep beside the job so per-event updates
// (outputs, Shed, Rejected, the drain rate) are atomic updates on the
// entry rather than a locked lookup here. Declaring twice is fine as long as the
// constraint agrees — the existing entry is returned; a changed constraint
// panics because it would silently corrupt success-rate accounting.
func (r *Recorder) DeclareJob(job string, constraint vtime.Duration) *JobStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[job]
	if !ok {
		j = &JobStats{Job: job, Constraint: constraint}
		if r.history {
			j.Latencies = stats.NewSample(0)
		}
		r.jobs[job] = j
	} else if j.Constraint != constraint {
		panic(fmt.Sprintf("metrics: job %q re-declared with constraint %v (was %v)",
			job, constraint, j.Constraint))
	}
	return j
}

// DropJob discards a job's accumulated stats. Engines call it when a
// cancelled job's name is being reused, so the new job's statistics
// start fresh — merging outputs across two distinct jobs (worse, across
// two latency constraints) would corrupt latency and success-rate
// reporting. Dropping an unknown job is a no-op.
func (r *Recorder) DropJob(job string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.jobs, job)
}

// Record adds one output. The job must have been declared. Engines that
// hold the job's entry call JobStats.Record instead and skip the lookup.
func (r *Recorder) Record(o Output) {
	r.mu.Lock()
	j, ok := r.jobs[o.Job]
	r.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("metrics: output for undeclared job %q", o.Job))
	}
	j.Record(o)
}

// Job returns the stats for one job, or nil when unknown.
func (r *Recorder) Job(job string) *JobStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[job]
}

// Jobs returns all job stats sorted by name for stable reporting.
func (r *Recorder) Jobs() []*JobStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*JobStats, 0, len(r.jobs))
	for _, j := range r.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Job < out[k].Job })
	return out
}

// Merged pools the latencies of every job whose name passes keep (nil keeps
// all) into one sample — e.g. "all Group 1 jobs" rows in Figures 8 and 9.
// It needs every latency, so it panics on a recorder without history.
func (r *Recorder) Merged(keep func(job string) bool) *stats.Sample {
	if !r.history {
		panic("metrics: Merged needs every latency; build the recorder with NewHistoryRecorder")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := stats.NewSample(0)
	for name, j := range r.jobs {
		if keep == nil || keep(name) {
			s.AddAll(j.Latencies.Values()...)
		}
	}
	return s
}

// MergedSuccessRate reports the deadline success rate pooled across jobs
// passing keep, exactly, from the jobs' counters.
func (r *Recorder) MergedSuccessRate(keep func(job string) bool) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var met, total int64
	for name, j := range r.jobs {
		if keep != nil && !keep(name) {
			continue
		}
		total += j.count.Load()
		met += j.met.Load()
	}
	if total == 0 {
		return 0
	}
	return float64(met) / float64(total)
}
