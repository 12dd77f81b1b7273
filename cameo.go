// Package cameo is a fine-grained, deadline-aware scheduling framework for
// stream processing — a from-scratch Go implementation of "Move Fast and
// Meet Deadlines: Fine-grained Real-time Stream Processing with Cameo"
// (Xu et al., NSDI 2021).
//
// Instead of pinning operators to slots, Cameo keeps one priority-ordered
// pool of (operator, message) work per node, derives a start deadline for
// every message from its job's latency target, the dataflow topology, and
// window semantics, and always runs the most urgent message next. Jobs with
// slack yield to jobs that are about to miss their targets, so a shared
// cluster sustains both high utilization and low tail latency.
//
// # Quick start
//
//	q := cameo.NewQuery("revenue").
//	    LatencyTarget(800 * time.Millisecond).
//	    Sources(4).
//	    Aggregate("by-ad", 4, cameo.Window(time.Second), cameo.Sum).
//	    AggregateGlobal("total", cameo.Window(time.Second), cameo.Sum)
//
//	eng := cameo.NewEngine(cameo.EngineConfig{Workers: 4})
//	if err := eng.Submit(q); err != nil { ... }
//	eng.Start()
//	// eng.IngestBatch(...), then eng.Stats("revenue")
//
// Queries are first-class runtime objects with a hot lifecycle: Submit
// also works on the running engine, and Pause, Resume, and Cancel operate
// per query without stopping the workers — tenants arrive and depart at
// churn while the survivors' scheduling is untouched (see
// examples/churn).
//
// Two engines execute the same scheduling code: the real-time Engine
// (goroutine worker pool, wall-clock profiling) and the deterministic
// Simulation (virtual time, modelled costs) used to regenerate the paper's
// figures. See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction results.
package cameo

import (
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// Scheduler selects the run-queue discipline of a Simulation
// (SimulationConfig.Scheduler). The real-time Engine always runs Cameo.
type Scheduler = core.SchedulerKind

// Available schedulers: Cameo's two-level priority scheduler and the two
// baselines the paper evaluates against, which regenerate its comparisons
// in the simulator.
const (
	// SchedulerCameo is the paper's deadline-driven two-level scheduler.
	SchedulerCameo = core.CameoScheduler
	// SchedulerOrleans mimics the default Orleans scheduler (ConcurrentBag
	// run queue, locality-first, urgency-blind).
	SchedulerOrleans = core.OrleansScheduler
	// SchedulerFIFO is a global first-in-first-out run queue of operators.
	SchedulerFIFO = core.FIFOScheduler
)

// Policy derives message priorities for the Cameo scheduler.
type Policy = core.Policy

// LLF returns the default least-laxity-first policy (paper Eq. 3):
// messages are prioritized by the latest instant they can start without
// breaking their job's latency target.
func LLF() Policy { return &core.DeadlinePolicy{Kind: core.KindLLF} }

// EDF returns the earliest-deadline-first policy (LLF without the target
// operator's own cost term).
func EDF() Policy { return &core.DeadlinePolicy{Kind: core.KindEDF} }

// SJF returns the shortest-job-first policy (priority = profiled execution
// cost; not deadline-aware — provided for comparison, as in the paper).
func SJF() Policy { return &core.DeadlinePolicy{Kind: core.KindSJF} }

// LLFTopologyOnly returns LLF without query-semantics awareness: deadlines
// use only the DAG and latency targets, with no windowed-operator deadline
// extension (the paper's Figure 15 ablation).
func LLFTopologyOnly() Policy {
	return &core.DeadlinePolicy{Kind: core.KindLLF, SemanticsUnaware: true}
}

// TokenFair returns the token-based proportional fair-sharing policy
// (paper §5.4). Each job is granted tokens per interval via SetRate; token
// shares become throughput shares when the cluster is at capacity.
func TokenFair(interval time.Duration) *TokenPolicy {
	return core.NewTokenPolicy(vtime.FromStd(interval))
}

// TokenPolicy is the fair-sharing policy returned by TokenFair; call
// SetRate(job, tokensPerInterval) for every participating job.
type TokenPolicy = core.TokenPolicy
