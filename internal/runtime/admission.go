package runtime

// The admission layer: every ingest passes through one gate that enforces
// pending-message budgets and mounts the engine's overload response on top
// of them. Without it the engine
// accepts work unconditionally — sustained overload grows the run queues
// without bound and eventually misses every deadline instead of only the
// hopeless ones. With it the engine degrades predictably: sources either
// see backpressure (ErrOverloaded, no data lost inside the engine) or the
// engine sheds exactly the messages that could no longer meet their
// deadlines anyway (negative laxity), falling back to the lax end of the
// largest backlog when doomed messages alone don't free enough budget.
//
// The layer owns the queued accounting: the dispatch path calls note at
// every push, merge, pop and discard, so one atomic pair (engine-wide +
// per-job) serves budget checks, Engine.Pending, and the shed victim
// selection. It counts units — admitted batches — rather than messages,
// so a message the ingest coalesced several batches into holds as much
// budget as the messages it replaced. The accept path is allocation-free
// — a handful of atomic loads — which keeps the zero-allocation hot path
// intact (the alloc gate pins this).

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// OverloadPolicy selects the engine's response when an ingest would push a
// pending-message budget (Config.MaxPending, JobSpec.MaxPending) past its
// limit.
type OverloadPolicy int

const (
	// OverloadBackpressure (the default) refuses the batch: Ingest returns
	// ErrOverloaded (or ErrJobOverloaded for a per-job budget) and nothing
	// is enqueued, so sources can apply flow control — slow down, buffer,
	// or retry after draining. No admitted message is ever dropped.
	OverloadBackpressure OverloadPolicy = iota
	// OverloadShed admits the batch and then discards queued messages to
	// get back under budget: first messages that can no longer meet their
	// deadline anyway (negative laxity, core.Doomed), then — if the doomed
	// alone don't free enough — the lax end of the largest-backlog job's
	// queues. Shed messages recycle through the pools with full
	// conservation accounting (created == executed + discarded holds) and
	// are counted per job in the metrics recorder.
	OverloadShed
)

// String names the overload policy.
func (p OverloadPolicy) String() string {
	switch p {
	case OverloadBackpressure:
		return "backpressure"
	case OverloadShed:
		return "shed"
	}
	return fmt.Sprintf("overload(%d)", int(p))
}

// ErrOverloaded is returned by Ingest (under OverloadBackpressure) and
// TryIngest when admitting the batch would push the engine past its
// engine-wide pending-message budget. The caller should drain — wait, or
// slow its production rate — and retry.
var ErrOverloaded = errors.New("runtime: engine over pending-message budget")

// ErrJobOverloaded is the per-job form of ErrOverloaded: the target job's
// own MaxPending budget would be exceeded. It wraps ErrOverloaded, so
// errors.Is(err, ErrOverloaded) matches both.
var ErrJobOverloaded = fmt.Errorf("runtime: job over pending-message budget: %w", ErrOverloaded)

// admission is the overload-management layer the dispatch path's
// enqueue and dequeue passes through. One instance per engine.
type admission struct {
	e *Engine
	// max is the engine-wide queued-unit budget, Config.MaxPending
	// (0 = unlimited); highWater is the pressure threshold (7/8 of max)
	// past which workers opportunistically sweep doomed messages under
	// OverloadShed. Both are written once, at construction; a job's own
	// budget is its JobSpec.MaxPending.
	max       int64
	highWater int64
	policy    OverloadPolicy

	// queued counts admitted-but-not-yet-popped units (batches) engine-wide;
	// the per-job half lives on dataflow.Job.Queued. Both follow the path's
	// push/merge/pop/discard sites exactly, so one atomic read is the
	// budget check and Engine.Pending.
	queued   atomic.Int64
	shed     atomic.Int64
	rejected atomic.Int64
}

func newAdmission(e *Engine, cfg Config) *admission {
	m := int64(cfg.MaxPending)
	return &admission{e: e, max: m, highWater: m - m/8, policy: cfg.Overload}
}

// note is the accounting hook the dispatch path calls: it moves n units
// into the queued counts (n > 0) when messages are pushed into a live or
// paused operator's queue or a batch is merged into a queued message, and
// out of them (n < 0) when messages are popped for execution, discarded
// by cancellation, or shed. A unit is one admitted batch (see
// core.Message.Units); one call covers a whole drain batch or grouped
// delivery.
func (a *admission) note(j *dataflow.Job, n int64) {
	if n == 0 {
		return
	}
	a.queued.Add(n)
	j.Queued.Add(n)
}

// admit is the ingest-side gate: n is the number of units the batch will
// add, one per stage-0 instance whether it becomes a message or merges
// into one (known before any message is created, so a refused batch
// allocates nothing). try forces backpressure semantics regardless of the
// configured policy; under OverloadShed a plain Ingest is always admitted
// and enforce sheds afterwards.
//
// The check is a racy load-then-compare by design: concurrent ingests
// that all pass it can transiently overshoot a budget by up to
// (concurrent callers − 1) × fan-out. Making the cap hard would need
// reserve-then-rollback on the hot path for a bound that execution (or
// the next enforce) restores within one drain cycle; the budgets are
// memory back-pressure, not an exact semaphore.
func (a *admission) admit(j *dataflow.Job, src, n int, try bool) error {
	backpressure := try || a.policy == OverloadBackpressure
	if jm := int64(j.Spec.MaxPending); jm > 0 && backpressure &&
		j.Queued.Load()+int64(n) > jm && !a.fairShareAdmit(j, src, n, jm) {
		a.reject(j, src)
		return ErrJobOverloaded
	}
	if a.max > 0 && backpressure && a.queued.Load()+int64(n) > a.max {
		a.reject(j, src)
		return ErrOverloaded
	}
	j.SrcAccepted[src].Add(1)
	return nil
}

// fairShareAdmit is the per-source fairness tier of the job-budget check:
// when the job as a whole is over budget, a source whose own queued
// stage-0 backlog is still under its fair share (budget / Sources) is
// admitted anyway — the deficit-round-robin guarantee that a hot sibling
// filling the shared budget cannot starve a source that has barely used
// it. Overshoot is bounded: each source can exceed the shared budget by
// at most its own fair share, so total pending stays under 2 × budget.
// Single-source jobs skip the tier entirely (there is no sibling to be
// fair to), keeping the exact historical budget semantics.
func (a *admission) fairShareAdmit(j *dataflow.Job, src, n int, jm int64) bool {
	srcs := int64(j.Spec.Sources)
	if srcs <= 1 {
		return false
	}
	return j.SrcQueued[src].Load()+int64(n) <= jm/srcs
}

func (a *admission) reject(j *dataflow.Job, src int) {
	a.rejected.Add(1)
	j.SrcRejected[src].Add(1)
	j.Stats.Rejected.Add(1)
}

// pressured reports whether workers should opportunistically sweep doomed
// messages from the operators they acquire: only under OverloadShed (a
// backpressure engine never discards admitted work) and only past the
// high-water mark, so the sweep costs nothing in the steady state.
func (a *admission) pressured() bool {
	if a.policy != OverloadShed {
		return false
	}
	return a.highWater > 0 && a.queued.Load() >= a.highWater
}

// enforce brings the queued counts back under budget after an ingest was
// admitted under OverloadShed — j is the job that just ingested. Under
// budget it is a few atomic loads; over budget it runs the two shed
// passes the policy defines (doomed first, then excess backlog).
func (a *admission) enforce(j *dataflow.Job, now vtime.Time) {
	if a.policy != OverloadShed {
		return
	}
	if jm := int64(j.Spec.MaxPending); jm > 0 && j.Queued.Load() > jm {
		a.e.path.shedDoomed(j, now)
		if over := j.Queued.Load() - jm; over > 0 {
			a.shedFair(j, int(over), jm)
		}
	}
	if a.max > 0 && a.queued.Load() > a.max {
		a.shedEngine(now)
	}
}

// shedFair works a job's excess backlog off with per-source fairness:
// while a source's queued stage-0 backlog exceeds its fair share of the
// budget, the hottest such source's own messages are shed first — the
// admission pressure one hot source created is paid out of its own
// backlog instead of squeezing its siblings' — and only the remainder
// falls through to the usual lax-end excess shed. Single-source jobs go
// straight to shedExcess.
func (a *admission) shedFair(j *dataflow.Job, over int, jm int64) {
	if srcs := j.Spec.Sources; srcs > 1 {
		share := jm / int64(srcs)
		for over > 0 {
			hot, hotQ := -1, share
			for s := 0; s < srcs; s++ {
				if q := j.SrcQueued[s].Load(); q > hotQ {
					hot, hotQ = s, q
				}
			}
			if hot < 0 {
				break
			}
			want := hotQ - share
			if int64(over) < want {
				want = int64(over)
			}
			n := a.e.path.shedSrc(j, hot, int(want))
			if n == 0 {
				break
			}
			over -= n
		}
	}
	if over > 0 {
		a.e.path.shedExcess(j, over)
	}
}

// shedEngine is the engine-wide shed: a laxity pass over every job (a
// doomed message is worthless whichever job it belongs to), then repeated
// largest-backlog victim selection until the engine is back under budget
// or no job has sheddable backlog left. A victim that yields nothing
// (paused — pause retains backlog — or all in-flight) is excluded and the
// next-largest tried, so one unsheddable job cannot shield the others.
func (a *admission) shedEngine(now vtime.Time) {
	e := a.e
	e.eachJob(func(j *dataflow.Job) {
		if a.queued.Load() > a.max {
			e.path.shedDoomed(j, now)
		}
	})
	var skip map[*dataflow.Job]bool
	for a.queued.Load() > a.max {
		var victim *dataflow.Job
		var most int64
		e.eachJob(func(j *dataflow.Job) {
			if q := j.Queued.Load(); q > most && !skip[j] {
				most, victim = q, j
			}
		})
		if victim == nil {
			return
		}
		over := a.queued.Load() - a.max
		if over > most {
			over = most
		}
		if e.path.shedExcess(victim, int(over)) == 0 {
			if skip == nil {
				skip = make(map[*dataflow.Job]bool)
			}
			skip[victim] = true
		}
	}
}
