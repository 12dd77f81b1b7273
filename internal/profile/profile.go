// Package profile implements Cameo's execution-cost profiling: per-operator
// execution cost estimates (C_oM in the paper) and the critical-path cost
// C_path accumulated recursively from sinks to sources via reply contexts
// (paper §5.3 and Algorithm 1's PREPAREREPLY / PROCESSCTXFROMREPLY).
package profile

import (
	"math"
	"sync/atomic"

	"github.com/cameo-stream/cameo/internal/vtime"
)

// EWMA is an exponentially weighted moving average over durations —
// the cost estimator behind C_oM. The zero value is unusable; use NewEWMA.
//
// It is a single-writer structure: Observe and Seed must come from one
// goroutine at a time (the engines' actor guarantee — an operator
// executes on at most one worker, and the hand-over between workers is
// ordered by the operator's scheduling lock — makes the holder the only
// writer), while Value and Count may be read from anywhere. That is what
// lets the per-message Observe be two plain atomic stores instead of a
// mutex round-trip.
type EWMA struct {
	alpha float64
	bits  atomic.Uint64 // float64 bits of the estimate
	n     atomic.Int64
}

// NewEWMA returns an estimator with smoothing factor alpha in (0, 1]; higher
// alpha weighs recent observations more.
func NewEWMA(alpha float64) *EWMA {
	e := new(EWMA)
	e.init(alpha)
	return e
}

func (e *EWMA) init(alpha float64) {
	if alpha <= 0 || alpha > 1 {
		panic("profile: EWMA alpha out of (0,1]")
	}
	e.alpha = alpha
}

// Observe feeds one measured duration (single writer, see EWMA).
func (e *EWMA) Observe(d vtime.Duration) {
	n := e.n.Load()
	v := float64(d)
	if n != 0 {
		v = e.alpha*float64(d) + (1-e.alpha)*math.Float64frombits(e.bits.Load())
	}
	e.bits.Store(math.Float64bits(v))
	e.n.Store(n + 1)
}

// Value returns the current estimate (0 before any observation).
func (e *EWMA) Value() vtime.Duration {
	return vtime.Duration(math.Float64frombits(e.bits.Load()))
}

// Count reports the number of observations.
func (e *EWMA) Count() int64 { return e.n.Load() }

// Seed primes the estimate before any measurement, e.g. from an offline
// profiling run, without counting as an observation window reset. Like
// Observe it belongs to the single writer.
func (e *EWMA) Seed(d vtime.Duration) {
	if e.n.Load() == 0 {
		e.bits.Store(math.Float64bits(float64(d)))
		e.n.Store(1)
	}
}

// Reply is the reply-context payload an operator sends upstream on its acks:
// Cm is the replier's own profiled execution cost, Cpath the critical-path
// cost strictly below the replier (0 when the replier is a sink).
type Reply struct {
	Cm    vtime.Duration
	Cpath vtime.Duration
}

// Total is the downstream cost contribution seen by the upstream operator:
// executing the replier plus everything below it.
func (r Reply) Total() vtime.Duration { return r.Cm + r.Cpath }

// pathSlot holds the last reply of one downstream child.
type pathSlot struct {
	cm, cpath atomic.Int64
}

// PathTracker aggregates replies from an operator's downstream children and
// exposes the critical-path cost below this operator: the *maximum* over
// children of (child cost + child's path cost), per the paper's definition
// of C_path as the maximum execution time over critical paths to any output
// operator.
//
// Children are addressed by their instance index in the next stage, and
// the tracker is sized once for that stage's parallelism: one slot of two
// atomics per child, no lock and no map. Each slot has a single writer —
// the worker executing that child — and any number of readers. A reader
// racing a writer may pair the new Cm with the previous Cpath; both are
// cost estimates one message apart, so the deadline it derives is off by
// at most one EWMA step.
type PathTracker struct {
	slots []pathSlot
}

// NewPathTracker returns a tracker for the given number of downstream
// children (0 for a sink). An index outside [0, children) panics.
func NewPathTracker(children int) *PathTracker {
	return &PathTracker{slots: make([]pathSlot, children)}
}

// OnReply folds in the latest reply context from child
// (Algorithm 1's PROCESSCTXFROMREPLY: RClocal.update(r.RC)). Profiled
// costs settle within tens of messages, so a slot is stored to only when
// its value moved — in the steady state the cache line stays shared with
// the upstream worker that reads it.
func (p *PathTracker) OnReply(child int, r Reply) {
	s := &p.slots[child]
	if s.cm.Load() != int64(r.Cm) {
		s.cm.Store(int64(r.Cm))
	}
	if s.cpath.Load() != int64(r.Cpath) {
		s.cpath.Store(int64(r.Cpath))
	}
}

// Reply returns the last reply context received from child — the zero
// Reply before the first one (cold start), in which case deadline
// derivation proceeds with zero costs: tighter than reality, never looser.
func (p *PathTracker) Reply(child int) Reply {
	s := &p.slots[child]
	return Reply{Cm: vtime.Duration(s.cm.Load()), Cpath: vtime.Duration(s.cpath.Load())}
}

// PathCost returns the critical-path cost below this operator.
func (p *PathTracker) PathCost() vtime.Duration {
	return p.HeadReply().Total()
}

// HeadReply returns the reply context of the most expensive child — the
// (Cm, Cpath) pair a policy should subtract when computing a message
// deadline toward this operator's downstream (Eq. 3 uses the target's cost
// and the path below the target). Equally expensive children resolve to
// the lowest index.
func (p *PathTracker) HeadReply() Reply {
	var best Reply
	for i := range p.slots {
		if r := p.Reply(i); r.Total() > best.Total() {
			best = r
		}
	}
	return best
}

// OpProfile bundles the per-operator profiling state: own execution cost and
// the downstream critical path learned from acks. One OpProfile lives on
// each operator instance.
type OpProfile struct {
	Cost EWMA        // C_o: this operator's execution cost per message
	Path PathTracker // replies from downstream children, by instance index

	// Noise optionally perturbs reported costs, for the Figure 16
	// measurement-inaccuracy experiment. It is called (if non-nil) each time
	// the profile is asked for its reply context.
	Noise func(vtime.Duration) vtime.Duration
}

// NewOpProfile returns a profile with the given EWMA smoothing for an
// operator with the given number of downstream children.
func NewOpProfile(alpha float64, children int) *OpProfile {
	o := &OpProfile{Path: PathTracker{slots: make([]pathSlot, children)}}
	o.Cost.init(alpha)
	return o
}

// ReplyContext builds the reply this operator sends to its upstream
// (Algorithm 1's PREPAREREPLY): its own cost, plus the critical path below
// it (0 when it has no children, i.e. it is a sink).
func (o *OpProfile) ReplyContext() Reply {
	cm := o.Cost.Value()
	if o.Noise != nil {
		cm = o.Noise(cm)
		if cm < 0 {
			cm = 0
		}
	}
	return Reply{Cm: cm, Cpath: o.Path.PathCost()}
}
