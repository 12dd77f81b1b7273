// Closed-loop self-tuning for the dispatch hot path: the per-worker
// drain-batch controller and the background budget tuner.
//
// The static knobs they replace (Config.DrainBatch, MaxPending, the shed
// high-water mark) each encode a guess about the workload; the controller
// and tuner derive the same quantities from observed behavior instead —
// Nephele-style adaptive batching driven by the latency constraint rather
// than a fixed size.
//
// # Drain controller
//
// One drainController per worker, consulted only at batch boundaries (the
// instant the worker is about to take the operator lock for the next
// pop). Two EWMA signals feed it:
//
//   - queue depth: the acquired operator's SchedState.Depth, a mirror of
//     its pending-queue length maintained under the queue's own lock and
//     read here lock-free. Deep backlog means there is locking to
//     amortize — the batch grows toward DrainBatchMax. An idle queue
//     means there is nothing to amortize over — it shrinks toward
//     DrainBatchMin (1 by default).
//   - per-message cost: measured from the clock reads the drain loop
//     already does (batch boundary to batch boundary), so arming the
//     controller adds zero clock reads to the hot path.
//
// The depth-tracking size is clamped by one latency guard before the
// [min,max] bound: it must fit a fraction of the job's latency target
// (draining one operator for the full deadline budget would spend every
// sibling's headroom on one queue). Preemption granularity is not the
// controller's business: the drain loop ends any batch, whatever its size,
// at the message boundary where the scheduling quantum expires.
//
// Adjusting only at batch boundaries is what keeps the PR 5 mid-batch
// machinery untouched: a batch in flight is indistinguishable from a
// fixed-DrainBatch batch of the same size, so the lifeEpoch re-checks,
// conservation on cancel/pause, and returnUndrained all apply verbatim.
// With min == max the controller is frozen and the worker is
// message-for-message identical to the fixed path — the order-equivalence
// tests pin this.
//
// # Budget tuner
//
// One goroutine per engine (armed by Config.AdaptiveBudgets), sampling
// every TuneInterval. It differentiates each job's Retired counter into
// a drain rate (EWMA, recorded in metrics so Stats can report it) and
// sets the job's pending budget to rate × latency target — the backlog
// the engine demonstrably clears within one deadline. The engine-wide
// budget and its shed high-water mark follow as the sum over jobs once
// every job has a measured rate. Rates are only folded in while a job is
// actually draining (retired something, or holds backlog): an idle job's
// budget must not decay to the floor just because no work arrived.
package runtime

import (
	"sync/atomic"
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

const (
	// drainDepthAlpha smooths the queue-depth signal. 0.25 reacts within
	// a few batches without chasing single-batch noise.
	drainDepthAlpha = 0.25
	// drainCostAlpha smooths the per-message cost signal — slower than
	// depth, because cost jitter (a cold cache, one expensive window
	// flush) is noisier than backlog jitter.
	drainCostAlpha = 0.2
	// drainHeadroomDiv caps one batch's residence time at this fraction
	// of the job's latency target, so a single operator cannot consume
	// the whole deadline budget in one un-preemptible batch.
	drainHeadroomDiv = 4
)

// drainController sizes one worker's drain batches. All fields except
// applied are owned by that worker alone; applied is atomic only so
// observers (AppliedDrainBatch, the adaptive example) can read it without
// perturbing the worker.
type drainController struct {
	min, max  int
	depthEWMA float64
	costEWMA  float64 // engine-clock units (µs) per message; 0 = unmeasured
	applied   atomic.Int32
}

func (c *drainController) init(min, max int) {
	c.min, c.max = min, max
	c.applied.Store(int32(min))
}

// size picks the next batch size from the acquired operator's queue depth
// and its job's latency target. Called at batch boundaries only.
func (c *drainController) size(depth int, latency vtime.Duration) int {
	c.depthEWMA += drainDepthAlpha * (float64(depth) - c.depthEWMA)
	k := int(c.depthEWMA + 0.5)
	if c.costEWMA > 0 && latency > 0 {
		// Latency guard: the batch must fit a fraction of the job's
		// deadline budget.
		if l := int(float64(latency) / (drainHeadroomDiv * c.costEWMA)); k > l {
			k = l
		}
	}
	if k < c.min {
		k = c.min
	}
	if k > c.max {
		k = c.max
	}
	c.applied.Store(int32(k))
	return k
}

// observe folds one executed batch into the cost EWMA: n messages retired
// over elapsed engine time. The elapsed values come from clock reads the
// drain loop already performs, so observation is free of clock traffic.
func (c *drainController) observe(n int, elapsed vtime.Duration) {
	if n <= 0 || elapsed <= 0 {
		return
	}
	per := float64(elapsed) / float64(n)
	if c.costEWMA == 0 {
		c.costEWMA = per
		return
	}
	c.costEWMA += drainCostAlpha * (per - c.costEWMA)
}

const (
	// tuneRateAlpha smooths the per-job drain-rate estimate across tuner
	// ticks.
	tuneRateAlpha = 0.3
	// tuneBudgetFloor is the minimum adaptive per-job budget in stage-0
	// fan-outs: however slow a job has measured, a fresh burst must be
	// able to land a few batches so the rate estimate can correct itself
	// — a budget pinched to zero would wedge the feedback loop shut.
	tuneBudgetFloor = 8
)

// tunerJobState is the tuner's per-job scratch, allocated once per job on
// first sight so steady-state ticks are allocation-free.
type tunerJobState struct {
	lastRetired int64
	rate        float64 // messages per second, EWMA; 0 = unmeasured
	gen         uint64  // last tick that saw the job live (for pruning)
}

// budgetTuner is the engine's background budget controller; see the
// package comment above. It runs between Start and Stop, like the
// checkpointer.
type budgetTuner struct {
	e      *Engine
	stopCh chan struct{}
	state  map[*dataflow.Job]*tunerJobState
	gen    uint64
}

func newBudgetTuner(e *Engine) *budgetTuner {
	return &budgetTuner{
		e:      e,
		stopCh: make(chan struct{}),
		state:  make(map[*dataflow.Job]*tunerJobState),
	}
}

func (t *budgetTuner) stop() { close(t.stopCh) }

func (t *budgetTuner) run() {
	defer t.e.wg.Done()
	tick := time.NewTicker(t.e.cfg.TuneInterval)
	defer tick.Stop()
	last := t.e.clock.Now()
	for {
		select {
		case <-t.stopCh:
			return
		case <-tick.C:
			now := t.e.clock.Now()
			t.tick(now - last)
			last = now
		}
	}
}

// tick samples every live job once: retire delta → rate EWMA → budget.
// elapsed is engine time since the previous tick.
func (t *budgetTuner) tick(elapsed vtime.Duration) {
	if elapsed <= 0 {
		return
	}
	e := t.e
	secs := float64(elapsed) / float64(vtime.Second)
	var total int64
	allMeasured := true
	e.jobsMu.RLock()
	for _, j := range e.jobs {
		st := t.state[j]
		if st == nil {
			st = &tunerJobState{lastRetired: j.Retired.Load()}
			t.state[j] = st
		}
		st.gen = t.gen
		retired := j.Retired.Load()
		delta := retired - st.lastRetired
		st.lastRetired = retired
		// Fold the sample only while the job is draining or has backlog:
		// an idle interval says nothing about capacity, and letting it
		// decay the rate would shrink an idle job's budget for no reason.
		if delta > 0 || j.Queued.Load() > 0 {
			inst := float64(delta) / secs
			if st.rate == 0 {
				st.rate = inst
			} else {
				st.rate += tuneRateAlpha * (inst - st.rate)
			}
			j.Stats.SetDrainRate(st.rate)
		}
		if st.rate <= 0 {
			allMeasured = false
			continue
		}
		b := int64(st.rate * float64(j.Spec.Latency) / float64(vtime.Second))
		if floor := int64(tuneBudgetFloor * len(j.Stages[0])); b < floor {
			b = floor
		}
		j.Budget.Store(b)
		total += b
	}
	live := len(e.jobs)
	e.jobsMu.RUnlock()
	// The engine-wide budget follows once every live job has a measured
	// rate — summing a mix of measured budgets and unmeasured zeros would
	// understate capacity and shed work a static budget would have kept.
	if allMeasured && live > 0 && total > 0 {
		e.adm.setMax(total)
	}
	// Prune state for departed jobs so a churning engine doesn't retain
	// every cancelled job's scratch.
	if len(t.state) > live {
		for j, st := range t.state {
			if st.gen != t.gen {
				delete(t.state, j)
			}
		}
	}
	t.gen++
}
