// The budget tuner: the background loop behind Config.AdaptiveBudgets.
//
// One goroutine per engine, sampling every TuneInterval. It differentiates
// each job's Retired counter into a drain rate (EWMA, recorded in metrics
// so Stats can report it) and sets the job's pending budget to rate ×
// latency target — the backlog the engine demonstrably clears within one
// deadline. The engine-wide budget and its shed high-water mark follow as
// the sum over jobs once every job has a measured rate. Rates are only
// folded in while a job is actually draining (retired something, or holds
// backlog): an idle job's budget must not decay to the floor just because
// no work arrived.

package runtime

import (
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

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

// budgetTuner is the engine's background budget controller; see the file
// comment above. It runs between Start and Stop, like the checkpointer.
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
	live := 0
	e.eachJob(func(j *dataflow.Job) {
		live++
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
			return
		}
		b := int64(st.rate * float64(j.Spec.Latency) / float64(vtime.Second))
		if floor := int64(tuneBudgetFloor * len(j.Stages[0])); b < floor {
			b = floor
		}
		j.Budget.Store(b)
		total += b
	})
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
