// Package replay runs a workload.Spec on both Cameo engines and renders an
// SLO verdict — the capacity-planning loop of EXPERIMENTS.md: state a
// hypothesis as a spec ("2 tenants, this arrival mix, this worker count,
// these deadlines"), replay it, and read pass/fail per tenant instead of
// eyeballing latency plots.
//
// The two drivers answer different questions with one spec:
//
//   - Sim replays on the virtual-time simulator: byte-reproducible under a
//     fixed seed (the verdict JSON is identical run-to-run), so verdicts can
//     be diffed in CI.
//   - Engine replays on the real-time engine with paced, open-loop sources:
//     statistically comparable to the simulation (same offered load, same
//     dataflow), plus the admission-layer effects the simulator does not
//     model — shedding, backpressure rejections.
package replay

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/metrics"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/sim"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/workload"
)

// TenantVerdict is one tenant's measured outcome against its SLO. Latency
// fields are milliseconds (the unit the paper's figures use); counts are
// engine messages except OfferedBatches/OfferedTuples, which count the
// source batches the driver offered (before admission).
type TenantVerdict struct {
	Tenant      string  `json:"tenant"`
	DeadlineMS  float64 `json:"deadline_ms"`
	MaxShedFrac float64 `json:"max_shed_frac"`

	OfferedBatches int64   `json:"offered_batches"`
	OfferedTuples  int64   `json:"offered_tuples"`
	Outputs        int64   `json:"outputs"`
	P50MS          float64 `json:"p50_ms"`
	P99MS          float64 `json:"p99_ms"`
	SuccessRate    float64 `json:"success_rate"`
	// Shed counts queued messages discarded by overload shedding; Rejected
	// counts ingest attempts (batches) refused by backpressure. Both are
	// zero on the simulator, which has no admission layer. In net mode
	// Rejected counts refused coalesced flushes (the server's TryIngest
	// granularity), not offered batches.
	Shed     int64 `json:"shed"`
	Rejected int64 `json:"rejected"`
	// WireNackedFrames and WireNackedTuples count this tenant's wire
	// frames (and the tuples they carried) refused with a Nack — set only
	// in net mode, where they reconcile with the server's ledger and the
	// engine's per-source Rejected counts.
	WireNackedFrames int64 `json:"wire_nacked_frames,omitempty"`
	WireNackedTuples int64 `json:"wire_nacked_tuples,omitempty"`
	// ShedFrac is the fraction of offered stage-0 load refused or shed:
	// (shed + rejected*fan_out) / (offered_batches*fan_out) in-process;
	// shed/(offered_batches*fan_out) + wire_nacked_tuples/offered_tuples
	// in net mode, where refusals happen at the wire in tuple granularity.
	ShedFrac float64 `json:"shed_frac"`

	PassLatency bool `json:"pass_latency"`
	PassShed    bool `json:"pass_shed"`
	Pass        bool `json:"pass"`
}

// Verdict is a whole replay's outcome: per-tenant verdicts plus engine-wide
// conservation counters.
type Verdict struct {
	// Mode is "sim" or "runtime".
	Mode string `json:"mode"`
	// Spec and Seed identify what was replayed.
	Spec string `json:"spec"`
	Seed uint64 `json:"seed"`
	// Messages counts executed messages; Created and Discarded are the
	// runtime engine's conservation counters (zero on the simulator). After
	// a kill/restore drill they are summed across both engine incarnations
	// — conservation (created == messages + discarded) must still hold.
	Messages  int64 `json:"messages"`
	Created   int64 `json:"created,omitempty"`
	Discarded int64 `json:"discarded,omitempty"`
	// HandlerPanics counts operator invocations that panicked (each one
	// quarantines its tenant); zero on the simulator.
	HandlerPanics int64 `json:"handler_panics,omitempty"`
	// KilledAtMS is the engine-clock time at which a kill/restore drill
	// killed the first engine incarnation; zero when no drill ran.
	KilledAtMS float64 `json:"killed_at_ms,omitempty"`

	Tenants []TenantVerdict `json:"tenants"`
	// Pass is the conjunction of every tenant's Pass.
	Pass bool `json:"pass"`
}

// flushTail is how far past the feed horizon a replay runs so queued work
// and closeable windows drain before measurement stops.
func flushTail(spec *workload.Spec) vtime.Duration {
	var maxWin, maxDelay vtime.Duration
	for _, t := range spec.Tenants {
		if t.WindowUS > maxWin {
			maxWin = t.WindowUS
		}
		if t.DelayUS > maxDelay {
			maxDelay = t.DelayUS
		}
	}
	return maxWin + maxDelay + 5*vtime.Second
}

func schedulerKind(name string) (core.SchedulerKind, error) {
	switch name {
	case "cameo":
		return core.CameoScheduler, nil
	case "orleans":
		return core.OrleansScheduler, nil
	case "fifo":
		return core.FIFOScheduler, nil
	}
	return 0, fmt.Errorf("replay: unknown scheduler %q", name)
}

func overloadPolicy(name string) (runtime.OverloadPolicy, error) {
	switch name {
	case "backpressure":
		return runtime.OverloadBackpressure, nil
	case "shed":
		return runtime.OverloadShed, nil
	}
	return 0, fmt.Errorf("replay: unknown overload policy %q", name)
}

// EngineConfigFor translates a validated spec's engine shape into the
// runtime configuration every real-time replay driver (and
// cmd/cameo-serve) builds from — drain batch, admission budgets. The
// real-time engine runs the Cameo scheduler only, so a spec naming a
// baseline scheduler is refused here: it replays on the
// simulator (Sim, cameo-replay -mode sim). StartTime and Recorder stay
// zero; callers that need them set them on the returned value.
func EngineConfigFor(spec *workload.Spec) (runtime.Config, error) {
	kind, err := schedulerKind(spec.Scheduler)
	if err != nil {
		return runtime.Config{}, err
	}
	if kind != core.CameoScheduler {
		return runtime.Config{}, fmt.Errorf(
			"replay: spec %q: scheduler %q is a baseline the simulator runs, not the real-time engine; replay it in sim mode",
			spec.Name, spec.Scheduler)
	}
	policy, err := overloadPolicy(spec.Overload)
	if err != nil {
		return runtime.Config{}, err
	}
	return runtime.Config{
		Workers:    spec.Workers,
		DrainBatch: spec.DrainBatch,
		MaxPending: spec.MaxPending,
		Overload:   policy,
	}, nil
}

// offered tallies the load a driver presented to an engine for one tenant.
type offered struct {
	batches, tuples int64
}

// countingFeed wraps a workload.Feed to tally offered load on the way into
// the simulator. Single-threaded (the simulator is sequential), so plain
// counters suffice.
type countingFeed struct {
	feed *workload.Feed
	off  *offered
}

func (c *countingFeed) Next(src int) (*dataflow.Batch, vtime.Time, vtime.Time, bool) {
	b, p, t, ok := c.feed.Next(src)
	if ok && b != nil {
		c.off.batches++
		c.off.tuples += int64(b.Len())
	}
	return b, p, t, ok
}

// Sim replays spec on the virtual-time simulator and returns its verdict.
// Identical spec and seed produce byte-identical verdicts.
func Sim(spec *workload.Spec) (*Verdict, error) {
	v, _, err := simulate(spec)
	return v, err
}

// simulate is Sim, also returning the simulator's recorder, which keeps
// every output.
func simulate(spec *workload.Spec) (*Verdict, *metrics.Recorder, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	kind, err := schedulerKind(spec.Scheduler)
	if err != nil {
		return nil, nil, err
	}
	c := sim.New(sim.Config{
		Nodes: 1, WorkersPerNode: spec.Workers,
		Scheduler: kind,
		End:       vtime.Time(spec.DurationUS + flushTail(spec)),
	})
	offers := make([]*offered, len(spec.Tenants))
	for i := range spec.Tenants {
		feed, err := spec.FeedFor(i)
		if err != nil {
			return nil, nil, err
		}
		offers[i] = &offered{}
		if _, err := c.AddJob(spec.Tenants[i].JobSpec(), &countingFeed{feed: feed, off: offers[i]}); err != nil {
			return nil, nil, err
		}
	}
	res := c.Run()
	v := &Verdict{Mode: "sim", Spec: spec.Name, Seed: spec.Seed, Messages: res.Messages}
	for i := range spec.Tenants {
		v.Tenants = append(v.Tenants, tenantVerdict(&spec.Tenants[i], res.Recorder, offers[i]))
	}
	v.Pass = allPass(v.Tenants)
	return v, res.Recorder, nil
}

// Engine replays spec on the real-time engine: one paced, open-loop source
// goroutine per (tenant, source), each sleeping until the engine clock
// reaches the emission's scheduled arrival time. Under backpressure a
// refused batch is dropped and counted as rejected (open-loop sources do
// not retry); under shedding the engine's admission layer does the
// accounting. Returns the verdict once sources finish and the engine
// drains.
func Engine(spec *workload.Spec) (*Verdict, error) {
	return engineRun(spec, 0)
}

// EngineKillRestore replays spec like Engine, but runs the crash-recovery
// drill mid-stream: when the engine clock reaches killAt, every tenant is
// quiesced and checkpointed, the first engine is killed without draining,
// and a second engine — constructed on the same clock axis and metrics
// recorder — restores the snapshots and resumes. The paced sources keep
// offering load throughout, retrying batches the failover window refuses,
// so the verdict measures recovery as the tenants experience it: the SLO
// gates still apply and conservation is summed across both incarnations.
func EngineKillRestore(spec *workload.Spec, killAt vtime.Duration) (*Verdict, error) {
	if killAt <= 0 {
		return nil, fmt.Errorf("replay: kill/restore drill needs a positive kill time")
	}
	return engineRun(spec, killAt)
}

func engineRun(spec *workload.Spec, killAt vtime.Duration) (*Verdict, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	base, err := EngineConfigFor(spec)
	if err != nil {
		return nil, err
	}
	newEngine := func(start vtime.Duration, rec *metrics.Recorder) *runtime.Engine {
		cfg := base
		cfg.StartTime = start
		cfg.Recorder = rec
		return runtime.New(cfg)
	}
	first := newEngine(0, nil)
	// Sources address the engine through this pointer; the failover
	// controller swaps it to the restored incarnation mid-run.
	var cur atomic.Pointer[runtime.Engine]
	cur.Store(first)
	feeds := make([]*workload.Feed, len(spec.Tenants))
	for i := range spec.Tenants {
		feed, err := spec.FeedFor(i)
		if err != nil {
			return nil, err
		}
		feeds[i] = feed
		if _, err := first.AddJob(spec.Tenants[i].JobSpec()); err != nil {
			return nil, err
		}
	}
	first.Start()
	var failoverErr chan error
	if killAt > 0 {
		failoverErr = make(chan error, 1)
		go func() { failoverErr <- failover(spec, &cur, killAt, newEngine) }()
	}
	// One tally per (tenant, source) goroutine — no shared state on the
	// ingest path — summed per tenant after the sources join.
	srcOffers := make([][]offered, len(spec.Tenants))
	errs := make(chan error, 1)
	done := make(chan struct{})
	var running int
	for i := range spec.Tenants {
		t := &spec.Tenants[i]
		srcOffers[i] = make([]offered, t.Sources)
		running += t.Sources
		for s := 0; s < t.Sources; s++ {
			go func(name string, feed *workload.Feed, src int, off *offered) {
				defer func() { done <- struct{}{} }()
				for {
					b, p, at, ok := feed.Next(src)
					if !ok {
						return
					}
					// Pace on the engine clock: the feed's arrival times
					// are the offered-load schedule. The clock axis is
					// continuous across a failover (StartTime).
					for {
						now := cur.Load().Now()
						if now >= at {
							break
						}
						time.Sleep(vtime.Std(at - now))
					}
					if b == nil {
						continue
					}
					off.batches++
					off.tuples += int64(b.Len())
					if err := ingestRetry(&cur, name, src, b, p); err != nil {
						select {
						case errs <- err:
						default:
						}
						return
					}
				}
			}(t.Name, feeds[i], s, &srcOffers[i][s])
		}
	}
	for k := 0; k < running; k++ {
		<-done
	}
	if failoverErr != nil {
		if err := <-failoverErr; err != nil {
			cur.Load().Stop()
			return nil, err
		}
	}
	eng := cur.Load()
	fail := func(err error) (*Verdict, error) {
		eng.Stop()
		return nil, err
	}
	select {
	case err := <-errs:
		return fail(err)
	default:
	}
	if !eng.Drain(60 * time.Second) {
		return fail(fmt.Errorf("replay: engine failed to drain within 60s"))
	}
	eng.Stop()
	offers := make([]*offered, len(spec.Tenants))
	for i := range srcOffers {
		offers[i] = &offered{}
		for s := range srcOffers[i] {
			offers[i].batches += srcOffers[i][s].batches
			offers[i].tuples += srcOffers[i][s].tuples
		}
	}
	v := &Verdict{
		Mode: "runtime", Spec: spec.Name, Seed: spec.Seed,
		Messages:      eng.Executed(),
		Created:       eng.Created(),
		Discarded:     eng.Discarded(),
		HandlerPanics: eng.HandlerPanics(),
	}
	if eng != first {
		// Fold the killed incarnation's conservation counters in: its
		// discarded backlog was re-created on the restored engine, and the
		// sum must still conserve.
		v.Messages += first.Executed()
		v.Created += first.Created()
		v.Discarded += first.Discarded()
		v.HandlerPanics += first.HandlerPanics()
		v.KilledAtMS = float64(killAt) / float64(vtime.Millisecond)
	}
	for i := range spec.Tenants {
		v.Tenants = append(v.Tenants, tenantVerdict(&spec.Tenants[i], eng.Recorder(), offers[i]))
	}
	v.Pass = allPass(v.Tenants)
	return v, nil
}

// ingestRetry offers one batch to the current engine, riding out a
// failover: ErrJobPaused (the tenant is quiesced for its snapshot, or
// restored but not yet resumed) and errors from a stale engine pointer
// are retried against the freshly loaded engine. ErrOverloaded is not
// retried — open-loop sources drop the batch and the admission layer has
// recorded the rejection.
func ingestRetry(cur *atomic.Pointer[runtime.Engine], job string, src int, b *dataflow.Batch, p vtime.Time) error {
	const patience = 30 * time.Second
	for waited := time.Duration(0); ; {
		eng := cur.Load()
		err := eng.Ingest(job, src, b, p)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, runtime.ErrOverloaded):
			return nil // refused: admission recorded it
		case errors.Is(err, runtime.ErrJobPaused) || cur.Load() != eng:
			if waited >= patience {
				return fmt.Errorf("replay: tenant %q still unavailable after %v: %w", job, patience, err)
			}
			time.Sleep(200 * time.Microsecond)
			waited += 200 * time.Microsecond
		default:
			return err
		}
	}
}

// failover is the kill/restore drill: wait for killAt on the first
// engine's clock, quiesce and snapshot every tenant through the pause
// path, stand up a second engine on the same clock axis and recorder,
// restore, swap the source-facing pointer, resume, and only then cancel
// the killed incarnation (settling its conservation counters) and stop
// it. Sources observe at most a brief ErrJobPaused window.
func failover(spec *workload.Spec, cur *atomic.Pointer[runtime.Engine], killAt vtime.Duration,
	newEngine func(vtime.Duration, *metrics.Recorder) *runtime.Engine) error {
	a := cur.Load()
	for {
		now := a.Now()
		if vtime.Duration(now) >= killAt {
			break
		}
		time.Sleep(vtime.Std(killAt - vtime.Duration(now)))
	}
	snaps := make([][]byte, len(spec.Tenants))
	w := snap.NewWriter()
	for i := range spec.Tenants {
		name := spec.Tenants[i].Name
		if err := a.PauseJob(name); err != nil {
			return fmt.Errorf("replay: failover pause %q: %w", name, err)
		}
		w.Reset()
		if err := a.CheckpointJob(name, w); err != nil {
			return fmt.Errorf("replay: failover checkpoint %q: %w", name, err)
		}
		snaps[i] = append([]byte(nil), w.Bytes()...)
	}
	b := newEngine(vtime.Duration(a.Now()), a.Recorder())
	b.Start()
	for i := range spec.Tenants {
		if _, err := b.RestoreJob(spec.Tenants[i].JobSpec(), snaps[i]); err != nil {
			return fmt.Errorf("replay: failover restore: %w", err)
		}
	}
	cur.Store(b) // sources now target the restored engine (still paused)
	for i := range spec.Tenants {
		if err := b.ResumeJob(spec.Tenants[i].Name); err != nil {
			return fmt.Errorf("replay: failover resume: %w", err)
		}
	}
	// The snapshots own the backlog now; cancelling on the killed engine
	// discards its copy so created == executed + discarded settles there.
	for i := range spec.Tenants {
		if err := a.CancelJob(spec.Tenants[i].Name); err != nil {
			return fmt.Errorf("replay: failover cancel: %w", err)
		}
	}
	a.Stop()
	return nil
}

// tenantVerdict folds one tenant's recorded stats into its verdict.
// Quantile panics on empty samples, so zero-output tenants report zeros and
// fail the latency gate (no outputs cannot demonstrate a met deadline).
func tenantVerdict(t *workload.TenantSpec, rec *metrics.Recorder, off *offered) TenantVerdict {
	tv := TenantVerdict{
		Tenant:         t.Name,
		DeadlineMS:     float64(t.SLO.DeadlineUS) / 1000,
		MaxShedFrac:    t.SLO.MaxShedFrac,
		OfferedBatches: off.batches,
		OfferedTuples:  off.tuples,
	}
	if js := rec.Job(t.Name); js != nil {
		tv.Outputs = js.Count()
		if tv.Outputs > 0 {
			tv.P50MS = js.Quantile(0.5) / 1000
			tv.P99MS = js.Quantile(0.99) / 1000
			tv.SuccessRate = js.SuccessRate()
		}
		tv.Shed = js.Shed.Load()
		tv.Rejected = js.Rejected.Load()
	}
	if tv.OfferedBatches > 0 {
		offeredMsgs := tv.OfferedBatches * int64(t.FanOut)
		tv.ShedFrac = float64(tv.Shed+tv.Rejected*int64(t.FanOut)) / float64(offeredMsgs)
	}
	tv.PassLatency = tv.Outputs > 0 && tv.P99MS <= tv.DeadlineMS
	tv.PassShed = tv.ShedFrac <= t.SLO.MaxShedFrac
	tv.Pass = tv.PassLatency && tv.PassShed
	return tv
}

func allPass(ts []TenantVerdict) bool {
	for _, t := range ts {
		if !t.Pass {
			return false
		}
	}
	return true
}
