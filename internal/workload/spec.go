package workload

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/stats"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// This file defines the JSON-serializable workload specification behind the
// trace-replay harness (cmd/cameo-replay): a declarative description of a
// multi-tenant run — per-tenant arrival processes, key and fan-out shape,
// engine sizing, admission budgets, and SLO targets — that replays
// deterministically on the simulator (byte-reproducible under one seed) and
// statistically comparably on the real-time engine. Durations are encoded
// as integer microseconds (the vtime base unit) so specs round-trip without
// float parsing ambiguity; the `_us` field-name suffix keeps the unit
// visible in the JSON itself.

// Spec is a complete replayable workload: an engine shape plus one entry
// per tenant job.
type Spec struct {
	// Name labels the spec in verdicts and reports.
	Name string `json:"name"`
	// Seed drives every random choice; replays with equal seeds are
	// deterministic (byte-identical on the simulator).
	Seed uint64 `json:"seed"`
	// DurationUS is the feed horizon: sources emit from time zero until
	// this instant. The replay drivers run past it to flush open windows.
	DurationUS vtime.Duration `json:"duration_us"`
	// Workers is the worker-pool size (simulator: workers per node on one
	// node). Defaults to 1.
	Workers int `json:"workers,omitempty"`
	// Scheduler selects the dispatch discipline: "cameo" (default),
	// "orleans", or "fifo". The two baselines replay on the simulator
	// only; the real-time engine runs Cameo alone.
	Scheduler string `json:"scheduler,omitempty"`
	// DrainBatch is the real-time engine's per-lock message drain count
	// (0 = engine default). The simulator ignores it.
	DrainBatch int `json:"drain_batch,omitempty"`
	// MaxPending caps the engine-wide admitted-but-unexecuted message
	// count (0 = unlimited). The simulator ignores it (no admission layer).
	MaxPending int `json:"max_pending,omitempty"`
	// Overload selects the admission response when a budget would be
	// exceeded: "backpressure" (default) or "shed".
	Overload string `json:"overload,omitempty"`
	// Tenants are the concurrent jobs sharing the engine.
	Tenants []TenantSpec `json:"tenants"`
}

// TenantSpec describes one tenant job: its source shape, arrival process,
// dataflow (keyed windowed aggregation fanning into a global rollup — the
// paper's Group-1 shape), and SLO.
type TenantSpec struct {
	// Name must be unique within the spec.
	Name string `json:"name"`
	// Sources is the number of source channels (>= 1).
	Sources int `json:"sources"`
	// IntervalUS is the per-source emission period.
	IntervalUS vtime.Duration `json:"interval_us"`
	// Arrival is the per-emission tuple-count process.
	Arrival ArrivalSpec `json:"arrival"`
	// Keys is the grouping-key cardinality (default 64).
	Keys int64 `json:"keys,omitempty"`
	// FanOut is the keyed aggregation stage's parallelism (default 1) —
	// every source batch fans out into this many stage-0 messages.
	FanOut int `json:"fan_out,omitempty"`
	// WindowUS is the aggregation window size and slide (tumbling).
	WindowUS vtime.Duration `json:"window_us"`
	// DelayUS is the event-time ingestion delay (tuples' logical times
	// trail arrival by this much); 0 models ingestion-time streams.
	DelayUS vtime.Duration `json:"delay_us,omitempty"`
	// EventTime selects the event-time domain (frontier via regression
	// mapper) instead of ingestion time.
	EventTime bool `json:"event_time,omitempty"`
	// Spread de-phases the sources across the interval; false means
	// lockstep emission (the adversarial bursty case).
	Spread bool `json:"spread,omitempty"`
	// MaxPending caps this job's queued messages (0 = unlimited).
	MaxPending int `json:"max_pending,omitempty"`
	// SLO is the tenant's service-level objective.
	SLO SLOSpec `json:"slo"`
}

// SLOSpec is a tenant's service-level objective: a latency deadline the
// tail must meet and a bound on how much offered load the engine may refuse.
type SLOSpec struct {
	// DeadlineUS is the latency constraint L: the verdict requires output
	// p99 latency <= deadline.
	DeadlineUS vtime.Duration `json:"deadline_us"`
	// MaxShedFrac bounds the fraction of offered stage-0 load the engine
	// may shed or reject (0 = none tolerated).
	MaxShedFrac float64 `json:"max_shed_frac,omitempty"`
}

// ArrivalSpec selects and parameterizes a tenant's arrival process. Kind
// decides which fields apply; Scale and Jitter optionally wrap the base
// process regardless of kind.
type ArrivalSpec struct {
	// Kind is one of "constant", "poisson", "bursty", "trace", "onoff".
	// Empty defaults to "constant".
	Kind string `json:"kind,omitempty"`
	// Rate is the mean tuple count per emission (constant, poisson,
	// onoff) or the off-spike base count (bursty). Fractional rates are
	// honored via fractional-remainder carry.
	Rate float64 `json:"rate,omitempty"`
	// Spike is the bursty in-spike tuple count.
	Spike int `json:"spike,omitempty"`
	// PeriodUS is the bursty spike period.
	PeriodUS vtime.Duration `json:"period_us,omitempty"`
	// Duty is the fraction of each bursty period spent spiking, in (0,1).
	Duty float64 `json:"duty,omitempty"`
	// Counts is the trace kind's per-interval tuple series (repeats).
	Counts []int `json:"counts,omitempty"`
	// StartUS/StopUS bound the onoff kind's active window (stop 0 = open).
	StartUS vtime.Time `json:"start_us,omitempty"`
	StopUS  vtime.Time `json:"stop_us,omitempty"`
	// Scale multiplies the base process (0 or 1 = off).
	Scale float64 `json:"scale,omitempty"`
	// Jitter multiplies each emission by a uniform factor in
	// [1-Jitter, 1+Jitter] (0 = off).
	Jitter float64 `json:"jitter,omitempty"`
}

// Schedule builds the RateSchedule the spec describes. interval is the
// owning tenant's emission interval (the trace kind's cell width).
func (a *ArrivalSpec) Schedule(interval vtime.Duration) (RateSchedule, error) {
	var base RateSchedule
	switch a.Kind {
	case "", "constant":
		if a.Rate < 0 {
			return nil, fmt.Errorf("workload: constant arrival rate %v < 0", a.Rate)
		}
		if a.Rate == float64(int(a.Rate)) {
			base = ConstantRate(int(a.Rate))
		} else {
			// Fractional constant rates ride on the carry accumulator.
			base = &ScaledRate{Inner: ConstantRate(1), Factor: a.Rate}
		}
	case "poisson":
		if a.Rate <= 0 {
			return nil, fmt.Errorf("workload: poisson arrival needs rate > 0 (got %v)", a.Rate)
		}
		base = PoissonRate{Mean: a.Rate}
	case "bursty":
		if a.PeriodUS <= 0 || a.Duty <= 0 || a.Duty >= 1 {
			return nil, fmt.Errorf("workload: bursty arrival needs period_us > 0 and duty in (0,1)")
		}
		base = BurstyRate{Base: int(a.Rate), Spike: a.Spike, Period: a.PeriodUS, Duty: a.Duty}
	case "trace":
		if len(a.Counts) == 0 {
			return nil, fmt.Errorf("workload: trace arrival needs a non-empty counts series")
		}
		base = TraceRate{Counts: a.Counts, Interval: interval}
	case "onoff":
		if a.Rate <= 0 {
			return nil, fmt.Errorf("workload: onoff arrival needs rate > 0 (got %v)", a.Rate)
		}
		base = OnOffRate{Rate: int(a.Rate), Start: a.StartUS, Stop: a.StopUS}
	default:
		return nil, fmt.Errorf("workload: unknown arrival kind %q", a.Kind)
	}
	if a.Scale < 0 || a.Jitter < 0 || a.Jitter > 1 {
		return nil, fmt.Errorf("workload: arrival scale %v / jitter %v out of range", a.Scale, a.Jitter)
	}
	if a.Scale > 0 && a.Scale != 1 {
		base = &ScaledRate{Inner: base, Factor: a.Scale}
	}
	if a.Jitter > 0 {
		base = &JitterRate{Inner: base, Frac: a.Jitter}
	}
	return base, nil
}

// Allowed enum values for Spec's engine-shape strings. The replay drivers
// map them onto the engine enums; Validate pins them here so a typo fails
// at parse time, not mid-replay.
var (
	specSchedulers = map[string]bool{"cameo": true, "orleans": true, "fifo": true}
	specOverloads  = map[string]bool{"backpressure": true, "shed": true}
)

// ParseSpec decodes and validates a JSON workload spec. Unknown fields are
// an error: a misspelled knob silently reverting to its default would make
// capacity verdicts quietly wrong.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("workload: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the spec and fills defaults. It is idempotent; the replay
// drivers call it again defensively.
func (s *Spec) Validate() error {
	if s.Name == "" {
		s.Name = "unnamed"
	}
	if s.DurationUS <= 0 {
		return fmt.Errorf("workload: spec %q: duration_us must be positive", s.Name)
	}
	if s.Workers <= 0 {
		s.Workers = 1
	}
	if s.Scheduler == "" {
		s.Scheduler = "cameo"
	}
	if !specSchedulers[s.Scheduler] {
		return fmt.Errorf("workload: spec %q: unknown scheduler %q", s.Name, s.Scheduler)
	}
	if s.Overload == "" {
		s.Overload = "backpressure"
	}
	if !specOverloads[s.Overload] {
		return fmt.Errorf("workload: spec %q: unknown overload policy %q", s.Name, s.Overload)
	}
	if s.DrainBatch < 0 || s.MaxPending < 0 {
		return fmt.Errorf("workload: spec %q: negative drain_batch/max_pending", s.Name)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("workload: spec %q: needs at least one tenant", s.Name)
	}
	seen := make(map[string]bool, len(s.Tenants))
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if t.Name == "" {
			return fmt.Errorf("workload: spec %q: tenant %d has no name", s.Name, i)
		}
		if seen[t.Name] {
			return fmt.Errorf("workload: spec %q: duplicate tenant %q", s.Name, t.Name)
		}
		seen[t.Name] = true
		if t.Sources <= 0 {
			return fmt.Errorf("workload: tenant %q: sources must be >= 1", t.Name)
		}
		if t.IntervalUS <= 0 {
			return fmt.Errorf("workload: tenant %q: interval_us must be positive", t.Name)
		}
		if t.WindowUS <= 0 {
			return fmt.Errorf("workload: tenant %q: window_us must be positive", t.Name)
		}
		if t.SLO.DeadlineUS <= 0 {
			return fmt.Errorf("workload: tenant %q: slo.deadline_us must be positive", t.Name)
		}
		if t.SLO.MaxShedFrac < 0 || t.SLO.MaxShedFrac > 1 {
			return fmt.Errorf("workload: tenant %q: slo.max_shed_frac %v out of [0,1]",
				t.Name, t.SLO.MaxShedFrac)
		}
		if t.Keys <= 0 {
			t.Keys = 64
		}
		if t.FanOut <= 0 {
			t.FanOut = 1
		}
		if t.MaxPending < 0 {
			return fmt.Errorf("workload: tenant %q: negative max_pending", t.Name)
		}
		if _, err := t.Arrival.Schedule(t.IntervalUS); err != nil {
			return fmt.Errorf("tenant %q: %w", t.Name, err)
		}
	}
	return nil
}

// JobSpec builds the tenant's dataflow job: a keyed tumbling-window sum at
// FanOut parallelism feeding a global rollup — the Group-1 job shape every
// capacity question in the paper is asked about.
func (t *TenantSpec) JobSpec() dataflow.JobSpec {
	win := t.WindowUS
	domain := dataflow.IngestionTime
	if t.EventTime {
		domain = dataflow.EventTime
	}
	return dataflow.JobSpec{
		Name:       t.Name,
		Latency:    t.SLO.DeadlineUS,
		Domain:     domain,
		Sources:    t.Sources,
		MaxPending: t.MaxPending,
		Stages: []dataflow.StageSpec{
			{
				Name: "agg", Parallelism: t.FanOut, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum}),
				Cost:       lsCost,
			},
			{
				Name: "rollup", Parallelism: 1, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum, Global: true}),
				Cost:       lsCost,
			},
		},
	}
}

// FeedFor builds tenant i's feed. Tenant seeds derive from the spec seed by
// position, so adding a tenant at the end leaves earlier tenants' streams
// untouched.
func (s *Spec) FeedFor(i int) (*Feed, error) {
	if i < 0 || i >= len(s.Tenants) {
		return nil, fmt.Errorf("workload: spec %q: tenant index %d out of range", s.Name, i)
	}
	t := &s.Tenants[i]
	sched, err := t.Arrival.Schedule(t.IntervalUS)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", t.Name, err)
	}
	root := stats.NewRNG(s.Seed)
	var seed uint64
	for k := 0; k <= i; k++ {
		seed = root.Uint64()
	}
	cfg := SourceConfig{
		Interval: t.IntervalUS,
		Rate:     sched,
		Keys:     t.Keys,
		Delay:    t.DelayUS,
		End:      vtime.Time(s.DurationUS),
	}
	if t.Spread {
		return UniformSpread(seed, t.Sources, cfg), nil
	}
	return Uniform(seed, t.Sources, cfg), nil
}
