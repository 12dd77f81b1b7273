package workload

import (
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// Query bundles a job spec with a feed builder so experiments can
// instantiate the same workload repeatedly with different seeds.
type Query struct {
	Spec dataflow.JobSpec
	Feed func(seed uint64) *Feed
}

// Scale tunes generated workloads so simulated experiments finish in
// seconds while preserving the paper's shapes. 1.0 reproduces the paper's
// nominal per-source message rates with modest batch sizes.
type Scale struct {
	// Sources per job (paper: 64).
	Sources int
	// TuplesPerMsg is the batch size (paper: 1000 events/msg for Group 1).
	TuplesPerMsg int
	// Horizon is the stream end time.
	Horizon vtime.Time
	// Spread de-phases the sources' emission instants across the interval
	// (independent streams); when false all sources emit in lockstep,
	// which is the adversarial bursty case.
	Spread bool
	// Jitter, when positive, scales every emission's tuple count by a
	// uniform factor in [1-Jitter, 1+Jitter] — short-term volume
	// variability (Fig 2c).
	Jitter float64
}

// feedOf builds the job feed honoring the scale's Spread and Jitter
// settings.
func feedOf(sc Scale, seed uint64, n int, cfg SourceConfig) *Feed {
	if sc.Jitter > 0 {
		cfg.Rate = &JitterRate{Inner: cfg.Rate, Frac: sc.Jitter}
	}
	if sc.Spread {
		return UniformSpread(seed, n, cfg)
	}
	return Uniform(seed, n, cfg)
}

// DefaultScale keeps experiment run times in seconds: 16 sources, 200
// tuples per message, 120 simulated seconds.
func DefaultScale() Scale {
	return Scale{Sources: 16, TuplesPerMsg: 200, Horizon: 120 * vtime.Second}
}

// lsCost is the execution-cost model of latency-sensitive aggregation
// stages: light per-message work.
var lsCost = dataflow.CostModel{Base: 200 * vtime.Microsecond, PerTuple: 2 * vtime.Microsecond}

// baCost is the heavier bulk-analytics cost model.
var baCost = dataflow.CostModel{Base: 300 * vtime.Microsecond, PerTuple: 3 * vtime.Microsecond}

// IPQ1 is the paper's first single-tenant query: periodic sum of ad revenue
// — keyed tumbling-window sum feeding a global tumbling-window sum
// (1 s windows).
func IPQ1(sc Scale) Query {
	win := vtime.Second
	spec := dataflow.JobSpec{
		Name:    "ipq1",
		Latency: 800 * vtime.Millisecond,
		Domain:  dataflow.EventTime,
		Sources: sc.Sources,
		Stages: []dataflow.StageSpec{
			{
				Name: "sum-by-ad", Parallelism: 4, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum}),
				Cost:       lsCost,
			},
			{
				Name: "total", Parallelism: 1, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum, Global: true}),
				Cost:       lsCost,
			},
		},
	}
	return Query{Spec: spec, Feed: func(seed uint64) *Feed {
		return feedOf(sc, seed, sc.Sources, SourceConfig{
			Interval: vtime.Second,
			Rate:     ConstantRate(sc.TuplesPerMsg),
			Keys:     64,
			Delay:    50 * vtime.Millisecond,
			End:      sc.Horizon,
		})
	}}
}

// IPQ2 is IPQ1 on a sliding window (3 s window, 1 s slide): consecutive
// windows overlap, so every tuple contributes to three results.
func IPQ2(sc Scale) Query {
	q := IPQ1(sc)
	q.Spec.Name = "ipq2"
	q.Spec.Stages[0].NewHandler = operators.WindowAgg(operators.WindowAggSpec{
		Size: 3 * vtime.Second, Slide: vtime.Second, Agg: operators.Sum})
	q.Spec.Stages[1].NewHandler = operators.WindowAgg(operators.WindowAggSpec{
		Size: vtime.Second, Slide: vtime.Second, Agg: operators.Sum, Global: true})
	// Overlapping windows triple per-tuple state work.
	q.Spec.Stages[0].Cost = dataflow.CostModel{Base: lsCost.Base, PerTuple: 3 * lsCost.PerTuple}
	return q
}

// IPQ3 counts events grouped by criteria (keyed tumbling count feeding a
// global count).
func IPQ3(sc Scale) Query {
	q := IPQ1(sc)
	q.Spec.Name = "ipq3"
	win := vtime.Second
	q.Spec.Stages[0].NewHandler = operators.WindowAgg(operators.WindowAggSpec{
		Size: win, Slide: win, Agg: operators.Count})
	q.Spec.Stages[1].NewHandler = operators.WindowAgg(operators.WindowAggSpec{
		Size: win, Slide: win, Agg: operators.Count, Global: true})
	return q
}

// IPQ4 summarizes errors from log events: a tumbling windowed join of two
// event streams followed by tumbling aggregation. Its execution cost is
// deliberately the heaviest (the paper notes IPQ4 "has a higher execution
// time with heavy memory access").
func IPQ4(sc Scale) Query {
	win := 2 * vtime.Second
	heavy := dataflow.CostModel{Base: 1 * vtime.Millisecond, PerTuple: 8 * vtime.Microsecond}
	spec := dataflow.JobSpec{
		Name:        "ipq4",
		Latency:     2 * vtime.Second,
		Domain:      dataflow.EventTime,
		Sources:     sc.Sources,
		SourcePorts: 2,
		Stages: []dataflow.StageSpec{
			{
				Name: "join", Parallelism: 4, Slide: win,
				NewHandler: operators.WindowJoin(operators.WindowJoinSpec{Size: win}),
				Cost:       heavy,
			},
			{
				Name: "summarize", Parallelism: 1, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum, Global: true}),
				Cost:       heavy,
			},
		},
	}
	return Query{Spec: spec, Feed: func(seed uint64) *Feed {
		return feedOf(sc, seed, sc.Sources, SourceConfig{
			Interval: vtime.Second,
			Rate:     ConstantRate(sc.TuplesPerMsg),
			Keys:     32, // fewer keys: joins need matches on both sides
			Delay:    50 * vtime.Millisecond,
			End:      sc.Horizon,
		})
	}}
}

// IPQs returns the four single-tenant queries of §6.1.
func IPQs(sc Scale) []Query {
	return []Query{IPQ1(sc), IPQ2(sc), IPQ3(sc), IPQ4(sc)}
}

// LSJob builds one Group-1 latency-sensitive job (paper §6: sparse input —
// 1 msg/s per source — short 1 s aggregation windows, strict latency
// constraint).
func LSJob(name string, sc Scale, latency vtime.Duration) Query {
	win := vtime.Second
	spec := dataflow.JobSpec{
		Name:    name,
		Latency: latency,
		Domain:  dataflow.EventTime,
		Sources: sc.Sources,
		Stages: []dataflow.StageSpec{
			{
				Name: "agg", Parallelism: 4, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum}),
				Cost:       lsCost,
			},
			{
				Name: "report", Parallelism: 1, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum, Global: true}),
				Cost:       lsCost,
			},
		},
	}
	return Query{Spec: spec, Feed: func(seed uint64) *Feed {
		return feedOf(sc, seed, sc.Sources, SourceConfig{
			Interval: vtime.Second,
			Rate:     ConstantRate(sc.TuplesPerMsg),
			Keys:     64,
			Delay:    50 * vtime.Millisecond,
			End:      sc.Horizon,
		})
	}}
}

// BAJob builds one Group-2 bulk-analytics job (paper §6: higher and
// variable input volume, 10 s aggregation windows, lax latency constraint).
// rate scales the ingestion volume relative to the LS jobs (Fig 8a sweeps
// it); schedule overrides the rate schedule when non-nil (Fig 9's Pareto).
func BAJob(name string, sc Scale, rate float64, schedule RateSchedule) Query {
	win := 10 * vtime.Second
	base := ConstantRate(int(float64(sc.TuplesPerMsg) * rate))
	var sched RateSchedule = base
	if schedule != nil {
		sched = schedule
	}
	spec := dataflow.JobSpec{
		Name:    name,
		Latency: 7200 * vtime.Second,
		Domain:  dataflow.EventTime,
		Sources: sc.Sources,
		Stages: []dataflow.StageSpec{
			{
				Name: "agg", Parallelism: 4, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum}),
				Cost:       baCost,
			},
			{
				Name: "rollup", Parallelism: 1, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum, Global: true}),
				Cost:       baCost,
			},
		},
	}
	return Query{Spec: spec, Feed: func(seed uint64) *Feed {
		return feedOf(sc, seed, sc.Sources, SourceConfig{
			Interval: vtime.Second,
			Rate:     sched,
			Keys:     256,
			Delay:    50 * vtime.Millisecond,
			End:      sc.Horizon,
		})
	}}
}
