package cameo

import (
	"fmt"
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// Agg selects the aggregation of a windowed stage.
type Agg = operators.AggKind

// Aggregations available to Aggregate stages.
const (
	Sum   = operators.Sum
	Count = operators.Count
	Max   = operators.Max
	Min   = operators.Min
	Mean  = operators.Mean
)

// WindowSpec describes a stage's time window.
type WindowSpec struct {
	Size, Slide time.Duration
}

// Window returns a tumbling window of the given size.
func Window(size time.Duration) WindowSpec {
	return WindowSpec{Size: size, Slide: size}
}

// SlidingWindow returns a window of the given size advancing by slide.
func SlidingWindow(size, slide time.Duration) WindowSpec {
	return WindowSpec{Size: size, Slide: slide}
}

// MapFunc transforms one tuple: it receives the tuple's logical time, key,
// and value, and returns the new key and value.
type MapFunc func(t time.Duration, key int64, value float64) (int64, float64)

// FilterFunc keeps tuples for which it returns true.
type FilterFunc func(t time.Duration, key int64, value float64) bool

// Query is a fluent builder for streaming jobs. Builders are not safe for
// concurrent use; build one query per goroutine.
type Query struct {
	spec dataflow.JobSpec
	err  error
}

// NewQuery starts a query named name with defaults: one source channel,
// ingestion-time semantics, and a 1-second latency target.
func NewQuery(name string) *Query {
	return &Query{spec: dataflow.JobSpec{
		Name:    name,
		Latency: vtime.Second,
		Sources: 1,
	}}
}

// LatencyTarget sets the job's end-to-end latency constraint L.
func (q *Query) LatencyTarget(d time.Duration) *Query {
	q.spec.Latency = vtime.FromStd(d)
	return q
}

// Sources sets the number of source channels feeding the first stage.
func (q *Query) Sources(n int) *Query {
	q.spec.Sources = n
	return q
}

// MaxPending caps this query's admitted batches not yet executed in the
// real-time engine, counted as Engine.Pending counts them; 0 (the
// default) means unlimited.
// When an IngestBatch would exceed the budget, the engine's admission
// layer refuses it with ErrJobOverloaded or sheds, per the engine's
// Overload policy — so one flooding query saturates its own budget
// instead of the whole engine.
func (q *Query) MaxPending(n int) *Query {
	q.spec.MaxPending = n
	return q
}

// SourcePorts splits the source channels into logical ports (2 for a
// two-stream join). Sources must divide evenly by ports.
func (q *Query) SourcePorts(n int) *Query {
	q.spec.SourcePorts = n
	return q
}

// EventTime declares that tuple logical times are event times (frontier
// times are then estimated by online regression, per the paper §4.3).
func (q *Query) EventTime() *Query {
	q.spec.Domain = dataflow.EventTime
	return q
}

// IngestionTime declares system-assigned logical times (the default).
func (q *Query) IngestionTime() *Query {
	q.spec.Domain = dataflow.IngestionTime
	return q
}

// Aggregate appends a keyed windowed aggregation stage with the given
// parallelism: one result tuple per key per window.
func (q *Query) Aggregate(name string, parallelism int, w WindowSpec, agg Agg) *Query {
	return q.aggregate(name, parallelism, w, agg, false)
}

// AggregateGlobal appends a windowed aggregation over all tuples of each
// window (single result tuple), typically the final rollup stage.
func (q *Query) AggregateGlobal(name string, w WindowSpec, agg Agg) *Query {
	return q.aggregate(name, 1, w, agg, true)
}

func (q *Query) aggregate(name string, parallelism int, w WindowSpec, agg Agg, global bool) *Query {
	if q.err != nil {
		return q
	}
	if w.Size <= 0 || w.Slide <= 0 {
		q.err = fmt.Errorf("cameo: stage %q: window size and slide must be positive", name)
		return q
	}
	q.spec.Stages = append(q.spec.Stages, dataflow.StageSpec{
		Name:        name,
		Parallelism: parallelism,
		Slide:       vtime.FromStd(w.Slide),
		NewHandler: operators.WindowAgg(operators.WindowAggSpec{
			Size:   vtime.FromStd(w.Size),
			Slide:  vtime.FromStd(w.Slide),
			Agg:    agg,
			Global: global,
		}),
		Cost: defaultCost,
	})
	return q
}

// Join appends a tumbling-window equi-join stage over the query's two
// source ports (declare SourcePorts(2) first). Matching keys' values are
// summed side-wise then combined by addition.
func (q *Query) Join(name string, parallelism int, window time.Duration) *Query {
	if q.err != nil {
		return q
	}
	if len(q.spec.Stages) > 0 {
		q.err = fmt.Errorf("cameo: stage %q: joins must be the first stage", name)
		return q
	}
	q.spec.Stages = append(q.spec.Stages, dataflow.StageSpec{
		Name:        name,
		Parallelism: parallelism,
		Slide:       vtime.FromStd(window),
		NewHandler: operators.WindowJoin(operators.WindowJoinSpec{
			Size: vtime.FromStd(window),
		}),
		Cost: defaultCost,
	})
	return q
}

// TopK appends a windowed top-k stage: per tumbling window, the k keys
// with the largest summed values (descending, ties by key).
func (q *Query) TopK(name string, parallelism int, window time.Duration, k int) *Query {
	if q.err != nil {
		return q
	}
	if window <= 0 || k <= 0 {
		q.err = fmt.Errorf("cameo: stage %q: TopK needs positive window and k", name)
		return q
	}
	q.spec.Stages = append(q.spec.Stages, dataflow.StageSpec{
		Name:        name,
		Parallelism: parallelism,
		Slide:       vtime.FromStd(window),
		NewHandler: operators.TopK(operators.TopKSpec{
			Size: vtime.FromStd(window),
			K:    k,
		}),
		Cost: defaultCost,
	})
	return q
}

// DistinctCount appends a windowed distinct-key counting stage: per
// tumbling window, one tuple whose value is the number of distinct keys.
func (q *Query) DistinctCount(name string, parallelism int, window time.Duration) *Query {
	if q.err != nil {
		return q
	}
	if window <= 0 {
		q.err = fmt.Errorf("cameo: stage %q: DistinctCount needs a positive window", name)
		return q
	}
	q.spec.Stages = append(q.spec.Stages, dataflow.StageSpec{
		Name:        name,
		Parallelism: parallelism,
		Slide:       vtime.FromStd(window),
		NewHandler: operators.DistinctCount(operators.DistinctCountSpec{
			Size: vtime.FromStd(window),
		}),
		Cost: defaultCost,
	})
	return q
}

// Map appends a stateless per-tuple transform stage.
func (q *Query) Map(name string, parallelism int, f MapFunc) *Query {
	if q.err != nil {
		return q
	}
	q.spec.Stages = append(q.spec.Stages, dataflow.StageSpec{
		Name:        name,
		Parallelism: parallelism,
		NewHandler: operators.Map(func(t vtime.Time, k int64, v float64) (int64, float64) {
			return f(vtime.Std(t), k, v)
		}),
		Cost: defaultCost,
	})
	return q
}

// Filter appends a stateless predicate stage.
func (q *Query) Filter(name string, parallelism int, f FilterFunc) *Query {
	if q.err != nil {
		return q
	}
	q.spec.Stages = append(q.spec.Stages, dataflow.StageSpec{
		Name:        name,
		Parallelism: parallelism,
		NewHandler: operators.Filter(func(t vtime.Time, k int64, v float64) bool {
			return f(vtime.Std(t), k, v)
		}),
		Cost: defaultCost,
	})
	return q
}

// Emit appends a regular pass-through sink stage that reports every
// non-empty batch as a job result (for queries without a windowed sink).
func (q *Query) Emit(name string) *Query {
	if q.err != nil {
		return q
	}
	q.spec.Stages = append(q.spec.Stages, dataflow.StageSpec{
		Name:        name,
		Parallelism: 1,
		NewHandler:  operators.Emit(),
		Cost:        defaultCost,
	})
	return q
}

// CostModel overrides the simulator's execution-cost model for the most
// recently added stage: cost = base + perTuple * batch size. The real-time
// engine ignores it (costs there are measured).
func (q *Query) CostModel(base, perTuple time.Duration) *Query {
	if q.err != nil {
		return q
	}
	if len(q.spec.Stages) == 0 {
		q.err = fmt.Errorf("cameo: CostModel before any stage")
		return q
	}
	q.spec.Stages[len(q.spec.Stages)-1].Cost = dataflow.CostModel{
		Base:     vtime.FromStd(base),
		PerTuple: vtime.FromStd(perTuple),
	}
	return q
}

// defaultCost is the simulator cost for stages that don't set one: a light
// aggregation-like operator.
var defaultCost = dataflow.CostModel{Base: 200 * vtime.Microsecond, PerTuple: 2 * vtime.Microsecond}

// Name returns the query's job name.
func (q *Query) Name() string { return q.spec.Name }

// Spec validates the built query and returns the underlying job spec.
// Most callers pass the Query directly to Engine.Submit or
// Simulation.Submit instead.
func (q *Query) Spec() (dataflow.JobSpec, error) {
	if q.err != nil {
		return dataflow.JobSpec{}, q.err
	}
	spec := q.spec // copy; validation fills defaults
	if err := spec.Validate(); err != nil {
		return dataflow.JobSpec{}, err
	}
	return spec, nil
}
