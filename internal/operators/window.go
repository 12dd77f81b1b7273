// Package operators implements the streaming operators the paper's
// evaluation queries are built from — "trill-lite": columnar tuple batches,
// window IDs derived from logical time (Li et al.'s semantics, which the
// paper's TRANSFORM is defined against), frontier-triggered windowed
// operators (aggregation, top-k, distinct count and a two-stream join, all
// over one window store and one snapshot encoding), and the stateless
// map, filter and emit operators (map and filter share one per-tuple
// loop). There is no no-op operator: tests that need one use
// testkit.NopHandler.
//
// Handlers are per-operator-instance state machines; the engine guarantees
// single-threaded invocation per instance (the actor model), so handlers
// need no internal locking.
package operators

import (
	"fmt"
	"slices"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// AggKind selects the aggregation of a windowed aggregate.
type AggKind int

// Supported aggregations.
const (
	Sum AggKind = iota
	Count
	Max
	Min
	Mean
)

// String names the aggregation.
func (k AggKind) String() string {
	switch k {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Max:
		return "max"
	case Min:
		return "min"
	case Mean:
		return "mean"
	}
	return fmt.Sprintf("agg(%d)", int(k))
}

type acc struct {
	sum      float64
	count    int64
	min, max float64
}

func (a *acc) add(v float64) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	a.sum += v
	a.count++
}

func (a *acc) result(k AggKind) float64 {
	switch k {
	case Sum:
		return a.sum
	case Count:
		return float64(a.count)
	case Max:
		return a.max
	case Min:
		return a.min
	case Mean:
		if a.count == 0 {
			return 0
		}
		return a.sum / float64(a.count)
	}
	return 0
}

// WindowAggSpec configures a windowed aggregation stage.
type WindowAggSpec struct {
	// Size is the window length; Slide the trigger step. Slide == Size is a
	// tumbling window; Slide < Size a sliding window. Slide must divide
	// evenly into window boundaries (both positive).
	Size, Slide vtime.Duration
	// Agg is the aggregation applied per key (or globally).
	Agg AggKind
	// Global aggregates all tuples of a window into a single result tuple
	// (key 0) instead of one result per key.
	Global bool
}

func (s WindowAggSpec) validate() {
	if s.Size <= 0 || s.Slide <= 0 {
		panic("operators: window size and slide must be positive")
	}
	if s.Slide > s.Size {
		panic("operators: slide larger than window size")
	}
}

// WindowAgg returns a handler factory for a windowed aggregation operator.
// The factory signature matches dataflow.StageSpec.NewHandler.
func WindowAgg(spec WindowAggSpec) func(inChannels int) dataflow.Handler {
	spec.validate()
	return func(int) dataflow.Handler {
		return &windowAgg{spec: spec, windowState: newWindowState(spec.Size, spec.Slide, spec.Global)}
	}
}

type windowAgg struct {
	spec WindowAggSpec
	windowState
}

// OnMessage implements dataflow.Handler.
func (w *windowAgg) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
	boundary, ok := w.ingest(ctx, m)
	if !ok {
		return nil
	}
	return w.emit(boundary, m.T, func(win *window) *dataflow.Batch { return w.result(ctx, win) })
}

func (w *windowAgg) result(ctx *dataflow.Context, win *window) *dataflow.Batch {
	// The window is released after this emit, so its index need not
	// follow the sort.
	keys := win.keys.entries
	slices.SortFunc(keys, byKey)
	b := ctx.NewBatch(len(keys))
	for i := range keys {
		// Result tuples are stamped just inside the window (end-1) so a
		// downstream windowed stage with the same boundaries aggregates
		// them in the *same* window — otherwise every stage would add a
		// full window of latency. The message progress stays at `end`
		// (the paper: the resultant message's logical time is p_MF).
		b.Append(win.end-1, keys[i].key, keys[i].result(w.spec.Agg))
	}
	return b
}
