package operators

import (
	"slices"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// WindowJoinSpec configures a tumbling-window equi-join of two streams
// (message Port 0 = left, Port 1 = right), the shape of the paper's IPQ4
// ("a windowed join of two event streams, followed by aggregation").
type WindowJoinSpec struct {
	// Size is the tumbling window length.
	Size vtime.Duration
	// Combine merges the per-key left and right aggregates into the output
	// value; nil defaults to addition.
	Combine func(left, right float64) float64
}

// WindowJoin returns a handler factory for the join stage. Within each
// window, tuples are pre-aggregated (summed) per key and side; on window
// completion one output tuple is emitted per key present on *both* sides.
func WindowJoin(spec WindowJoinSpec) func(inChannels int) dataflow.Handler {
	if spec.Size <= 0 {
		panic("operators: join window size must be positive")
	}
	if spec.Combine == nil {
		spec.Combine = func(l, r float64) float64 { return l + r }
	}
	return func(int) dataflow.Handler {
		w := &windowJoin{spec: spec, windowState: newWindowState(spec.Size, spec.Size, false)}
		w.join = true
		return w
	}
}

type windowJoin struct {
	spec WindowJoinSpec
	windowState
}

// OnMessage implements dataflow.Handler.
func (w *windowJoin) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
	boundary, ok := w.ingest(ctx, m)
	if !ok {
		return nil
	}
	return w.emit(boundary, m.T, func(win *window) *dataflow.Batch { return w.result(ctx, win) })
}

// result merges the window's two sides in key order. A window with no key
// on both sides yields nil: a progress-only emission. The window is
// released after this emit, so its indexes need not follow the sorts.
func (w *windowJoin) result(ctx *dataflow.Context, win *window) *dataflow.Batch {
	left, right := win.keys.entries, win.right.entries
	slices.SortFunc(left, byKey)
	slices.SortFunc(right, byKey)
	var b *dataflow.Batch
	for i, j := 0, 0; i < len(left) && j < len(right); {
		switch l, r := &left[i], &right[j]; {
		case l.key < r.key:
			i++
		case l.key > r.key:
			j++
		default:
			if b == nil {
				b = ctx.NewBatch(min(len(left)-i, len(right)-j))
			}
			// Stamped just inside the window; see windowAgg.result.
			b.Append(win.end-1, l.key, w.spec.Combine(l.sum, r.sum))
			i++
			j++
		}
	}
	return b
}
