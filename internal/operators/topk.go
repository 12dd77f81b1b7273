package operators

import (
	"cmp"
	"slices"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// TopKSpec configures a windowed top-k operator: per tumbling window, emit
// the k keys with the largest aggregated value (sum of tuple values).
// A classic dashboard operator ("top advertisers this second") that
// composes under Cameo exactly like the paper's aggregations.
type TopKSpec struct {
	// Size is the tumbling window length.
	Size vtime.Duration
	// K is how many top keys to emit per window.
	K int
}

// TopK returns a handler factory for the windowed top-k stage.
func TopK(spec TopKSpec) func(inChannels int) dataflow.Handler {
	if spec.Size <= 0 || spec.K <= 0 {
		panic("operators: TopK needs positive window size and k")
	}
	return func(int) dataflow.Handler {
		return &topK{spec: spec, windowState: newWindowState(spec.Size, spec.Size, false)}
	}
}

type topK struct {
	spec TopKSpec
	windowState
}

// OnMessage implements dataflow.Handler.
func (w *topK) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
	boundary, ok := w.ingest(ctx, m)
	if !ok {
		return nil
	}
	return w.emit(boundary, m.T, func(win *window) *dataflow.Batch { return w.result(ctx, win) })
}

func (w *topK) result(ctx *dataflow.Context, win *window) *dataflow.Batch {
	// Descending by sum; key ascending breaks ties deterministically. The
	// window is released after this emit, so its index need not follow.
	all := win.keys.entries
	slices.SortFunc(all, func(a, b keyAcc) int {
		if c := cmp.Compare(b.sum, a.sum); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	n := min(w.spec.K, len(all))
	b := ctx.NewBatch(n)
	for _, e := range all[:n] {
		b.Append(win.end-1, e.key, e.sum) // stamped just inside the window
	}
	return b
}

// DistinctCountSpec configures a windowed distinct-key counter: per
// tumbling window, emit one tuple whose value is the number of distinct
// keys observed.
type DistinctCountSpec struct {
	// Size is the tumbling window length.
	Size vtime.Duration
}

// DistinctCount returns a handler factory for the windowed distinct-count
// stage (exact counting via a per-window key set; the experiments' key
// cardinalities make sketches unnecessary).
func DistinctCount(spec DistinctCountSpec) func(inChannels int) dataflow.Handler {
	if spec.Size <= 0 {
		panic("operators: DistinctCount needs a positive window size")
	}
	return func(int) dataflow.Handler {
		return &distinctCount{newWindowState(spec.Size, spec.Size, false)}
	}
}

type distinctCount struct {
	windowState
}

// OnMessage implements dataflow.Handler.
func (w *distinctCount) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
	boundary, ok := w.ingest(ctx, m)
	if !ok {
		return nil
	}
	return w.emit(boundary, m.T, func(win *window) *dataflow.Batch {
		b := ctx.NewBatch(1)
		b.Append(win.end-1, 0, float64(len(win.keys.entries)))
		return b
	})
}
