package operators

import (
	"sort"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/progress"
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
	return func(inChannels int) dataflow.Handler {
		return &windowJoin{
			spec:     spec,
			frontier: progress.NewFrontier(inChannels),
			wins:     make(map[vtime.Time]*joinWindow),
		}
	}
}

type joinWindow struct {
	sides [2]map[int64]float64
	maxT  vtime.Time
}

type windowJoin struct {
	spec     WindowJoinSpec
	frontier *progress.Frontier
	wins     map[vtime.Time]*joinWindow
	emitted  vtime.Time
	late     int64

	winFree []*joinWindow
	scratch emitScratch
	keys    []int64
}

// getWindow draws a cleared window from the free list.
func (w *windowJoin) getWindow() *joinWindow {
	if n := len(w.winFree); n > 0 {
		win := w.winFree[n-1]
		w.winFree[n-1] = nil
		w.winFree = w.winFree[:n-1]
		win.maxT = 0
		clear(win.sides[0])
		clear(win.sides[1])
		return win
	}
	win := &joinWindow{}
	win.sides[0] = make(map[int64]float64)
	win.sides[1] = make(map[int64]float64)
	return win
}

// LateTuples reports dropped late tuples.
func (w *windowJoin) LateTuples() int64 { return w.late }

// OnMessage implements dataflow.Handler.
func (w *windowJoin) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
	side := m.Port
	if side < 0 || side > 1 {
		side = 0
	}
	if b, _ := m.Payload.(*dataflow.Batch); b != nil {
		for i, p := range b.Times {
			end := (p/w.spec.Size + 1) * w.spec.Size
			if end <= w.emitted {
				w.late++
				continue
			}
			win := w.wins[end]
			if win == nil {
				win = w.getWindow()
				w.wins[end] = win
			}
			var key int64
			if b.Keys != nil {
				key = b.Keys[i]
			}
			var val float64
			if b.Vals != nil {
				val = b.Vals[i]
			}
			win.sides[side][key] += val
			if m.T > win.maxT {
				win.maxT = m.T
			}
		}
	}

	f, ok := w.frontier.Advance(m.Channel, m.P)
	if !ok {
		return nil
	}
	boundary := (f / w.spec.Size) * w.spec.Size
	if boundary <= w.emitted {
		return nil
	}

	ends := closedEnds(&w.scratch, w.wins, boundary)
	out := w.scratch.out[:0]
	for _, end := range ends {
		win := w.wins[end]
		delete(w.wins, end)
		b := w.result(ctx, end, win)
		out = append(out, dataflow.Emission{Batch: b, P: end, T: win.maxT})
		w.winFree = append(w.winFree, win)
	}
	if len(ends) == 0 || ends[len(ends)-1] < boundary {
		out = append(out, dataflow.Emission{Batch: nil, P: boundary, T: m.T})
	}
	w.emitted = boundary
	w.scratch.out = out
	return out
}

func (w *windowJoin) result(ctx *dataflow.Context, end vtime.Time, win *joinWindow) *dataflow.Batch {
	keys := w.keys[:0]
	for k := range win.sides[0] {
		if _, ok := win.sides[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.keys = keys
	if len(keys) == 0 {
		return nil // no matches: progress-only emission
	}
	b := ctx.NewBatch(len(keys))
	for _, k := range keys {
		// Stamped just inside the window; see windowAgg.result.
		b.Append(end-1, k, w.spec.Combine(win.sides[0][k], win.sides[1][k]))
	}
	return b
}

// emitScratch holds the emit-cycle buffers the join reuses across
// invocations: the sorted list of closed window ends and the
// emission slice handed back to the engine. Reuse is safe because handler
// instances are single-threaded (the actor guarantee) and the engine fully
// consumes an invocation's emissions before the next invocation — the same
// contract that lets the engine recycle batches (see dataflow.Context).
type emitScratch struct {
	ends []vtime.Time
	out  []dataflow.Emission
}

// closedEnds collects the ends <= boundary from wins into the reusable
// ends buffer, ascending.
func closedEnds[W any](s *emitScratch, wins map[vtime.Time]W, boundary vtime.Time) []vtime.Time {
	ends := s.ends[:0]
	for end := range wins {
		if end <= boundary {
			ends = append(ends, end)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	s.ends = ends
	return ends
}
