package operators

import (
	"sort"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// The map-based window operators the flat window store replaced, kept as
// the reference TestWindowStateMatchesMapReference compares against: open
// windows in a map keyed by end, per-key accumulators in a map per window
// (one per side for the join), closed ends collected and sorted on every
// emit, and the snapshot encoders that walk both maps in sorted order.

type refAggWindow struct {
	accs map[int64]*acc
	maxT vtime.Time
}

type refAggPool struct {
	winFree []*refAggWindow
	accFree []*acc
}

func (p *refAggPool) getWindow() *refAggWindow {
	if n := len(p.winFree); n > 0 {
		win := p.winFree[n-1]
		p.winFree[n-1] = nil
		p.winFree = p.winFree[:n-1]
		win.maxT = 0
		return win
	}
	return &refAggWindow{accs: make(map[int64]*acc)}
}

func (p *refAggPool) getAcc() *acc {
	if n := len(p.accFree); n > 0 {
		a := p.accFree[n-1]
		p.accFree[n-1] = nil
		p.accFree = p.accFree[:n-1]
		*a = acc{}
		return a
	}
	return &acc{}
}

func (p *refAggPool) putWindow(win *refAggWindow) {
	for k, a := range win.accs {
		p.accFree = append(p.accFree, a)
		delete(win.accs, k)
	}
	p.winFree = append(p.winFree, win)
}

func refClosedEnds[W any](s *[]vtime.Time, wins map[vtime.Time]W, boundary vtime.Time) []vtime.Time {
	ends := (*s)[:0]
	for end := range wins {
		if end <= boundary {
			ends = append(ends, end)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	*s = ends
	return ends
}

func refSortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func refWriteAccs(sw *snap.Writer, win *refAggWindow) {
	keys := refSortedKeys(win.accs)
	sw.U32(uint32(len(keys)))
	for _, k := range keys {
		a := win.accs[k]
		sw.I64(k)
		sw.F64(a.sum)
		sw.I64(a.count)
		sw.F64(a.min)
		sw.F64(a.max)
	}
}

func refWindowAggFactory(spec WindowAggSpec) func(int) dataflow.Handler {
	spec.validate()
	return func(inChannels int) dataflow.Handler {
		return &refWindowAgg{
			spec:     spec,
			frontier: progress.NewFrontier(inChannels),
			wins:     make(map[vtime.Time]*refAggWindow),
		}
	}
}

type refWindowAgg struct {
	spec     WindowAggSpec
	frontier *progress.Frontier
	wins     map[vtime.Time]*refAggWindow
	emitted  vtime.Time
	late     int64
	pool     refAggPool
	ends     []vtime.Time
}

func (w *refWindowAgg) LateTuples() int64 { return w.late }

func (w *refWindowAgg) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
	if b, _ := m.Payload.(*dataflow.Batch); b != nil {
		for i, p := range b.Times {
			var key int64
			if !w.spec.Global && b.Keys != nil {
				key = b.Keys[i]
			}
			var val float64
			if b.Vals != nil {
				val = b.Vals[i]
			}
			fresh := false
			first := (p/w.spec.Slide + 1) * w.spec.Slide
			for end := first; end <= p+w.spec.Size; end += w.spec.Slide {
				if end <= w.emitted {
					continue
				}
				fresh = true
				win := w.wins[end]
				if win == nil {
					win = w.pool.getWindow()
					w.wins[end] = win
				}
				a := win.accs[key]
				if a == nil {
					a = w.pool.getAcc()
					win.accs[key] = a
				}
				a.add(val)
				if m.T > win.maxT {
					win.maxT = m.T
				}
			}
			if !fresh {
				w.late++
			}
		}
	}
	f, ok := w.frontier.Advance(m.Channel, m.P)
	if !ok {
		return nil
	}
	boundary := (f / w.spec.Slide) * w.spec.Slide
	if boundary <= w.emitted {
		return nil
	}
	ends := refClosedEnds(&w.ends, w.wins, boundary)
	var out []dataflow.Emission
	for _, end := range ends {
		win := w.wins[end]
		delete(w.wins, end)
		keys := refSortedKeys(win.accs)
		b := ctx.NewBatch(len(keys))
		for _, k := range keys {
			b.Append(end-1, k, win.accs[k].result(w.spec.Agg))
		}
		out = append(out, dataflow.Emission{Batch: b, P: end, T: win.maxT})
		w.pool.putWindow(win)
	}
	if len(ends) == 0 || ends[len(ends)-1] < boundary {
		out = append(out, dataflow.Emission{Batch: nil, P: boundary, T: m.T})
	}
	w.emitted = boundary
	return out
}

func (w *refWindowAgg) SnapshotState(sw *snap.Writer) {
	sw.U8(snapKindAgg)
	sw.Time(w.emitted)
	sw.I64(w.late)
	w.frontier.Write(sw)
	ends := refClosedEnds(&w.ends, w.wins, vtime.Infinity)
	sw.U32(uint32(len(ends)))
	for _, end := range ends {
		win := w.wins[end]
		sw.Time(end)
		sw.Time(win.maxT)
		refWriteAccs(sw, win)
	}
}

func refTopKFactory(spec TopKSpec) func(int) dataflow.Handler {
	return func(inChannels int) dataflow.Handler {
		return &refTopK{
			spec:     spec,
			frontier: progress.NewFrontier(inChannels),
			wins:     make(map[vtime.Time]*refAggWindow),
		}
	}
}

type refTopK struct {
	spec     TopKSpec
	frontier *progress.Frontier
	wins     map[vtime.Time]*refAggWindow
	emitted  vtime.Time
	late     int64
	pool     refAggPool
	ends     []vtime.Time
}

func (w *refTopK) LateTuples() int64 { return w.late }

func (w *refTopK) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
	if b, _ := m.Payload.(*dataflow.Batch); b != nil {
		for i, p := range b.Times {
			end := (p/w.spec.Size + 1) * w.spec.Size
			if end <= w.emitted {
				w.late++
				continue
			}
			win := w.wins[end]
			if win == nil {
				win = w.pool.getWindow()
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
			a := win.accs[key]
			if a == nil {
				a = w.pool.getAcc()
				win.accs[key] = a
			}
			a.add(val)
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
	ends := refClosedEnds(&w.ends, w.wins, boundary)
	var out []dataflow.Emission
	for _, end := range ends {
		win := w.wins[end]
		delete(w.wins, end)
		var all []topkEntry
		for k, a := range win.accs {
			all = append(all, topkEntry{k, a.sum})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].sum != all[j].sum {
				return all[i].sum > all[j].sum
			}
			return all[i].key < all[j].key
		})
		n := w.spec.K
		if n > len(all) {
			n = len(all)
		}
		b := ctx.NewBatch(n)
		for _, e := range all[:n] {
			b.Append(end-1, e.key, e.sum)
		}
		out = append(out, dataflow.Emission{Batch: b, P: end, T: win.maxT})
		w.pool.putWindow(win)
	}
	if len(ends) == 0 || ends[len(ends)-1] < boundary {
		out = append(out, dataflow.Emission{Batch: nil, P: boundary, T: m.T})
	}
	w.emitted = boundary
	return out
}

type topkEntry struct {
	key int64
	sum float64
}

func (w *refTopK) SnapshotState(sw *snap.Writer) {
	sw.U8(snapKindTopK)
	sw.Time(w.emitted)
	sw.I64(w.late)
	w.frontier.Write(sw)
	ends := refClosedEnds(&w.ends, w.wins, vtime.Infinity)
	sw.U32(uint32(len(ends)))
	for _, end := range ends {
		win := w.wins[end]
		sw.Time(end)
		sw.Time(win.maxT)
		refWriteAccs(sw, win)
	}
}

func refDistinctCountFactory(spec DistinctCountSpec) func(int) dataflow.Handler {
	return func(inChannels int) dataflow.Handler {
		return &refDistinctCount{
			size:     spec.Size,
			frontier: progress.NewFrontier(inChannels),
			wins:     make(map[vtime.Time]*refDistinctWindow),
		}
	}
}

type refDistinctWindow struct {
	keys map[int64]struct{}
	maxT vtime.Time
}

type refDistinctCount struct {
	size     vtime.Duration
	frontier *progress.Frontier
	wins     map[vtime.Time]*refDistinctWindow
	emitted  vtime.Time
	late     int64
	ends     []vtime.Time
}

func (w *refDistinctCount) LateTuples() int64 { return w.late }

func (w *refDistinctCount) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
	if b, _ := m.Payload.(*dataflow.Batch); b != nil {
		for i, p := range b.Times {
			end := (p/w.size + 1) * w.size
			if end <= w.emitted {
				w.late++
				continue
			}
			win := w.wins[end]
			if win == nil {
				win = &refDistinctWindow{keys: make(map[int64]struct{})}
				w.wins[end] = win
			}
			var key int64
			if b.Keys != nil {
				key = b.Keys[i]
			}
			win.keys[key] = struct{}{}
			if m.T > win.maxT {
				win.maxT = m.T
			}
		}
	}
	f, ok := w.frontier.Advance(m.Channel, m.P)
	if !ok {
		return nil
	}
	boundary := (f / w.size) * w.size
	if boundary <= w.emitted {
		return nil
	}
	ends := refClosedEnds(&w.ends, w.wins, boundary)
	var out []dataflow.Emission
	for _, end := range ends {
		win := w.wins[end]
		delete(w.wins, end)
		b := ctx.NewBatch(1)
		b.Append(end-1, 0, float64(len(win.keys)))
		out = append(out, dataflow.Emission{Batch: b, P: end, T: win.maxT})
	}
	if len(ends) == 0 || ends[len(ends)-1] < boundary {
		out = append(out, dataflow.Emission{Batch: nil, P: boundary, T: m.T})
	}
	w.emitted = boundary
	return out
}

func (w *refDistinctCount) SnapshotState(sw *snap.Writer) {
	sw.U8(snapKindDistinct)
	sw.Time(w.emitted)
	sw.I64(w.late)
	w.frontier.Write(sw)
	ends := refClosedEnds(&w.ends, w.wins, vtime.Infinity)
	sw.U32(uint32(len(ends)))
	for _, end := range ends {
		win := w.wins[end]
		sw.Time(end)
		sw.Time(win.maxT)
		keys := refSortedKeys(win.keys)
		sw.U32(uint32(len(keys)))
		for _, k := range keys {
			sw.I64(k)
		}
	}
}

func refWindowJoinFactory(spec WindowJoinSpec) func(int) dataflow.Handler {
	if spec.Combine == nil {
		spec.Combine = func(l, r float64) float64 { return l + r }
	}
	return func(inChannels int) dataflow.Handler {
		return &refWindowJoin{
			spec:     spec,
			frontier: progress.NewFrontier(inChannels),
			wins:     make(map[vtime.Time]*refJoinWindow),
		}
	}
}

type refJoinWindow struct {
	sides [2]map[int64]float64
	maxT  vtime.Time
}

type refWindowJoin struct {
	spec     WindowJoinSpec
	frontier *progress.Frontier
	wins     map[vtime.Time]*refJoinWindow
	emitted  vtime.Time
	late     int64

	winFree []*refJoinWindow
	ends    []vtime.Time
	keys    []int64
}

func (w *refWindowJoin) getWindow() *refJoinWindow {
	if n := len(w.winFree); n > 0 {
		win := w.winFree[n-1]
		w.winFree[n-1] = nil
		w.winFree = w.winFree[:n-1]
		win.maxT = 0
		clear(win.sides[0])
		clear(win.sides[1])
		return win
	}
	win := &refJoinWindow{}
	win.sides[0] = make(map[int64]float64)
	win.sides[1] = make(map[int64]float64)
	return win
}

func (w *refWindowJoin) LateTuples() int64 { return w.late }

func (w *refWindowJoin) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
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
	ends := refClosedEnds(&w.ends, w.wins, boundary)
	var out []dataflow.Emission
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
	return out
}

func (w *refWindowJoin) result(ctx *dataflow.Context, end vtime.Time, win *refJoinWindow) *dataflow.Batch {
	keys := w.keys[:0]
	for k := range win.sides[0] {
		if _, ok := win.sides[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.keys = keys
	if len(keys) == 0 {
		return nil
	}
	b := ctx.NewBatch(len(keys))
	for _, k := range keys {
		b.Append(end-1, k, w.spec.Combine(win.sides[0][k], win.sides[1][k]))
	}
	return b
}

func (w *refWindowJoin) SnapshotState(sw *snap.Writer) {
	sw.U8(snapKindJoin)
	sw.Time(w.emitted)
	sw.I64(w.late)
	w.frontier.Write(sw)
	ends := refClosedEnds(&w.ends, w.wins, vtime.Infinity)
	sw.U32(uint32(len(ends)))
	for _, end := range ends {
		win := w.wins[end]
		sw.Time(end)
		sw.Time(win.maxT)
		for side := 0; side < 2; side++ {
			keys := refSortedKeys(win.sides[side])
			sw.U32(uint32(len(keys)))
			for _, k := range keys {
				sw.I64(k)
				sw.F64(win.sides[side][k])
			}
		}
	}
}
