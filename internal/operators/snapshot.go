package operators

import (
	"fmt"
	"sort"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// This file implements dataflow.Snapshotter for the stateful operators:
// windowed aggregation, windowed join, top-k, and distinct count. The
// encoding rules that keep snapshots deterministic and restartable:
//
//   - Maps are serialized in sorted key order (window ends ascending, then
//     tuple keys ascending), so the same handler state always yields the
//     same bytes.
//   - Only dynamic state is captured: open windows, the emitted watermark,
//     the late counter, and the per-channel frontier. Specs, pools, free
//     lists, and scratch buffers are reconstruction artifacts — the spec
//     comes back from the job spec's NewHandler, pools refill as windows
//     recycle.
//   - Each operator writes a one-byte kind tag so a snapshot applied to
//     the wrong handler type fails loudly instead of half-decoding.
//
// RestoreState is only ever invoked on a freshly constructed handler, so
// it builds state through the same pool/free-list paths OnMessage uses.

// The four stateful operators satisfy the snapshot half of the operator
// contract; stateless handlers (HandlerFunc closures) deliberately don't.
var (
	_ dataflow.Snapshotter = (*windowAgg)(nil)
	_ dataflow.Snapshotter = (*windowJoin)(nil)
	_ dataflow.Snapshotter = (*topK)(nil)
	_ dataflow.Snapshotter = (*distinctCount)(nil)
)

// Kind tags pinning the per-operator section layouts.
const (
	snapKindAgg      = 'A'
	snapKindJoin     = 'J'
	snapKindTopK     = 'K'
	snapKindDistinct = 'D'
)

func writeFrontier(w *snap.Writer, f *progress.Frontier) {
	w.U32(uint32(f.Len()))
	f.Snapshot(func(ch int, p vtime.Time) {
		w.I64(int64(ch))
		w.Time(p)
	})
}

// readFrontier restores a frontier written by writeFrontier. A channel the
// handler does not have, or a regressing pair, is a corrupt snapshot and
// fails the restore.
func readFrontier(r *snap.Reader, f *progress.Frontier) error {
	n := int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		ch := int(r.I64())
		p := r.Time()
		if r.Err() != nil {
			break
		}
		if err := f.Restore(ch, p); err != nil {
			return err
		}
	}
	return r.Err()
}

func checkKind(r *snap.Reader, want uint8, name string) error {
	if got := r.U8(); r.Err() == nil && got != want {
		return fmt.Errorf("operators: snapshot kind %q, handler is %s (%q)", got, name, want)
	}
	return r.Err()
}

// sortedTimes collects map keys ascending into the reusable buffer.
func sortedTimes[W any](buf []vtime.Time, m map[vtime.Time]W) []vtime.Time {
	buf = buf[:0]
	for t := range m {
		buf = append(buf, t)
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf
}

func sortedKeys[V any](buf []int64, m map[int64]V) []int64 {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, k)
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf
}

// SnapshotState implements dataflow.Snapshotter.
func (w *windowAgg) SnapshotState(sw *snap.Writer) {
	sw.U8(snapKindAgg)
	sw.Time(w.emitted)
	sw.I64(w.late)
	writeFrontier(sw, w.frontier)
	ends := sortedTimes(w.scratch.ends, w.wins)
	w.scratch.ends = ends
	sw.U32(uint32(len(ends)))
	for _, end := range ends {
		win := w.wins[end]
		sw.Time(end)
		sw.Time(win.maxT)
		keys := sortedKeys(w.keys, win.accs)
		w.keys = keys
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
}

// RestoreState implements dataflow.Snapshotter.
func (w *windowAgg) RestoreState(r *snap.Reader) error {
	if err := checkKind(r, snapKindAgg, "windowAgg"); err != nil {
		return err
	}
	w.emitted = r.Time()
	w.late = r.I64()
	if err := readFrontier(r, w.frontier); err != nil {
		return err
	}
	nw := int(r.U32())
	for i := 0; i < nw && r.Err() == nil; i++ {
		end := r.Time()
		win := w.pool.getWindow()
		win.maxT = r.Time()
		w.wins[end] = win
		na := int(r.U32())
		for k := 0; k < na && r.Err() == nil; k++ {
			key := r.I64()
			a := w.pool.getAcc()
			a.sum = r.F64()
			a.count = r.I64()
			a.min = r.F64()
			a.max = r.F64()
			win.accs[key] = a
		}
	}
	return r.Err()
}

// SnapshotState implements dataflow.Snapshotter.
func (w *windowJoin) SnapshotState(sw *snap.Writer) {
	sw.U8(snapKindJoin)
	sw.Time(w.emitted)
	sw.I64(w.late)
	writeFrontier(sw, w.frontier)
	ends := sortedTimes(w.scratch.ends, w.wins)
	w.scratch.ends = ends
	sw.U32(uint32(len(ends)))
	for _, end := range ends {
		win := w.wins[end]
		sw.Time(end)
		sw.Time(win.maxT)
		for side := 0; side < 2; side++ {
			keys := sortedKeys(w.keys, win.sides[side])
			w.keys = keys
			sw.U32(uint32(len(keys)))
			for _, k := range keys {
				sw.I64(k)
				sw.F64(win.sides[side][k])
			}
		}
	}
}

// RestoreState implements dataflow.Snapshotter.
func (w *windowJoin) RestoreState(r *snap.Reader) error {
	if err := checkKind(r, snapKindJoin, "windowJoin"); err != nil {
		return err
	}
	w.emitted = r.Time()
	w.late = r.I64()
	if err := readFrontier(r, w.frontier); err != nil {
		return err
	}
	nw := int(r.U32())
	for i := 0; i < nw && r.Err() == nil; i++ {
		end := r.Time()
		win := w.getWindow()
		win.maxT = r.Time()
		w.wins[end] = win
		for side := 0; side < 2; side++ {
			nk := int(r.U32())
			for k := 0; k < nk && r.Err() == nil; k++ {
				key := r.I64()
				win.sides[side][key] = r.F64()
			}
		}
	}
	return r.Err()
}

// SnapshotState implements dataflow.Snapshotter.
func (w *topK) SnapshotState(sw *snap.Writer) {
	sw.U8(snapKindTopK)
	sw.Time(w.emitted)
	sw.I64(w.late)
	writeFrontier(sw, w.frontier)
	ends := sortedTimes(w.scratch.ends, w.wins)
	w.scratch.ends = ends
	sw.U32(uint32(len(ends)))
	for _, end := range ends {
		win := w.wins[end]
		sw.Time(end)
		sw.Time(win.maxT)
		keys := make([]int64, 0, len(win.accs))
		keys = sortedKeys(keys, win.accs)
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
}

// RestoreState implements dataflow.Snapshotter.
func (w *topK) RestoreState(r *snap.Reader) error {
	if err := checkKind(r, snapKindTopK, "topK"); err != nil {
		return err
	}
	w.emitted = r.Time()
	w.late = r.I64()
	if err := readFrontier(r, w.frontier); err != nil {
		return err
	}
	nw := int(r.U32())
	for i := 0; i < nw && r.Err() == nil; i++ {
		end := r.Time()
		win := w.pool.getWindow()
		win.maxT = r.Time()
		w.wins[end] = win
		na := int(r.U32())
		for k := 0; k < na && r.Err() == nil; k++ {
			key := r.I64()
			a := w.pool.getAcc()
			a.sum = r.F64()
			a.count = r.I64()
			a.min = r.F64()
			a.max = r.F64()
			win.accs[key] = a
		}
	}
	return r.Err()
}

// SnapshotState implements dataflow.Snapshotter.
func (w *distinctCount) SnapshotState(sw *snap.Writer) {
	sw.U8(snapKindDistinct)
	sw.Time(w.emitted)
	sw.I64(w.late)
	writeFrontier(sw, w.frontier)
	ends := sortedTimes(w.scratch.ends, w.wins)
	w.scratch.ends = ends
	sw.U32(uint32(len(ends)))
	for _, end := range ends {
		win := w.wins[end]
		sw.Time(end)
		sw.Time(win.maxT)
		keys := make([]int64, 0, len(win.keys))
		keys = sortedKeys(keys, win.keys)
		sw.U32(uint32(len(keys)))
		for _, k := range keys {
			sw.I64(k)
		}
	}
}

// RestoreState implements dataflow.Snapshotter.
func (w *distinctCount) RestoreState(r *snap.Reader) error {
	if err := checkKind(r, snapKindDistinct, "distinctCount"); err != nil {
		return err
	}
	w.emitted = r.Time()
	w.late = r.I64()
	if err := readFrontier(r, w.frontier); err != nil {
		return err
	}
	nw := int(r.U32())
	for i := 0; i < nw && r.Err() == nil; i++ {
		end := r.Time()
		win := w.getWindow()
		win.maxT = r.Time()
		w.wins[end] = win
		nk := int(r.U32())
		for k := 0; k < nk && r.Err() == nil; k++ {
			win.keys[r.I64()] = struct{}{}
		}
	}
	return r.Err()
}
