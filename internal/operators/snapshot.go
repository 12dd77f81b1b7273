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
//   - State is serialized in sorted order (window ends ascending, then
//     tuple keys ascending), so the same handler state always yields the
//     same bytes.
//   - Only dynamic state is captured: open windows, the emitted watermark,
//     the late counter, and the per-channel frontier. Specs, spare
//     tables, free lists, and scratch buffers are reconstruction
//     artifacts — the spec comes back from the job spec's NewHandler,
//     spares and free lists refill as windows recycle.
//   - Each operator writes a one-byte kind tag so a snapshot applied to
//     the wrong handler type fails loudly instead of half-decoding.
//
// RestoreState is only ever invoked on a freshly constructed handler, so
// it builds state through the same paths OnMessage uses.

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

// snapshot writes the section the keyed window operators share: kind,
// emitted watermark, late count, frontier, then every open window (end,
// maxT, its keys ascending, and each key's accumulator when accs is set).
// Sorting reorders a window's entries in place, which nothing observes:
// snapshots run under the actor guarantee, like OnMessage.
func (s *windowState) snapshot(sw *snap.Writer, kind uint8, accs bool) {
	sw.U8(kind)
	sw.Time(s.emitted)
	sw.I64(s.late)
	writeFrontier(sw, s.frontier)
	sw.U32(uint32(len(s.wins)))
	for i := range s.wins {
		win := &s.wins[i]
		sw.Time(win.end)
		sw.Time(win.maxT)
		win.keys.sortByKey()
		sw.U32(uint32(len(win.keys.entries)))
		for _, e := range win.keys.entries {
			sw.I64(e.key)
			if accs {
				sw.F64(e.sum)
				sw.I64(e.count)
				sw.F64(e.min)
				sw.F64(e.max)
			}
		}
	}
}

// restore reads a section written by snapshot. Window ends that do not
// strictly ascend, or a key repeated inside one window, are a corrupt
// snapshot and fail the restore: either would otherwise merge state into
// a wrong result.
func (s *windowState) restore(r *snap.Reader, kind uint8, name string, accs bool) error {
	if err := checkKind(r, kind, name); err != nil {
		return err
	}
	s.emitted = r.Time()
	s.late = r.I64()
	if err := readFrontier(r, s.frontier); err != nil {
		return err
	}
	nw := int(r.U32())
	for i := 0; i < nw && r.Err() == nil; i++ {
		end := r.Time()
		if r.Err() != nil {
			break
		}
		if n := len(s.wins); n > 0 && end <= s.wins[n-1].end {
			return fmt.Errorf("operators: %s snapshot window end %v does not follow %v", name, end, s.wins[n-1].end)
		}
		win := s.windowAt(end)
		win.maxT = r.Time()
		nk := int(r.U32())
		for k := 0; k < nk && r.Err() == nil; k++ {
			key := r.I64()
			if r.Err() != nil {
				break
			}
			n := len(win.keys.entries)
			a := win.keys.get(key)
			if len(win.keys.entries) == n {
				return fmt.Errorf("operators: %s snapshot repeats key %d in window %v", name, key, end)
			}
			if accs {
				a.sum = r.F64()
				a.count = r.I64()
				a.min = r.F64()
				a.max = r.F64()
			}
		}
	}
	return r.Err()
}

// SnapshotState implements dataflow.Snapshotter.
func (w *windowAgg) SnapshotState(sw *snap.Writer) { w.snapshot(sw, snapKindAgg, true) }

// RestoreState implements dataflow.Snapshotter.
func (w *windowAgg) RestoreState(r *snap.Reader) error {
	return w.restore(r, snapKindAgg, "windowAgg", true)
}

// SnapshotState implements dataflow.Snapshotter.
func (w *topK) SnapshotState(sw *snap.Writer) { w.snapshot(sw, snapKindTopK, true) }

// RestoreState implements dataflow.Snapshotter.
func (w *topK) RestoreState(r *snap.Reader) error { return w.restore(r, snapKindTopK, "topK", true) }

// SnapshotState implements dataflow.Snapshotter.
func (w *distinctCount) SnapshotState(sw *snap.Writer) { w.snapshot(sw, snapKindDistinct, false) }

// RestoreState implements dataflow.Snapshotter.
func (w *distinctCount) RestoreState(r *snap.Reader) error {
	return w.restore(r, snapKindDistinct, "distinctCount", false)
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
