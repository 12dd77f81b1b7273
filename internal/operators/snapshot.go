package operators

import (
	"fmt"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/snap"
)

// This file implements dataflow.Snapshotter for the stateful operators:
// windowed aggregation, windowed join, top-k, and distinct count. The
// encoding rules that keep snapshots deterministic and restartable:
//
//   - State is serialized in sorted order (window ends ascending, then
//     tuple keys ascending), so the same handler state always yields the
//     same bytes.
//   - Only dynamic state is captured: open windows, the emitted watermark,
//     the late counter, and the operator's per-channel frontier (handed
//     in by the dataflow layer, which owns it). Specs, spare
//     tables, and scratch buffers are reconstruction artifacts — the
//     spec comes back from the job spec's NewHandler, spares refill as
//     windows close.
//   - Each operator writes a one-byte kind tag so a snapshot applied to
//     the wrong handler type fails loudly instead of half-decoding.
//
// The four operators share one window store (state.go) and so one
// snapshot/restore pair, told per operator which accumulator fields a key
// carries. RestoreState is only ever invoked on a freshly constructed
// handler, so it builds state through the same paths OnMessage uses.

// The four stateful operators satisfy the snapshot half of the operator
// contract; stateless handlers (HandlerFunc closures) deliberately don't:
// their one piece of state, the frontier, is the operator's.
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

func checkKind(r *snap.Reader, want uint8, name string) error {
	if got := r.U8(); r.Err() == nil && got != want {
		return fmt.Errorf("operators: snapshot kind %q, handler is %s (%q)", got, name, want)
	}
	return r.Err()
}

// accFields names the accumulator fields a snapshot carries per key.
type accFields uint8

const (
	noAcc  accFields = iota // distinctCount: the keys alone
	sumAcc                  // windowJoin: each side's sum
	allAcc                  // windowAgg, topK: sum, count, min, max
)

// snapshot writes the section every windowed operator shares: kind,
// emitted watermark, late count, the operator's frontier f, then every
// open window (end, maxT, and its keys table — a join's right table after
// it). Sorting reorders a window's entries in place, which nothing
// observes: snapshots run under the actor guarantee, like OnMessage.
func (s *windowState) snapshot(sw *snap.Writer, f *progress.Frontier, kind uint8, fields accFields) {
	sw.U8(kind)
	sw.Time(s.emitted)
	sw.I64(s.late)
	f.Write(sw)
	sw.U32(uint32(len(s.wins)))
	for i := range s.wins {
		win := &s.wins[i]
		sw.Time(win.end)
		sw.Time(win.maxT)
		win.keys.write(sw, fields)
		if s.join {
			win.right.write(sw, fields)
		}
	}
}

// write writes the table's keys ascending, each with its fields.
func (t *keyTable) write(sw *snap.Writer, fields accFields) {
	t.sortByKey()
	sw.U32(uint32(len(t.entries)))
	for _, e := range t.entries {
		sw.I64(e.key)
		if fields >= sumAcc {
			sw.F64(e.sum)
		}
		if fields == allAcc {
			sw.I64(e.count)
			sw.F64(e.min)
			sw.F64(e.max)
		}
	}
}

// restore reads a section written by snapshot, its frontier into f.
// Window ends that do not strictly ascend, or a key repeated inside one
// table, are a corrupt snapshot and fail the restore: either would
// otherwise merge state into a wrong result. The same key once on each
// side of a join is not a repeat.
func (s *windowState) restore(r *snap.Reader, f *progress.Frontier, kind uint8, name string, fields accFields) error {
	if err := checkKind(r, kind, name); err != nil {
		return err
	}
	s.emitted = r.Time()
	s.late = r.I64()
	if err := f.Read(r); err != nil {
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
		key, repeated := win.keys.read(r, fields)
		if !repeated && s.join {
			key, repeated = win.right.read(r, fields)
		}
		if repeated {
			return fmt.Errorf("operators: %s snapshot repeats key %d in window %v", name, key, end)
		}
	}
	return r.Err()
}

// read fills the empty table from a list written by write, stopping at
// the first key it already holds, which it reports.
func (t *keyTable) read(r *snap.Reader, fields accFields) (key int64, repeated bool) {
	n := int(r.U32())
	for k := 0; k < n && r.Err() == nil; k++ {
		key = r.I64()
		if r.Err() != nil {
			break
		}
		had := len(t.entries)
		a := t.get(key)
		if len(t.entries) == had {
			return key, true
		}
		if fields >= sumAcc {
			a.sum = r.F64()
		}
		if fields == allAcc {
			a.count = r.I64()
			a.min = r.F64()
			a.max = r.F64()
		}
	}
	return 0, false
}

// SnapshotState implements dataflow.Snapshotter.
func (w *windowAgg) SnapshotState(sw *snap.Writer, f *progress.Frontier) {
	w.snapshot(sw, f, snapKindAgg, allAcc)
}

// RestoreState implements dataflow.Snapshotter.
func (w *windowAgg) RestoreState(r *snap.Reader, f *progress.Frontier) error {
	return w.restore(r, f, snapKindAgg, "windowAgg", allAcc)
}

// SnapshotState implements dataflow.Snapshotter.
func (w *topK) SnapshotState(sw *snap.Writer, f *progress.Frontier) {
	w.snapshot(sw, f, snapKindTopK, allAcc)
}

// RestoreState implements dataflow.Snapshotter.
func (w *topK) RestoreState(r *snap.Reader, f *progress.Frontier) error {
	return w.restore(r, f, snapKindTopK, "topK", allAcc)
}

// SnapshotState implements dataflow.Snapshotter.
func (w *distinctCount) SnapshotState(sw *snap.Writer, f *progress.Frontier) {
	w.snapshot(sw, f, snapKindDistinct, noAcc)
}

// RestoreState implements dataflow.Snapshotter.
func (w *distinctCount) RestoreState(r *snap.Reader, f *progress.Frontier) error {
	return w.restore(r, f, snapKindDistinct, "distinctCount", noAcc)
}

// SnapshotState implements dataflow.Snapshotter.
func (w *windowJoin) SnapshotState(sw *snap.Writer, f *progress.Frontier) {
	w.snapshot(sw, f, snapKindJoin, sumAcc)
}

// RestoreState implements dataflow.Snapshotter.
func (w *windowJoin) RestoreState(r *snap.Reader, f *progress.Frontier) error {
	return w.restore(r, f, snapKindJoin, "windowJoin", sumAcc)
}
