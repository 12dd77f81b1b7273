package operators

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// TestFrontierSnapshotCorrupt: every stateful operator round-trips its
// per-channel frontier byte for byte, and a snapshot whose frontier names
// a channel the handler does not have, or regresses a channel, fails the
// restore with an error instead of panicking or completing the frontier
// early.
func TestFrontierSnapshotCorrupt(t *testing.T) {
	const inChannels = 2
	handlers := []struct {
		name string
		kind uint8
		make func(int) dataflow.Handler
	}{
		{"windowAgg", snapKindAgg, WindowAgg(WindowAggSpec{Size: sec(1), Slide: sec(1), Agg: Sum})},
		{"windowJoin", snapKindJoin, WindowJoin(WindowJoinSpec{Size: sec(1)})},
		{"topK", snapKindTopK, TopK(TopKSpec{Size: sec(1), K: 2})},
		{"distinctCount", snapKindDistinct, DistinctCount(DistinctCountSpec{Size: sec(1)})},
	}
	// frontier writes a handler section up to and including its frontier.
	frontier := func(kind uint8, pairs ...[2]int64) []byte {
		w := snap.NewWriter()
		w.U8(kind)
		w.Time(0) // emitted
		w.I64(0)  // late
		w.U32(uint32(len(pairs)))
		for _, p := range pairs {
			w.I64(p[0])
			w.I64(p[1])
		}
		w.U32(0) // no open windows
		return w.Bytes()
	}
	for _, h := range handlers {
		t.Run(h.name, func(t *testing.T) {
			src := h.make(inChannels)
			src.OnMessage(testCtx, dataMsg(1, sec(3), sec(3), nil))
			w := snap.NewWriter()
			src.(dataflow.Snapshotter).SnapshotState(w)
			want := append([]byte(nil), w.Bytes()...)
			if !bytes.Equal(want, frontier(h.kind, [2]int64{1, int64(sec(3))})) {
				t.Fatal("frontier section is not (count, ascending (channel, progress) pairs)")
			}
			restored := h.make(inChannels)
			r, err := snap.NewReader(want)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.(dataflow.Snapshotter).RestoreState(r); err != nil {
				t.Fatalf("round trip: %v", err)
			}
			w.Reset()
			restored.(dataflow.Snapshotter).SnapshotState(w)
			if !bytes.Equal(w.Bytes(), want) {
				t.Fatal("restored handler snapshots different bytes")
			}

			for _, bad := range []struct {
				name  string
				pairs [][2]int64
			}{
				{"channel past the end", [][2]int64{{0, 5}, {inChannels, 5}}},
				{"negative channel", [][2]int64{{-1, 5}}},
				{"regressing channel", [][2]int64{{0, 5}, {0, 4}}},
			} {
				r, err := snap.NewReader(frontier(h.kind, bad.pairs...))
				if err != nil {
					t.Fatal(err)
				}
				fresh := h.make(inChannels)
				if err := fresh.(dataflow.Snapshotter).RestoreState(r); err == nil {
					t.Errorf("%s: restore accepted a corrupt frontier", bad.name)
				}
			}
		})
	}
}

// TestWindowSnapshotCorrupt: a keyed window operator's snapshot whose
// window ends do not strictly ascend, or that repeats a key inside one
// window, fails the restore with an error — a map would keep the last
// duplicate and merge a corrupt checkpoint into a wrong result. The same
// layout with ascending ends and distinct keys restores.
func TestWindowSnapshotCorrupt(t *testing.T) {
	const inChannels = 2
	handlers := []struct {
		name string
		kind uint8
		accs bool
		make func(int) dataflow.Handler
	}{
		{"windowAgg", snapKindAgg, true, WindowAgg(WindowAggSpec{Size: sec(1), Slide: sec(1), Agg: Sum})},
		{"topK", snapKindTopK, true, TopK(TopKSpec{Size: sec(1), K: 2})},
		{"distinctCount", snapKindDistinct, false, DistinctCount(DistinctCountSpec{Size: sec(1)})},
	}
	// windows writes a handler section with an empty frontier and one
	// window per entry of ends, holding keys[i].
	windows := func(kind uint8, accs bool, ends []int64, keys [][]int64) []byte {
		w := snap.NewWriter()
		w.U8(kind)
		w.Time(0) // emitted
		w.I64(0)  // late
		w.U32(0)  // frontier
		w.U32(uint32(len(ends)))
		for i, end := range ends {
			w.Time(sec(end))
			w.Time(0) // maxT
			w.U32(uint32(len(keys[i])))
			for _, k := range keys[i] {
				w.I64(k)
				if accs {
					w.F64(1)
					w.I64(1)
					w.F64(1)
					w.F64(1)
				}
			}
		}
		return w.Bytes()
	}
	for _, h := range handlers {
		t.Run(h.name, func(t *testing.T) {
			for _, c := range []struct {
				name string
				ends []int64
				keys [][]int64
				ok   bool
			}{
				{"ascending ends, distinct keys", []int64{1, 2}, [][]int64{{5, 6}, {5}}, true},
				{"descending ends", []int64{2, 1}, [][]int64{{5}, {5}}, false},
				{"repeated end", []int64{1, 1}, [][]int64{{5}, {6}}, false},
				{"key repeated in a window", []int64{1}, [][]int64{{5, 6, 5}}, false},
			} {
				r, err := snap.NewReader(windows(h.kind, h.accs, c.ends, c.keys))
				if err != nil {
					t.Fatal(err)
				}
				err = h.make(inChannels).(dataflow.Snapshotter).RestoreState(r)
				if c.ok && err != nil {
					t.Errorf("%s: restore failed: %v", c.name, err)
				}
				if !c.ok && err == nil {
					t.Errorf("%s: restore accepted a corrupt snapshot", c.name)
				}
			}
		})
	}
}

// snapshotScenario is the input behind testdata/*.snap: one batch spread
// over several windows with keys across the int64 range, frontier
// movement on two channels that emits the first windows, and a late
// tuple next to one far ahead.
func snapshotScenario(h dataflow.Handler) {
	ms := vtime.Millisecond
	keys := []int64{7, -3, 0, 1 << 40, 42, 7, -3, 19, 5, 0, 42, 11}
	b := dataflow.NewBatch(0)
	for i := 0; i < 36; i++ {
		b.Append(vtime.Time(i)*137*ms, keys[i%len(keys)]+int64(i/12), float64(i)*1.25-7)
	}
	h.OnMessage(testCtx, &core.Message{P: 900 * ms, T: 5 * ms, Channel: 0, Payload: b})
	h.OnMessage(testCtx, &core.Message{P: 1200 * ms, T: 9 * ms, Channel: 1})
	h.OnMessage(testCtx, &core.Message{P: 1300 * ms, T: 11 * ms, Channel: 0})
	late := dataflow.NewBatch(0)
	late.Append(100*ms, 3, 1)
	late.Append(4800*ms, 8, 2.5)
	h.OnMessage(testCtx, &core.Message{P: 1250 * ms, T: 13 * ms, Channel: 1, Payload: late})
}

// TestSnapshotCompat: the committed snapshots in testdata were written by
// the map-based operators (reference_test.go) from snapshotScenario.
// Checkpoints written before the flat window store must restore and
// re-snapshot to identical bytes, and the same scenario must still
// snapshot those bytes.
func TestSnapshotCompat(t *testing.T) {
	ms := vtime.Millisecond
	sliding := WindowAggSpec{Size: 2 * vtime.Second, Slide: 500 * ms, Agg: Sum}
	global := WindowAggSpec{Size: vtime.Second, Slide: vtime.Second, Agg: Mean, Global: true}
	topk := TopKSpec{Size: vtime.Second, K: 3}
	distinct := DistinctCountSpec{Size: vtime.Second}
	for _, c := range []struct {
		file     string
		got, ref func(int) dataflow.Handler
	}{
		{"windowagg_sliding_keyed.snap", WindowAgg(sliding), refWindowAggFactory(sliding)},
		{"windowagg_tumbling_global.snap", WindowAgg(global), refWindowAggFactory(global)},
		{"topk.snap", TopK(topk), refTopKFactory(topk)},
		{"distinctcount.snap", DistinctCount(distinct), refDistinctCountFactory(distinct)},
	} {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			snapshot := func(h interface{ SnapshotState(*snap.Writer) }) []byte {
				w := snap.NewWriter()
				h.SnapshotState(w)
				return w.Bytes()
			}
			ref := c.ref(2)
			snapshotScenario(ref)
			if !bytes.Equal(snapshot(ref.(interface{ SnapshotState(*snap.Writer) })), want) {
				t.Fatal("the reference no longer writes the committed snapshot")
			}
			r, err := snap.NewReader(want)
			if err != nil {
				t.Fatal(err)
			}
			restored := c.got(2)
			if err := restored.(dataflow.Snapshotter).RestoreState(r); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if !bytes.Equal(snapshot(restored.(dataflow.Snapshotter)), want) {
				t.Fatal("restored handler snapshots different bytes")
			}
			fed := c.got(2)
			snapshotScenario(fed)
			if !bytes.Equal(snapshot(fed.(dataflow.Snapshotter)), want) {
				t.Fatal("the scenario snapshots different bytes")
			}
		})
	}
}
