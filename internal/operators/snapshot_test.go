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
			src := instance(h.make, inChannels)
			on(src, dataMsg(1, sec(3), sec(3), nil))
			want := snapshotOf(src)
			if !bytes.Equal(want, frontier(h.kind, [2]int64{1, int64(sec(3))})) {
				t.Fatal("frontier section is not (count, ascending (channel, progress) pairs)")
			}
			restored := instance(h.make, inChannels)
			if err := restore(restored, want); err != nil {
				t.Fatalf("round trip: %v", err)
			}
			if !bytes.Equal(snapshotOf(restored), want) {
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
				fresh := instance(h.make, inChannels)
				if err := restore(fresh, frontier(h.kind, bad.pairs...)); err == nil {
					t.Errorf("%s: restore accepted a corrupt frontier", bad.name)
				}
			}
		})
	}
}

// TestWindowSnapshotCorrupt: a windowed operator's snapshot whose window
// ends do not strictly ascend, or that repeats a key inside one window
// (inside one side, for the join), fails the restore with an error — a map
// would keep the last duplicate and merge a corrupt checkpoint into a
// wrong result. The same layout with ascending ends and distinct keys
// restores to the same bytes, and so does a join window holding a key
// once on each side.
func TestWindowSnapshotCorrupt(t *testing.T) {
	const inChannels = 2
	handlers := []struct {
		name   string
		kind   uint8
		fields accFields
		make   func(int) dataflow.Handler
	}{
		{"windowAgg", snapKindAgg, allAcc, WindowAgg(WindowAggSpec{Size: sec(1), Slide: sec(1), Agg: Sum})},
		{"topK", snapKindTopK, allAcc, TopK(TopKSpec{Size: sec(1), K: 2})},
		{"distinctCount", snapKindDistinct, noAcc, DistinctCount(DistinctCountSpec{Size: sec(1)})},
		{"windowJoin", snapKindJoin, sumAcc, WindowJoin(WindowJoinSpec{Size: sec(1)})},
	}
	// windows writes a handler section with an empty frontier and one
	// window per entry of ends, holding keys[i] (and, for the join,
	// right[i] on the right side, if right is given).
	windows := func(kind uint8, fields accFields, ends []int64, keys, right [][]int64) []byte {
		w := snap.NewWriter()
		table := func(keys []int64) {
			w.U32(uint32(len(keys)))
			for _, k := range keys {
				w.I64(k)
				if fields >= sumAcc {
					w.F64(1)
				}
				if fields == allAcc {
					w.I64(1)
					w.F64(1)
					w.F64(1)
				}
			}
		}
		w.U8(kind)
		w.Time(0) // emitted
		w.I64(0)  // late
		w.U32(0)  // frontier
		w.U32(uint32(len(ends)))
		for i, end := range ends {
			w.Time(sec(end))
			w.Time(0) // maxT
			table(keys[i])
			if kind == snapKindJoin {
				var r []int64
				if right != nil {
					r = right[i]
				}
				table(r)
			}
		}
		return w.Bytes()
	}
	for _, h := range handlers {
		t.Run(h.name, func(t *testing.T) {
			type tc struct {
				name        string
				ends        []int64
				keys, right [][]int64
				ok          bool
			}
			cases := []tc{
				{"ascending ends, distinct keys", []int64{1, 2}, [][]int64{{5, 6}, {5}}, nil, true},
				{"descending ends", []int64{2, 1}, [][]int64{{5}, {5}}, nil, false},
				{"repeated end", []int64{1, 1}, [][]int64{{5}, {6}}, nil, false},
				{"key repeated in a window", []int64{1}, [][]int64{{5, 6, 5}}, nil, false},
			}
			if h.kind == snapKindJoin {
				cases = append(cases,
					tc{"same key once on each side", []int64{1, 2}, [][]int64{{5, 6}, {5}}, [][]int64{{5, 6}, {5, 7}}, true},
					tc{"key repeated in the right side", []int64{1, 2}, [][]int64{{5}, {5}}, [][]int64{{5}, {7, 6, 7}}, false})
			}
			for _, c := range cases {
				in := windows(h.kind, h.fields, c.ends, c.keys, c.right)
				restored := instance(h.make, inChannels)
				err := restore(restored, in)
				switch {
				case c.ok && err != nil:
					t.Errorf("%s: restore failed: %v", c.name, err)
				case !c.ok && err == nil:
					t.Errorf("%s: restore accepted a corrupt snapshot", c.name)
				case c.ok:
					if !bytes.Equal(snapshotOf(restored), in) {
						t.Errorf("%s: restored handler snapshots different bytes", c.name)
					}
				}
			}
		})
	}
}

var snapshotKeys = []int64{7, -3, 0, 1 << 40, 42, 7, -3, 19, 5, 0, 42, 11}

// snapshotScenario is the input behind testdata/*.snap: one batch spread
// over several windows with keys across the int64 range, frontier
// movement on two channels that emits the first windows, and a late
// tuple next to one far ahead.
func snapshotScenario(h *dataflow.Operator) {
	ms := vtime.Millisecond
	b := dataflow.NewBatch(0)
	for i := 0; i < 36; i++ {
		b.Append(vtime.Time(i)*137*ms, snapshotKeys[i%len(snapshotKeys)]+int64(i/12), float64(i)*1.25-7)
	}
	on(h, &core.Message{P: 900 * ms, T: 5 * ms, Channel: 0, Payload: b})
	on(h, &core.Message{P: 1200 * ms, T: 9 * ms, Channel: 1})
	on(h, &core.Message{P: 1300 * ms, T: 11 * ms, Channel: 0})
	late := dataflow.NewBatch(0)
	late.Append(100*ms, 3, 1)
	late.Append(4800*ms, 8, 2.5)
	on(h, &core.Message{P: 1250 * ms, T: 13 * ms, Channel: 1, Payload: late})
}

// joinSnapshotScenario is the input behind testdata/windowjoin.snap: a
// right-side (Port 1) batch holding half of snapshotScenario's keys, each
// 50 ms after its left twin, plus one key only the right side has, then
// snapshotScenario's messages on the left side.
func joinSnapshotScenario(h *dataflow.Operator) {
	ms := vtime.Millisecond
	right := dataflow.NewBatch(0)
	for i := 0; i < 36; i += 2 {
		right.Append(vtime.Time(i)*137*ms+50*ms, snapshotKeys[i%len(snapshotKeys)]+int64(i/12), float64(i)*0.5+1)
	}
	right.Append(2500*ms, -99, 4)
	on(h, &core.Message{P: 600 * ms, T: 3 * ms, Channel: 1, Port: 1, Payload: right})
	snapshotScenario(h)
}

// TestSnapshotCompat: the committed snapshots in testdata were written by
// the map-based operators (reference_test.go) from snapshotScenario, the
// join's from joinSnapshotScenario.
// Checkpoints written before the flat window store must restore and
// re-snapshot to identical bytes, and the same scenario must still
// snapshot those bytes.
func TestSnapshotCompat(t *testing.T) {
	ms := vtime.Millisecond
	sliding := WindowAggSpec{Size: 2 * vtime.Second, Slide: 500 * ms, Agg: Sum}
	global := WindowAggSpec{Size: vtime.Second, Slide: vtime.Second, Agg: Mean, Global: true}
	topk := TopKSpec{Size: vtime.Second, K: 3}
	distinct := DistinctCountSpec{Size: vtime.Second}
	join := WindowJoinSpec{Size: vtime.Second}
	for _, c := range []struct {
		file     string
		got, ref func(int) dataflow.Handler
		scenario func(*dataflow.Operator)
	}{
		{"windowagg_sliding_keyed.snap", WindowAgg(sliding), refWindowAggFactory(sliding), snapshotScenario},
		{"windowagg_tumbling_global.snap", WindowAgg(global), refWindowAggFactory(global), snapshotScenario},
		{"topk.snap", TopK(topk), refTopKFactory(topk), snapshotScenario},
		{"distinctcount.snap", DistinctCount(distinct), refDistinctCountFactory(distinct), snapshotScenario},
		{"windowjoin.snap", WindowJoin(join), refWindowJoinFactory(join), joinSnapshotScenario},
	} {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			ref := instance(c.ref, 2)
			c.scenario(ref)
			if !bytes.Equal(snapshotOf(ref), want) {
				t.Fatal("the reference no longer writes the committed snapshot")
			}
			restored := instance(c.got, 2)
			if err := restore(restored, want); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if !bytes.Equal(snapshotOf(restored), want) {
				t.Fatal("restored handler snapshots different bytes")
			}
			fed := instance(c.got, 2)
			c.scenario(fed)
			if !bytes.Equal(snapshotOf(fed), want) {
				t.Fatal("the scenario snapshots different bytes")
			}
		})
	}
}
