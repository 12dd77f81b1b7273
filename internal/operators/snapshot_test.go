package operators

import (
	"bytes"
	"testing"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/snap"
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
