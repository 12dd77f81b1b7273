package operators

import (
	"testing"

	"github.com/cameo-stream/cameo/internal/vtime"
)

func TestTopKEmitsLargestKeys(t *testing.T) {
	h := instance(TopK(TopKSpec{Size: sec(10), K: 2}), 1)
	// Key sums in window (0,10]: k1=5, k2=12, k3=8.
	on(h, dataMsg(0, sec(3), sec(3), batchOf(
		[3]int64{1, 1, 5}, [3]int64{2, 2, 12}, [3]int64{2, 3, 8})))
	out := on(h, dataMsg(0, sec(10), sec(10), nil))
	if len(out) != 1 {
		t.Fatalf("emissions = %d", len(out))
	}
	b := out[0].Batch
	if b.Len() != 2 {
		t.Fatalf("top-k size = %d, want 2", b.Len())
	}
	if b.Keys[0] != 2 || b.Vals[0] != 12 {
		t.Fatalf("top-1 = key %d val %v, want key 2 val 12", b.Keys[0], b.Vals[0])
	}
	if b.Keys[1] != 3 || b.Vals[1] != 8 {
		t.Fatalf("top-2 = key %d val %v, want key 3 val 8", b.Keys[1], b.Vals[1])
	}
	// Result tuples sit just inside the window; emission progress at end.
	if b.Times[0] != sec(10)-1 || out[0].P != sec(10) {
		t.Fatalf("timestamps = tuple %v emission %v", b.Times[0], out[0].P)
	}
}

func TestTopKTieBreaksByKey(t *testing.T) {
	h := instance(TopK(TopKSpec{Size: sec(1), K: 1}), 1)
	on(h, dataMsg(0, 500*vtime.Millisecond, sec(1), batchOf(
		[3]int64{0, 7, 4}, [3]int64{0, 3, 4})))
	out := on(h, dataMsg(0, sec(1), sec(1), nil))
	if out[0].Batch.Keys[0] != 3 {
		t.Fatalf("tie-break key = %d, want 3 (lower key)", out[0].Batch.Keys[0])
	}
}

func TestTopKFewerKeysThanK(t *testing.T) {
	h := instance(TopK(TopKSpec{Size: sec(1), K: 5}), 1)
	on(h, dataMsg(0, 500*vtime.Millisecond, sec(1), batchOf([3]int64{0, 1, 1})))
	out := on(h, dataMsg(0, sec(1), sec(1), nil))
	if out[0].Batch.Len() != 1 {
		t.Fatalf("emitted %d keys, want 1", out[0].Batch.Len())
	}
}

func TestTopKLateTuplesAndPunctuation(t *testing.T) {
	h := instance(TopK(TopKSpec{Size: sec(1), K: 1}), 1)
	// Advance well past window 1 with no data: punctuation only.
	out := on(h, dataMsg(0, sec(5), sec(5), nil))
	if len(out) != 1 || out[0].Batch.Len() != 0 || out[0].P != sec(5) {
		t.Fatalf("punctuation = %+v", out)
	}
	// A tuple for the already-emitted range is late.
	on(h, dataMsg(0, sec(5), sec(5), batchOf([3]int64{0, 1, 1})))
	if h.Handler.(*topK).LateTuples() != 1 {
		t.Fatalf("late = %d", h.Handler.(*topK).LateTuples())
	}
}

func TestTopKSpecValidation(t *testing.T) {
	for _, spec := range []TopKSpec{{Size: 0, K: 1}, {Size: sec(1), K: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %+v did not panic", spec)
				}
			}()
			TopK(spec)
		}()
	}
}

func TestDistinctCount(t *testing.T) {
	h := instance(DistinctCount(DistinctCountSpec{Size: sec(10)}), 2)
	// Window (0,10]: keys {1, 2, 3} across two channels, with repeats.
	on(h, dataMsg(0, sec(4), sec(4), batchOf(
		[3]int64{1, 1, 0}, [3]int64{2, 2, 0}, [3]int64{3, 1, 0})))
	on(h, dataMsg(1, sec(5), sec(5), batchOf(
		[3]int64{2, 3, 0}, [3]int64{3, 2, 0})))
	on(h, dataMsg(0, sec(11), sec(11), nil))
	out := on(h, dataMsg(1, sec(11), sec(11), nil))
	var counted bool
	for _, e := range out {
		if e.Batch.Len() > 0 {
			counted = true
			if e.Batch.Vals[0] != 3 {
				t.Fatalf("distinct count = %v, want 3", e.Batch.Vals[0])
			}
			if e.P != sec(10) {
				t.Fatalf("window end = %v", e.P)
			}
		}
	}
	if !counted {
		t.Fatal("no count emitted")
	}
}

func TestDistinctCountLateAndValidation(t *testing.T) {
	h := instance(DistinctCount(DistinctCountSpec{Size: sec(1)}), 1)
	on(h, dataMsg(0, sec(3), sec(3), nil))
	on(h, dataMsg(0, sec(3), sec(3), batchOf([3]int64{0, 1, 0})))
	if h.Handler.(*distinctCount).LateTuples() != 1 {
		t.Fatal("late tuple not counted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DistinctCount(DistinctCountSpec{})
}
