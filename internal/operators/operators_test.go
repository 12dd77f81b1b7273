package operators

import (
	"testing"
	"testing/quick"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// testEnv runs handlers outside an engine, with heap-allocated batches.
var testEnv = dataflow.NewEnv(nil, nil, -1)

// instance returns an operator running the handler newHandler builds over
// channels input channels, outside an engine.
func instance(newHandler func(int) dataflow.Handler, channels int) *dataflow.Operator {
	j, err := dataflow.NewJob(dataflow.JobSpec{Name: "t", Latency: vtime.Second, Sources: channels,
		Stages: []dataflow.StageSpec{{Parallelism: 1, NewHandler: newHandler}}})
	if err != nil {
		panic(err)
	}
	return j.Stages[0][0]
}

// on delivers m to op as the engines do: Invoke advances the operator's
// frontier on m's channel, then runs the handler.
func on(op *dataflow.Operator, m *core.Message) []dataflow.Emission {
	return dataflow.Invoke(op, m, m.T, testEnv)
}

// snapshotOf returns the snapshot of op's handler section. The map-based
// references (reference_test.go) keep their own frontier and write it.
func snapshotOf(op *dataflow.Operator) []byte {
	w := snap.NewWriter()
	switch h := op.Handler.(type) {
	case dataflow.Snapshotter:
		h.SnapshotState(w, op.Frontier())
	case interface{ SnapshotState(*snap.Writer) }:
		h.SnapshotState(w)
	}
	return w.Bytes()
}

// restore reads a snapshot written by snapshotOf into op's handler and
// frontier.
func restore(op *dataflow.Operator, data []byte) error {
	r, err := snap.NewReader(data)
	if err != nil {
		return err
	}
	return op.Handler.(dataflow.Snapshotter).RestoreState(r, op.Frontier())
}

func sec(n int64) vtime.Time { return vtime.Time(n) * vtime.Second }

func dataMsg(ch int, p, t vtime.Time, b *dataflow.Batch) *core.Message {
	return &core.Message{P: p, T: t, Channel: ch, Payload: b}
}

func batchOf(tuples ...[3]int64) *dataflow.Batch { // (time-sec, key, val)
	b := dataflow.NewBatch(len(tuples))
	for _, tp := range tuples {
		b.Append(sec(tp[0]), tp[1], float64(tp[2]))
	}
	return b
}

// endsOf lists the window ends windowEnds spans for logical time p.
func endsOf(p vtime.Time, size, slide vtime.Duration) []vtime.Time {
	var ends []vtime.Time
	first, last := windowEnds(p, size, slide)
	for e := first; e <= last; e += slide {
		ends = append(ends, e)
	}
	return ends
}

func TestWindowEndsTumbling(t *testing.T) {
	got := endsOf(sec(3), sec(10), sec(10))
	if len(got) != 1 || got[0] != sec(10) {
		t.Fatalf("tumbling ends = %v", got)
	}
	got = endsOf(sec(10), sec(10), sec(10))
	if len(got) != 1 || got[0] != sec(20) {
		t.Fatalf("boundary tuple ends = %v", got)
	}
}

func TestWindowEndsSliding(t *testing.T) {
	// size 10, slide 2: tuple at 5 belongs to windows ending 6,8,10,12,14.
	got := endsOf(sec(5), sec(10), sec(2))
	want := []vtime.Time{sec(6), sec(8), sec(10), sec(12), sec(14)}
	if len(got) != len(want) {
		t.Fatalf("sliding ends = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sliding ends = %v, want %v", got, want)
		}
	}
}

func TestWindowEndsProperty(t *testing.T) {
	f := func(p16 uint16, size8, slide8 uint8) bool {
		size := vtime.Duration(size8%20+1) * vtime.Second
		slide := vtime.Duration(slide8%20+1) * vtime.Second
		if slide > size {
			size, slide = slide, size
		}
		p := vtime.Time(p16) * vtime.Millisecond
		count := 0
		okAll := true
		for _, e := range endsOf(p, size, slide) {
			count++
			// Window [e-size, e) must contain p, and e aligned to slide.
			if !(e-size <= p && p < e) || e%slide != 0 {
				okAll = false
			}
		}
		// The number of slide-aligned ends in (p, p+size] is size/slide
		// when slide divides size, and otherwise floor or ceil of the
		// ratio depending on p's offset.
		lo := int(size / slide)
		hi := lo
		if size%slide != 0 {
			hi++
		}
		return okAll && count >= lo && count <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTumblingAggSumPerKey(t *testing.T) {
	h := instance(WindowAgg(WindowAggSpec{Size: sec(10), Slide: sec(10), Agg: Sum}), 1)
	// Two batches inside window (0,10]; no trigger until progress >= 10.
	if out := on(h, dataMsg(0, sec(3), sec(3), batchOf([3]int64{1, 1, 5}, [3]int64{2, 2, 7}))); out != nil {
		t.Fatalf("premature emission: %v", out)
	}
	if out := on(h, dataMsg(0, sec(7), sec(7), batchOf([3]int64{6, 1, 3}))); out != nil {
		t.Fatalf("premature emission: %v", out)
	}
	// Progress to 12s: window ending 10 fires.
	out := on(h, dataMsg(0, sec(12), sec(12), batchOf([3]int64{11, 9, 1})))
	if len(out) != 1 {
		t.Fatalf("emissions = %d, want 1", len(out))
	}
	e := out[0]
	if e.P != sec(10) {
		t.Fatalf("result P = %v, want 10s", e.P)
	}
	if e.T != sec(7) {
		t.Fatalf("result T = %v, want 7s (last contributing arrival)", e.T)
	}
	// key 1 -> 5+3 = 8; key 2 -> 7. Keys sorted.
	if e.Batch.Len() != 2 || e.Batch.Keys[0] != 1 || e.Batch.Vals[0] != 8 || e.Batch.Vals[1] != 7 {
		t.Fatalf("result batch = %+v", e.Batch)
	}
}

func TestWindowAggWaitsForAllChannels(t *testing.T) {
	h := instance(WindowAgg(WindowAggSpec{Size: sec(1), Slide: sec(1), Agg: Count}), 2)
	if out := on(h, dataMsg(0, sec(5), sec(5), batchOf([3]int64{0, 1, 1}))); out != nil {
		t.Fatal("emitted before second channel reported")
	}
	out := on(h, dataMsg(1, sec(2), sec(5), nil))
	// Frontier = min(5, 2) = 2: windows ending 1s and 2s complete; only the
	// 1s window holds data.
	if len(out) != 2 {
		t.Fatalf("emissions = %d, want data window + punctuation", len(out))
	}
	if out[0].P != sec(1) || out[0].Batch.Len() != 1 {
		t.Fatalf("first emission = %+v", out[0])
	}
	if out[1].P != sec(2) || out[1].Batch.Len() != 0 {
		t.Fatalf("punctuation = %+v", out[1])
	}
}

func TestWindowAggPunctuationOnEmptyWindows(t *testing.T) {
	h := instance(WindowAgg(WindowAggSpec{Size: sec(1), Slide: sec(1), Agg: Sum}), 1)
	out := on(h, dataMsg(0, sec(100), sec(100), nil))
	// No data at all: single trailing punctuation at the boundary.
	if len(out) != 1 || out[0].Batch.Len() != 0 || out[0].P != sec(100) {
		t.Fatalf("empty-progress emissions = %+v", out)
	}
	// Frontier not advanced past boundary: no new emission.
	if out := on(h, dataMsg(0, sec(100), sec(101), nil)); out != nil {
		t.Fatalf("duplicate punctuation: %+v", out)
	}
}

func TestWindowAggLateTuplesDropped(t *testing.T) {
	h := instance(WindowAgg(WindowAggSpec{Size: sec(1), Slide: sec(1), Agg: Sum}), 1)
	on(h, dataMsg(0, sec(10), sec(10), nil)) // advance past window 1
	on(h, dataMsg(0, sec(10), sec(10), batchOf([3]int64{0, 1, 5})))
	agg := h.Handler.(*windowAgg)
	if agg.LateTuples() != 1 {
		t.Fatalf("late tuples = %d, want 1", agg.LateTuples())
	}
}

func TestSlidingWindowOverlap(t *testing.T) {
	// size 2s, slide 1s: a tuple at 0.5s lands in windows ending 1s and 2s.
	h := instance(WindowAgg(WindowAggSpec{Size: sec(2), Slide: sec(1), Agg: Sum}), 1)
	on(h, dataMsg(0, 500*vtime.Millisecond, sec(1), batchOf()))
	b := dataflow.NewBatch(1)
	b.Append(500*vtime.Millisecond, 1, 10)
	on(h, dataMsg(0, 600*vtime.Millisecond, sec(1), b))
	out := on(h, dataMsg(0, sec(3), sec(3), nil))
	// Windows ending 1s, 2s contain the tuple; 3s does not.
	var dataWindows int
	for _, e := range out {
		if e.Batch.Len() > 0 {
			dataWindows++
			if e.Batch.Vals[0] != 10 {
				t.Fatalf("window %v sum = %v", e.P, e.Batch.Vals[0])
			}
		}
	}
	if dataWindows != 2 {
		t.Fatalf("tuple appeared in %d windows, want 2", dataWindows)
	}
}

func TestGlobalAggregation(t *testing.T) {
	h := instance(WindowAgg(WindowAggSpec{Size: sec(1), Slide: sec(1), Agg: Mean, Global: true}), 1)
	on(h, dataMsg(0, 100*vtime.Millisecond, sec(1), batchOf([3]int64{0, 1, 10}, [3]int64{0, 2, 20})))
	out := on(h, dataMsg(0, sec(1), sec(1), nil))
	if len(out) != 1 || out[0].Batch.Len() != 1 {
		t.Fatalf("global agg emissions = %+v", out)
	}
	if out[0].Batch.Vals[0] != 15 {
		t.Fatalf("global mean = %v, want 15", out[0].Batch.Vals[0])
	}
}

func TestAggKinds(t *testing.T) {
	a := &acc{}
	for _, v := range []float64{3, 1, 4, 1, 5} {
		a.add(v)
	}
	cases := map[AggKind]float64{Sum: 14, Count: 5, Max: 5, Min: 1, Mean: 2.8}
	for k, want := range cases {
		if got := a.result(k); got != want {
			t.Errorf("%v = %v, want %v", k, got, want)
		}
	}
	if (&acc{}).result(Mean) != 0 {
		t.Error("empty mean should be 0")
	}
	if Sum.String() != "sum" || Mean.String() != "mean" {
		t.Error("AggKind names")
	}
}

func TestWindowAggSpecValidation(t *testing.T) {
	for _, spec := range []WindowAggSpec{
		{Size: 0, Slide: 1},
		{Size: 1, Slide: 0},
		{Size: 1, Slide: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %+v did not panic", spec)
				}
			}()
			WindowAgg(spec)
		}()
	}
}

func TestWindowJoinMatchesKeys(t *testing.T) {
	h := instance(WindowJoin(WindowJoinSpec{Size: sec(10)}), 2)
	// Left (port 0) on channel 0; right (port 1) on channel 1.
	left := dataMsg(0, sec(5), sec(5), batchOf([3]int64{1, 1, 100}, [3]int64{2, 2, 50}))
	left.Port = 0
	on(h, left)
	right := dataMsg(1, sec(6), sec(6), batchOf([3]int64{3, 1, 7}))
	right.Port = 1
	on(h, right)

	l2 := dataMsg(0, sec(12), sec(12), nil)
	l2.Port = 0
	if out := on(h, l2); out != nil {
		t.Fatal("join emitted before both channels advanced")
	}
	r2 := dataMsg(1, sec(12), sec(12), nil)
	r2.Port = 1
	out := on(h, r2)
	if len(out) != 2 { // data window at 10s + punctuation at 10s? boundary=10; data window == boundary so 1 emission
		// Data window end == boundary: only the data emission.
		if len(out) != 1 {
			t.Fatalf("join emissions = %d", len(out))
		}
	}
	e := out[0]
	if e.P != sec(10) || e.Batch.Len() != 1 {
		t.Fatalf("join result = %+v", e)
	}
	// Key 1 on both sides: 100 + 7.
	if e.Batch.Keys[0] != 1 || e.Batch.Vals[0] != 107 {
		t.Fatalf("join tuple = key %d val %v", e.Batch.Keys[0], e.Batch.Vals[0])
	}
}

func TestWindowJoinNoMatchesEmitsProgressOnly(t *testing.T) {
	h := instance(WindowJoin(WindowJoinSpec{Size: sec(1)}), 2)
	l := dataMsg(0, sec(2), sec(2), batchOf([3]int64{0, 1, 1}))
	l.Port = 0
	on(h, l)
	r := dataMsg(1, sec(2), sec(2), batchOf([3]int64{0, 9, 1}))
	r.Port = 1
	out := on(h, r)
	// Keys 1 and 9 don't match: emissions must still carry progress.
	for _, e := range out {
		if e.Batch.Len() != 0 {
			t.Fatalf("unexpected join match: %+v", e)
		}
	}
	if len(out) == 0 {
		t.Fatal("no progress emitted")
	}
	if h.Handler.(*windowJoin).LateTuples() != 0 {
		t.Fatal("spurious late tuples")
	}
}

func TestWindowJoinCustomCombine(t *testing.T) {
	h := instance(WindowJoin(WindowJoinSpec{
		Size:    sec(1),
		Combine: func(l, r float64) float64 { return l * r },
	}), 2)
	l := dataMsg(0, 0, 0, batchOf([3]int64{0, 1, 6}))
	l.Port = 0
	on(h, l)
	r := dataMsg(1, sec(1), sec(1), batchOf([3]int64{0, 1, 7}))
	r.Port = 1
	on(h, r)
	l2 := dataMsg(0, sec(1), sec(1), nil)
	l2.Port = 0
	out := on(h, l2)
	if len(out) == 0 || out[0].Batch.Len() != 1 || out[0].Batch.Vals[0] != 42 {
		t.Fatalf("combine result = %+v", out)
	}
}

func TestMapTransformsTuples(t *testing.T) {
	h := instance(Map(func(_ vtime.Time, k int64, v float64) (int64, float64) { return k + 1, v * 2 }), 1)
	out := on(h, dataMsg(0, sec(1), sec(1), batchOf([3]int64{0, 1, 10})))
	if len(out) != 1 || out[0].Batch.Keys[0] != 2 || out[0].Batch.Vals[0] != 20 {
		t.Fatalf("map output = %+v", out)
	}
	// Progress-only messages pass through.
	out = on(h, dataMsg(0, sec(2), sec(2), nil))
	if len(out) != 1 || out[0].Batch.Len() != 0 || out[0].P != sec(2) {
		t.Fatalf("map punctuation = %+v", out)
	}
}

func TestFilterDropsTuples(t *testing.T) {
	h := instance(Filter(func(_ vtime.Time, k int64, _ float64) bool { return k%2 == 0 }), 1)
	out := on(h, dataMsg(0, sec(1), sec(1),
		batchOf([3]int64{0, 1, 1}, [3]int64{0, 2, 2}, [3]int64{0, 4, 4})))
	if out[0].Batch.Len() != 2 {
		t.Fatalf("filter kept %d tuples, want 2", out[0].Batch.Len())
	}
}

func TestEmit(t *testing.T) {
	b := batchOf([3]int64{0, 1, 1})
	e := instance(Emit(), 1)
	if out := on(e, dataMsg(0, sec(1), sec(1), nil)); out != nil {
		t.Fatal("emit forwarded empty batch")
	}
	if out := on(e, dataMsg(0, sec(1), sec(1), b)); len(out) != 1 {
		t.Fatal("emit dropped data")
	}
}

func TestJoinSpecValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WindowJoin(WindowJoinSpec{Size: 0})
}
