package operators_test

import (
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"testing"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// TestAllocsWindowCycle pins the windowed operators' steady state at zero
// allocations: once a window's tables have grown to its key count, a
// cycle that fills the next window and emits the previous one — open,
// fill, emit, recycle — reuses the closed window's tables, the emission
// slice and pooled result batches. The join's cycle fills both sides.
// The engine-level gate (internal/runtime/alloc_test.go) covers the
// message path around it.
func TestAllocsWindowCycle(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	win := 10 * vtime.Millisecond
	for _, c := range []struct {
		name  string
		h     func(int) dataflow.Handler
		ports int // the batch goes in once on each port
	}{
		{"windowAgg/keyed", operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum}), 1},
		{"windowAgg/global", operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Mean, Global: true}), 1},
		{"windowAgg/sliding", operators.WindowAgg(operators.WindowAggSpec{Size: 4 * win, Slide: win, Agg: operators.Max}), 1},
		{"topK", operators.TopK(operators.TopKSpec{Size: win, K: 4}), 1},
		{"distinctCount", operators.DistinctCount(operators.DistinctCountSpec{Size: win}), 1},
		{"windowJoin", operators.WindowJoin(operators.WindowJoinSpec{Size: win}), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			env := dataflow.NewEnv(nil, nil, 0)
			env.Batches = dataflow.NewBatchPool(1)
			op := instance(c.h)
			b := dataflow.NewBatch(64)
			for i := 0; i < 64; i++ {
				b.Append(0, int64(i%16), float64(i))
			}
			m := &core.Message{Payload: b}
			w := 0
			// One cycle: the batch fills the window ending (w+1)·win, and
			// its progress w·win closes the window ending there.
			cycle := func() {
				w++
				for i := range b.Times {
					b.Times[i] = vtime.Time(w)*win + 1 + vtime.Time(i)
				}
				m.P, m.T = vtime.Time(w)*win, vtime.Time(w)*win
				for m.Port = 0; m.Port < c.ports; m.Port++ {
					for _, e := range dataflow.Invoke(op, m, m.T, env) {
						env.FreeBatch(e.Batch)
					}
				}
			}
			for i := 0; i < 20; i++ {
				cycle()
			}
			if n := testing.AllocsPerRun(100, cycle); n != 0 {
				t.Errorf("steady-state window cycle allocates %.1f times, want 0", n)
			}
		})
	}
}

// instance returns an operator running the handler newHandler builds over
// one input channel, outside an engine.
func instance(newHandler func(int) dataflow.Handler) *dataflow.Operator {
	j, err := dataflow.NewJob(dataflow.JobSpec{Name: "t", Latency: vtime.Second, Sources: 1,
		Stages: []dataflow.StageSpec{{Parallelism: 1, NewHandler: newHandler}}})
	if err != nil {
		panic(err)
	}
	return j.Stages[0][0]
}

// BenchmarkWindowAggKeys measures a tumbling keyed Sum per tuple at three
// key cardinalities per window. Each window receives four tuples per key
// on average, drawn at random, in 64-tuple batches; the first batch of a
// window carries the progress that emits the previous one, so emit and
// recycle costs are spread over the tuples (at 16 keys every batch opens
// and closes a window).
func BenchmarkWindowAggKeys(b *testing.B) {
	const batch = 64
	win := vtime.Second
	for _, keys := range []int{16, 4096, 65536} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, uint64(keys)))
			batches := make([]*dataflow.Batch, 4*keys/batch)
			for i := range batches {
				bt := dataflow.NewBatch(batch)
				for j := 0; j < batch; j++ {
					bt.Append(0, rng.Int64N(int64(keys)), float64(j))
				}
				batches[i] = bt
			}
			env := dataflow.NewEnv(nil, nil, 0)
			env.Batches = dataflow.NewBatchPool(1)
			op := instance(operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum}))
			m := &core.Message{}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				w := vtime.Time(n / len(batches))
				bt := batches[n%len(batches)]
				for j := range bt.Times {
					bt.Times[j] = w*win + 1
				}
				m.P, m.T, m.Payload = w*win, w*win, bt
				for _, e := range dataflow.Invoke(op, m, m.T, env) {
					env.FreeBatch(e.Batch)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/tuple")
		})
	}
}
