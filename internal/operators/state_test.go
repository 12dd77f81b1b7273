package operators

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// TestWindowStateMatchesMapReference runs seeded random message sequences
// through each windowed operator and through its map-based reference
// (reference_test.go) side by side: {tumbling, sliding} × {keyed, global}
// × every aggregation for windowAgg, plus topK at three k, distinctCount,
// and windowJoin with the default and a custom Combine over messages on
// ports 0, 1 and 2 (port 2 joins as the left side), each over {1, 2, 3}
// input channels and {on-time, late tuples, progress-only messages}.
// After every message the emissions — progress, time, batch presence,
// and every tuple's time, key and value in order — and the late count
// must be identical. Every 37 messages the snapshots must be
// byte-identical, and the operator under test continues from a fresh
// handler restored from its own snapshot.
func TestWindowStateMatchesMapReference(t *testing.T) {
	ms := vtime.Millisecond
	type pair struct {
		name     string
		got, ref func(int) dataflow.Handler
		slide    vtime.Duration
		ports    int // messages draw their Port from [0, ports)
	}
	var ops []pair
	for _, shape := range []struct {
		name        string
		size, slide vtime.Duration
	}{{"tumbling", 100 * ms, 100 * ms}, {"sliding", 300 * ms, 100 * ms}} {
		for _, global := range []bool{false, true} {
			for agg := Sum; agg <= Mean; agg++ {
				spec := WindowAggSpec{Size: shape.size, Slide: shape.slide, Agg: agg, Global: global}
				ops = append(ops, pair{fmt.Sprintf("windowAgg/%s/global=%v/%v", shape.name, global, agg),
					WindowAgg(spec), refWindowAggFactory(spec), shape.slide, 1})
			}
		}
	}
	for _, k := range []int{1, 3, 100} {
		spec := TopKSpec{Size: 100 * ms, K: k}
		ops = append(ops, pair{fmt.Sprintf("topK/k=%d", k), TopK(spec), refTopKFactory(spec), spec.Size, 1})
	}
	dspec := DistinctCountSpec{Size: 100 * ms}
	ops = append(ops, pair{"distinctCount", DistinctCount(dspec), refDistinctCountFactory(dspec), dspec.Size, 1})
	for _, c := range []struct {
		name    string
		combine func(l, r float64) float64
	}{{"sum", nil}, {"custom", func(l, r float64) float64 { return 2*l - r }}} {
		spec := WindowJoinSpec{Size: 100 * ms, Combine: c.combine}
		ops = append(ops, pair{"windowJoin/" + c.name, WindowJoin(spec), refWindowJoinFactory(spec), spec.Size, 3})
	}

	seed := uint64(0)
	for _, op := range ops {
		for channels := 1; channels <= 3; channels++ {
			for _, mode := range []string{"on-time", "late", "progress-only"} {
				seed++
				rng := rand.New(rand.NewPCG(seed, 26))
				t.Run(fmt.Sprintf("%s/ch%d/%s", op.name, channels, mode), func(t *testing.T) {
					got, ref := instance(op.got, channels), instance(op.ref, channels)
					spread := []int64{3, 40, 1000}[rng.IntN(3)]
					key := func() int64 {
						if rng.IntN(50) == 0 {
							return []int64{1 << 40, -1 << 50, 0}[rng.IntN(3)]
						}
						return rng.Int64N(2*spread+1) - spread
					}
					prog := make([]vtime.Time, channels)
					var now vtime.Time
					for i := 1; i <= 400; i++ {
						ch := rng.IntN(channels)
						lo := prog[ch]
						prog[ch] += vtime.Time(rng.Int64N(int64(2 * op.slide)))
						now += vtime.Time(rng.Int64N(int64(ms)))
						m := &core.Message{P: prog[ch], T: now, Channel: ch}
						if op.ports > 1 {
							m.Port = rng.IntN(op.ports)
						}
						switch {
						case mode == "progress-only" && rng.IntN(3) == 0:
							switch rng.IntN(3) {
							case 0: // no payload
							case 1:
								m.Payload = dataflow.NewBatch(0)
							case 2: // times only: every tuple is key 0, value 0
								m.Payload = &dataflow.Batch{Times: []vtime.Time{lo, prog[ch]}}
							}
						default:
							n := rng.IntN(12)
							b := dataflow.NewBatch(n)
							for j := 0; j < n; j++ {
								p := lo + vtime.Time(rng.Int64N(int64(prog[ch]-lo)+1))
								if mode == "late" && rng.IntN(4) == 0 {
									p = vtime.Time(rng.Int64N(int64(prog[ch]) + 1))
								}
								b.Append(p, key(), float64(rng.IntN(2000)-1000)/8)
							}
							m.Payload = b
						}
						want := on(ref, m)
						if diff := diffEmissions(on(got, m), want); diff != "" {
							t.Fatalf("message %d: %s", i, diff)
						}
						gl, rl := got.Handler.(interface{ LateTuples() int64 }).LateTuples(), ref.Handler.(interface{ LateTuples() int64 }).LateTuples()
						if gl != rl {
							t.Fatalf("message %d: late tuples %d, reference %d", i, gl, rl)
						}
						if i%37 == 0 {
							got = restoredCopy(t, got, ref, channels, op.got)
						}
					}
					late := ref.Handler.(interface{ LateTuples() int64 }).LateTuples()
					if (mode == "late") != (late > 0) {
						t.Fatalf("%s sequence dropped %d late tuples", mode, late)
					}
				})
			}
		}
	}
}

// restoredCopy checks that got snapshots the same bytes as ref, and
// returns a fresh operator restored from those bytes.
func restoredCopy(t *testing.T, got, ref *dataflow.Operator, channels int, mk func(int) dataflow.Handler) *dataflow.Operator {
	t.Helper()
	data := snapshotOf(got)
	if !bytes.Equal(data, snapshotOf(ref)) {
		t.Fatal("snapshot bytes differ from the reference")
	}
	fresh := instance(mk, channels)
	if err := restore(fresh, data); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return fresh
}

// diffEmissions describes the first difference between two emission
// lists, or returns "" when they are identical.
func diffEmissions(got, want []dataflow.Emission) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d emissions, reference %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case g.P != w.P || g.T != w.T:
			return fmt.Sprintf("emission %d at (P %v, T %v), reference (P %v, T %v)", i, g.P, g.T, w.P, w.T)
		case (g.Batch == nil) != (w.Batch == nil):
			return fmt.Sprintf("emission %d batch presence %v, reference %v", i, g.Batch != nil, w.Batch != nil)
		case g.Batch == nil:
		case !slices.Equal(g.Batch.Times, w.Batch.Times) || !slices.Equal(g.Batch.Keys, w.Batch.Keys) ||
			!slices.Equal(g.Batch.Vals, w.Batch.Vals):
			return fmt.Sprintf("emission %d at P %v: tuples %v %v %v, reference %v %v %v", i, g.P,
				g.Batch.Times, g.Batch.Keys, g.Batch.Vals, w.Batch.Times, w.Batch.Keys, w.Batch.Vals)
		}
	}
	return ""
}

// TestCoalescedPayloadMatchesFlatBatch: every windowed operator opts into
// coalescing, and a message whose payload chains several batches
// (dataflow.Coalesce) does exactly what the same message with one batch of
// the chain's tuples does — emissions, late count and snapshot bytes —
// over seeded sequences with late tuples, empty links and join ports.
func TestCoalescedPayloadMatchesFlatBatch(t *testing.T) {
	ms := vtime.Millisecond
	for _, op := range []struct {
		name  string
		mk    func(int) dataflow.Handler
		slide vtime.Duration
		ports int
	}{
		{"windowAgg/tumbling", WindowAgg(WindowAggSpec{Size: 100 * ms, Slide: 100 * ms, Agg: Mean}), 100 * ms, 1},
		{"windowAgg/sliding/global", WindowAgg(WindowAggSpec{Size: 300 * ms, Slide: 100 * ms, Agg: Max, Global: true}), 100 * ms, 1},
		{"topK", TopK(TopKSpec{Size: 100 * ms, K: 3}), 100 * ms, 1},
		{"distinctCount", DistinctCount(DistinctCountSpec{Size: 100 * ms}), 100 * ms, 1},
		{"windowJoin", WindowJoin(WindowJoinSpec{Size: 100 * ms}), 100 * ms, 2},
	} {
		t.Run(op.name, func(t *testing.T) {
			const channels = 2
			got, flat := instance(op.mk, channels), instance(op.mk, channels)
			if !dataflow.Coalesces(got.Handler) {
				t.Fatal("the handler does not opt into coalescing")
			}
			pool := dataflow.NewEnv(nil, nil, -1)
			pool.Batches = dataflow.NewBatchPool(0)
			rng := rand.New(rand.NewPCG(41, uint64(len(op.name))))
			prog := make([]vtime.Time, channels)
			var now vtime.Time
			for i := 1; i <= 300; i++ {
				ch := rng.IntN(channels)
				lo := prog[ch]
				prog[ch] += vtime.Time(rng.Int64N(int64(2 * op.slide)))
				now += vtime.Time(rng.Int64N(int64(ms)))
				var head *dataflow.Batch
				whole := dataflow.NewBatch(0)
				for range 1 + rng.IntN(4) {
					link := pool.NewBatch(4)
					for range rng.IntN(5) {
						p := lo + vtime.Time(rng.Int64N(int64(prog[ch]-lo)+1))
						if rng.IntN(8) == 0 {
							p = vtime.Time(rng.Int64N(int64(prog[ch]) + 1)) // possibly late
						}
						k, v := rng.Int64N(9), float64(rng.IntN(100))
						link.Append(p, k, v)
						whole.Append(p, k, v)
					}
					var ok bool
					if head, ok = dataflow.Coalesce(head, link); !ok {
						t.Fatalf("message %d: link refused", i)
					}
				}
				port := rng.IntN(op.ports)
				chained := &core.Message{P: prog[ch], T: now, Channel: ch, Port: port, Payload: head}
				single := &core.Message{P: prog[ch], T: now, Channel: ch, Port: port, Payload: whole}
				if diff := diffEmissions(on(got, chained), on(flat, single)); diff != "" {
					t.Fatalf("message %d: %s", i, diff)
				}
				pool.FreeBatch(head)
				gl, fl := got.Handler.(interface{ LateTuples() int64 }).LateTuples(), flat.Handler.(interface{ LateTuples() int64 }).LateTuples()
				if gl != fl {
					t.Fatalf("message %d: late tuples %d, flat %d", i, gl, fl)
				}
			}
			if !bytes.Equal(snapshotOf(got), snapshotOf(flat)) {
				t.Error("snapshot bytes differ from the flat-batch operator's")
			}
		})
	}
}
