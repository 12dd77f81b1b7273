package runtime

// Recycling-safety tests of the pooled hot path: messages and batches are
// reused aggressively, so these pin the ownership rules under -race —
// no handler ever observes a released (poisoned) message, every tuple
// survives pooling end to end, and message conservation holds with
// concurrent producers.

import (
	"math/rand/v2"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// TestPoolRecyclingSafety runs a two-stage pipeline whose first stage
// forwards its payload batch downstream (the batch-ownership-transfer
// path) while every handler checks the message it was handed is live:
// a recycled message carries core.PoisonedID, so any use-after-release
// by the dispatcher or the pools shows up as a poisoned or non-positive
// ID — and any batch double-free shows up as lost or duplicated tuples.
func TestPoolRecyclingSafety(t *testing.T) {
	const producers, windows, tuples = 4, 150, 8
	var stage0Tuples, sinkTuples, badMsgs atomic.Int64
	check := func(m *core.Message) *dataflow.Batch {
		if m.ID <= 0 || m.ID == core.PoisonedID {
			badMsgs.Add(1)
		}
		b, _ := m.Payload.(*dataflow.Batch)
		if b != nil && (len(b.Times) != len(b.Keys) || len(b.Times) != len(b.Vals)) {
			badMsgs.Add(1)
		}
		return b
	}
	spec := dataflow.JobSpec{
		Name: "safety", Latency: vtime.Second, Sources: producers,
		Stages: []dataflow.StageSpec{
			{Name: "fwd", Parallelism: 2,
				NewHandler: func(int) dataflow.Handler {
					return dataflow.HandlerFunc(func(_ *dataflow.Context, m *core.Message) []dataflow.Emission {
						b := check(m)
						stage0Tuples.Add(int64(b.Len()))
						// Forward the payload batch itself: exercises
						// whole-batch ownership transfer to the child.
						return []dataflow.Emission{{Batch: b, P: m.P, T: m.T}}
					})
				}},
			{Name: "sink", Parallelism: 1,
				NewHandler: func(int) dataflow.Handler {
					return dataflow.HandlerFunc(func(_ *dataflow.Context, m *core.Message) []dataflow.Emission {
						b := check(m)
						sinkTuples.Add(int64(b.Len()))
						return nil
					})
				}},
		},
	}
	e := New(Config{Workers: 4})
	if _, err := e.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	e.Start()
	wl := testkit.Workload{Seed: 77, Sources: producers, Windows: windows, Tuples: tuples, Keys: 16, Win: vtime.Millisecond}
	var wg sync.WaitGroup
	for src := 0; src < producers; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for w := 1; w <= windows; w++ {
				if err := e.Ingest("safety", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	wg.Wait()
	testkit.DrainOrFail(t, e, 10*time.Second)
	e.Stop()

	total := int64(producers * windows * tuples)
	if got := stage0Tuples.Load(); got != total {
		t.Errorf("stage 0 saw %d tuples, ingested %d", got, total)
	}
	if got := sinkTuples.Load(); got != total {
		t.Errorf("sink saw %d tuples, ingested %d", got, total)
	}
	if n := badMsgs.Load(); n != 0 {
		t.Errorf("%d poisoned/malformed messages observed by handlers", n)
	}
	if created, executed := e.msgID.Load(), e.Executed(); created != executed {
		t.Errorf("created %d messages, executed %d — conservation broken with pooling", created, executed)
	}
}

// TestMessagePoolPoisoning pins the pool's release contract directly.
func TestMessagePoolPoisoning(t *testing.T) {
	p := core.NewMessagePool(1)
	m := p.Get(0)
	m.ID = 42
	m.Payload = "batch"
	p.Put(0, m)
	if m.ID != core.PoisonedID {
		t.Fatalf("released message ID = %d, want PoisonedID", m.ID)
	}
	if m.Payload != nil {
		t.Fatal("released message retains its payload reference")
	}
	m2 := p.Get(0)
	if m2 != m {
		t.Fatal("local free list did not recycle the released message")
	}
	if m2.ID != 0 || m2.Payload != nil {
		t.Fatalf("recycled message not zeroed: %+v", m2)
	}
	// nil pool: allocation fallback, Put is a no-op.
	var nilPool *core.MessagePool
	if m := nilPool.Get(3); m == nil {
		t.Fatal("nil pool Get returned nil")
	}
	nilPool.Put(3, m2)
}

// TestBatchPoolOwnership pins that only pool-born batches recycle, and
// that a double free is inert instead of corrupting the free list.
func TestBatchPoolOwnership(t *testing.T) {
	p := dataflow.NewBatchPool(1)
	ext := dataflow.NewBatch(4) // externally created: must never recycle
	p.Put(0, ext)
	b := p.Get(0, 4)
	if b == ext {
		t.Fatal("external batch entered the pool")
	}
	b.Append(1, 2, 3)
	p.Put(0, b)
	p.Put(0, b) // double free: must be a no-op
	b2 := p.Get(0, 4)
	if b2 != b {
		t.Fatal("pooled batch not recycled")
	}
	if b2.Len() != 0 {
		t.Fatalf("recycled batch not reset: len=%d", b2.Len())
	}
	if b3 := p.Get(0, 4); b3 == b2 {
		t.Fatal("double free put the batch in the list twice")
	}
}

// TestBatchPoolCapacity pins the pool's two tiers: a batch never comes
// back with less room than was asked for, in any column — whatever the
// batches released before it grew to, or lost a column — and a batch
// larger than a small request's never enters a worker's or an external
// producer's free list, however many are released there.
func TestBatchPoolCapacity(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := dataflow.NewBatchPool(1)
	var stash dataflow.BatchStash
	get := func(ext bool, n int) *dataflow.Batch {
		if ext {
			return p.GetExternal(&stash, n)
		}
		return p.Get(0, n)
	}
	put := func(ext bool, b *dataflow.Batch) {
		if ext {
			p.PutExternal(&stash, b)
		} else {
			p.Put(0, b)
		}
	}
	rng := rand.New(rand.NewPCG(29, 1))
	var live []*dataflow.Batch
	for range 20000 {
		if len(live) > 0 && rng.IntN(2) == 0 {
			k := rng.IntN(len(live))
			b := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			for range rng.IntN(3) * rng.IntN(80) {
				b.Append(1, 2, 3)
			}
			if rng.IntN(16) == 0 {
				b.Keys = nil // as a restore of an unkeyed payload leaves it
			}
			put(rng.IntN(2) == 0, b)
			continue
		}
		want := 1 + rng.IntN(12)
		if rng.IntN(3) == 0 {
			want = 1 + rng.IntN(300)
		}
		b := get(rng.IntN(2) == 0, want)
		if b.Len() != 0 || cap(b.Times) < want || cap(b.Keys) < want || cap(b.Vals) < want {
			t.Fatalf("asked for %d tuples, got len %d and capacities %d/%d/%d",
				want, b.Len(), cap(b.Times), cap(b.Keys), cap(b.Vals))
		}
		live = append(live, b)
	}

	for _, ext := range []bool{false, true} {
		large := map[*dataflow.Batch]bool{}
		for i := range 300 {
			var b *dataflow.Batch
			if i%2 == 0 {
				b = get(ext, dataflow.MaxCoalesce)
			} else {
				b = get(ext, 4)
				for range 9 + i%40 {
					b.Append(1, 2, 3) // grown past a small batch
				}
			}
			large[b] = true
		}
		for b := range large {
			put(ext, b)
		}
		for range 1000 {
			if b := get(ext, 4); large[b] {
				t.Fatalf("external %v: a small request drew a batch of capacity %d from the free list", ext, cap(b.Times))
			}
		}
	}
}
