//go:build !race

// (Excluded under -race: the race detector's instrumentation allocates,
// which would fail the zero-allocation assertions for reasons unrelated
// to the code under test.)

package core

import (
	"testing"

	"github.com/cameo-stream/cameo/internal/vtime"
)

// TestAllocsDispatcherSteadyState is the allocation-regression gate at the
// dispatcher level: once queues have grown and the message pool is primed,
// a full push→acquire→drain→release cycle must not allocate at all, for
// every discipline. This is the property that makes scheduling overhead a
// pure CPU cost instead of GC pressure (the paper's fine-grained
// scheduling claim at allocation granularity).
func TestAllocsDispatcherSteadyState(t *testing.T) {
	dispatchers := []struct {
		name string
		d    Dispatcher[*testOp]
	}{
		{"cameo", NewCameoDispatcher[*testOp]()},
		{"orleans", NewOrleansDispatcher[*testOp](2)},
		{"fifo", NewFIFODispatcher[*testOp]()},
	}
	for _, tc := range dispatchers {
		t.Run(tc.name, func(t *testing.T) {
			const nops = 32
			ops := make([]*testOp, nops)
			for i := range ops {
				ops[i] = &testOp{}
			}
			pool := NewMessagePool(1)
			var id int64
			cycle := func() {
				for i := 0; i < 4*nops; i++ {
					id++
					m := pool.Get(0)
					m.ID = id
					m.PC = PriorityContext{PriLocal: vtime.Time(id % 97), PriGlobal: vtime.Time(id % 31)}
					tc.d.Push(ops[i%nops], m, -1)
				}
				for {
					op, ok := tc.d.NextOp(0)
					if !ok {
						break
					}
					for {
						m, ok := tc.d.PopMsg(op)
						if !ok {
							break
						}
						pool.Put(0, m)
					}
					tc.d.Done(op, 0)
				}
			}
			cycle() // grow heaps, rings, and the pool to steady state
			if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
				t.Errorf("%s dispatcher steady-state cycle allocates %.1f times, want 0", tc.name, allocs)
			}
		})
	}
}

// TestAllocsMessagePoolRoundTrip: a Get/Put round trip through the worker
// free list is allocation-free.
func TestAllocsMessagePoolRoundTrip(t *testing.T) {
	pool := NewMessagePool(1)
	pool.Put(0, pool.Get(0)) // prime the local list
	if allocs := testing.AllocsPerRun(100, func() {
		pool.Put(0, pool.Get(0))
	}); allocs > 0 {
		t.Errorf("pool round trip allocates %.1f times, want 0", allocs)
	}
}

// TestAllocsMessagePoolHandOff: the producer→worker→producer loop — draws
// through an external stash, releases on a worker's list, chunks in
// between — is allocation-free once the worker's list has filled, chunk
// arrays included (they recycle the other way).
func TestAllocsMessagePoolHandOff(t *testing.T) {
	pool := NewMessagePool(1)
	var stash MessageStash
	var held [100]*Message
	cycle := func() {
		for i := range held {
			held[i] = pool.GetExternal(&stash)
		}
		for _, m := range held {
			pool.Put(0, m)
		}
	}
	for i := 0; i < 2*msgListCap/len(held); i++ {
		cycle() // fill the worker's list to its cap so chunks start flowing
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
		t.Errorf("hand-off cycle of %d messages allocates %.1f times, want 0", len(held), allocs)
	}
}
