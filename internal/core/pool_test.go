package core_test

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/testkit"
)

// TestMessagePoolHandOff drives the pool the way the engine does — an
// external producer drawing through its stash, a worker releasing on its
// own list, messages crossing between them — and pins the two properties
// the chunked hand-off exists for:
//
//   - recycling is complete: the message population stops growing once it
//     covers everything that can be in flight or listed, however long the
//     run — although producer and worker only ever meet through 64-object
//     chunks (TestAllocsMessagePoolHandOff pins the same loop at exactly
//     zero allocations where the schedule is deterministic);
//   - recycling is not retention: after two garbage collections the pool
//     can hand back no more than the worker's list cap plus the producer's
//     one chunk — everything in between lived in sync.Pools and is gone.
//     (This is what keeps an idle engine's live heap flat.)
func TestMessagePoolHandOff(t *testing.T) {
	const (
		inFlight = 256      // channel capacity between producer and worker
		retained = 512 + 64 // msgListCap + one chunk for the stash
		draws    = 100_000
	)
	// A collection mid-run would empty the sync.Pools and force fresh
	// allocations that say nothing about the hand-off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	p := core.NewMessagePool(1)
	var stash core.MessageStash
	seen := make(map[*core.Message]bool)
	ch := make(chan *core.Message, inFlight)
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for m := range ch {
			if m.ID <= 0 {
				t.Errorf("worker received a released message (ID %d)", m.ID)
			}
			p.Put(0, m)
		}
	}()
	for i := 1; i <= draws; i++ {
		m := p.GetExternal(&stash)
		if m.ID != 0 || m.Payload != nil {
			t.Fatalf("Get returned a dirty message: %+v", m)
		}
		seen[m] = true
		m.ID = int64(i)
		ch <- m
	}
	close(ch)
	consumer.Wait()
	// A draw allocates only when every existing message is somewhere the
	// producer cannot reach: in flight, on the worker's list, or in a chunk
	// hidden in some P's sync.Pool private slot. (Not under -race, where
	// sync.Pool drops a quarter of what it is given.)
	if bound := inFlight + retained + 64*(runtime.GOMAXPROCS(0)+1); len(seen) > bound && !testkit.RaceEnabled {
		t.Errorf("%d draws grew the population to %d, want <= %d", draws, len(seen), bound)
	}

	runtime.GC()
	runtime.GC()
	kept := 0
	for seen[p.Get(0)] {
		kept++
	}
	for seen[p.GetExternal(&stash)] {
		kept++
	}
	if kept > retained {
		t.Errorf("pool still holds %d messages after two GCs, want <= %d", kept, retained)
	}
	if kept == 0 {
		t.Error("pool holds nothing after two GCs — the worker list should survive a collection")
	}
}
