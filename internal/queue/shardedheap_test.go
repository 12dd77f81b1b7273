package queue

import (
	"sync"
	"testing"
	"unsafe"
)

// TestShardLaneLayout pins the lane padding: lanes sit back to back in
// ShardedHeap.shards, so a lane size that is not a whole number of cache
// lines would put one lane's lock-free top cache on the line holding the
// previous lane's mutex, and a mutex less than a line behind top would
// share a line with its own lane's cache.
func TestShardLaneLayout(t *testing.T) {
	const line = 64
	var l shardLane[int]
	if size := unsafe.Sizeof(l); size%line != 0 {
		t.Errorf("shardLane size %d is not a multiple of %d", size, line)
	}
	if gap := unsafe.Offsetof(l.mu) - unsafe.Offsetof(l.top); gap < line {
		t.Errorf("shardLane.mu starts %d bytes after top, want at least %d", gap, line)
	}
}

func TestShardedHeapLaneOrdering(t *testing.T) {
	s := NewShardedHeap[string](2)
	s.Push(0, "c", Pri{Key: 3})
	s.Push(0, "a", Pri{Key: 1})
	s.Push(0, "b", Pri{Key: 2})
	s.Push(GlobalLane, "g", Pri{Key: 0})
	if s.Len() != 4 || s.LaneLen(0) != 3 || s.LaneLen(GlobalLane) != 1 {
		t.Fatalf("lengths: total=%d lane0=%d global=%d", s.Len(), s.LaneLen(0), s.LaneLen(GlobalLane))
	}
	for _, want := range []string{"a", "b", "c"} {
		v, _, ok := s.PopLane(0)
		if !ok || v != want {
			t.Fatalf("PopLane(0) = %q, want %q", v, want)
		}
	}
	if v, _, ok := s.PopLane(GlobalLane); !ok || v != "g" {
		t.Fatalf("global pop = %q", v)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after draining", s.Len())
	}
}

func TestShardedHeapPopLocalOrGlobal(t *testing.T) {
	s := NewShardedHeap[string](2)
	s.Push(0, "local", Pri{Key: 5})
	s.Push(GlobalLane, "urgent", Pri{Key: 1})
	if v, _, _ := s.PopLocalOrGlobal(0); v != "urgent" {
		t.Fatalf("first pop = %q, want the more urgent global item", v)
	}
	if v, _, _ := s.PopLocalOrGlobal(0); v != "local" {
		t.Fatalf("second pop = %q, want local", v)
	}
	if _, _, ok := s.PopLocalOrGlobal(0); ok {
		t.Fatal("pop from empty heap succeeded")
	}
	// Local wins when it is the more urgent side.
	s.Push(0, "l2", Pri{Key: 1})
	s.Push(GlobalLane, "g2", Pri{Key: 5})
	if v, _, _ := s.PopLocalOrGlobal(0); v != "l2" {
		t.Fatalf("pop = %q, want more urgent local item", v)
	}
}

// TestShardedHeapStealMostUrgent is the stealing contract: a thief takes
// the most urgent item across all victims' shards, not the first or an
// arbitrary one.
func TestShardedHeapStealMostUrgent(t *testing.T) {
	s := NewShardedHeap[string](4)
	s.Push(1, "lax", Pri{Key: 50})
	s.Push(2, "mid", Pri{Key: 20})
	s.Push(3, "urgent", Pri{Key: 5})
	s.Push(3, "urgent2", Pri{Key: 7})
	for _, want := range []string{"urgent", "urgent2", "mid", "lax"} {
		v, _, ok := s.Steal(0)
		if !ok || v != want {
			t.Fatalf("Steal = %q, want %q", v, want)
		}
	}
	if _, _, ok := s.Steal(0); ok {
		t.Fatal("steal from empty heap succeeded")
	}
	// A thief never steals from its own shard.
	s.Push(0, "own", Pri{Key: 1})
	if _, _, ok := s.Steal(0); ok {
		t.Fatal("thief stole from its own shard")
	}
}

func TestShardedHeapUpdateAndRemove(t *testing.T) {
	s := NewShardedHeap[string](1)
	s.Push(0, "x", Pri{Key: 10})
	s.Push(0, "y", Pri{Key: 5})
	if !s.Update(0, "x", Pri{Key: 1}) {
		t.Fatal("Update of present value failed")
	}
	if s.Update(0, "ghost", Pri{Key: 1}) {
		t.Fatal("Update of absent value succeeded")
	}
	if v, _, _ := s.PeekLane(0); v != "x" {
		t.Fatalf("head after re-key = %q", v)
	}
	if !s.Remove(0, "x") || s.Remove(0, "x") {
		t.Fatal("Remove semantics wrong")
	}
	if v, _, _ := s.PopLane(0); v != "y" || s.Len() != 0 {
		t.Fatalf("after remove: pop=%q len=%d", v, s.Len())
	}
}

// TestShardedHeapConcurrent hammers all entry points from many goroutines;
// run under -race it checks the locking, and the final count checks that
// no item is lost or duplicated.
func TestShardedHeapConcurrent(t *testing.T) {
	const (
		shards  = 4
		pushers = 8
		items   = 2000
	)
	s := NewShardedHeap[int](shards)
	var popped sync.Map
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				id := g*items + i
				lane := id % (shards + 1)
				if lane == shards {
					lane = GlobalLane
				}
				s.Push(lane, id, Pri{Key: int64(id % 97), Tie: int64(id)})
			}
		}(g)
	}
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			misses := 0
			for misses < 1000 {
				v, _, ok := s.PopLocalOrGlobal(w)
				if !ok {
					v, _, ok = s.Steal(w)
				}
				if !ok {
					misses++
					continue
				}
				misses = 0
				if _, dup := popped.LoadOrStore(v, true); dup {
					t.Errorf("item %d popped twice", v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain the stragglers left when the consumers hit their miss limit.
	for {
		v, _, ok := s.PopLocalOrGlobal(0)
		if !ok {
			if v, _, ok = s.Steal(0); !ok {
				break
			}
		}
		if _, dup := popped.LoadOrStore(v, true); dup {
			t.Fatalf("item %d popped twice", v)
		}
	}
	total := 0
	popped.Range(func(any, any) bool { total++; return true })
	if total != pushers*items {
		t.Fatalf("popped %d items, pushed %d", total, pushers*items)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain", s.Len())
	}
}

// checkTopsLocked asserts, for every lane, that the seqlock-published top
// cache matches the heap's real head under the lane lock. Holding the
// lock excludes writers, so the cached read must be consistent (valid)
// and exact — the invariant every peek-shaped fast path (TopOf) relies
// on.
func checkTopsLocked(t *testing.T, s *ShardedHeap[int]) {
	t.Helper()
	for lane := GlobalLane; lane < len(s.shards); lane++ {
		l, _ := s.lane(lane)
		l.mu.Lock()
		_, want, wok := l.h.PeekMin()
		got, has, valid := l.top.read()
		l.mu.Unlock()
		if !valid {
			t.Errorf("lane %d: top cache torn while lane lock held", lane)
			continue
		}
		if has != wok || (wok && got != want) {
			t.Errorf("lane %d: cached top (%+v, %v) != heap head (%+v, %v)",
				lane, got, has, want, wok)
		}
	}
}

// TestShardedHeapTopCache pins the cache against the locked head through
// a deterministic mutation sequence covering every publish site: push,
// pop, re-key up and down, remove of head and non-head, and emptying.
func TestShardedHeapTopCache(t *testing.T) {
	s := NewShardedHeap[int](2)
	step := func(f func()) {
		f()
		checkTopsLocked(t, s)
	}
	step(func() {})                             // fresh lanes read empty
	step(func() { s.Push(0, 1, Pri{Key: 30}) }) // first push
	step(func() { s.Push(0, 2, Pri{Key: 10}) }) // new head
	step(func() { s.Push(0, 3, Pri{Key: 20}) }) // non-head push
	step(func() { s.Push(GlobalLane, 4, Pri{Key: 5}) })
	step(func() { s.Update(0, 3, Pri{Key: 1}) })  // re-key to head
	step(func() { s.Update(0, 3, Pri{Key: 40}) }) // re-key off head
	step(func() { s.Remove(0, 2) })               // remove head
	step(func() { s.Remove(0, 3) })               // remove non-head
	step(func() { s.PopLane(0) })                 // pop to empty
	step(func() { s.PopLane(GlobalLane) })        // empty the global lane
	if p, ok := s.TopOf(0); ok {
		t.Fatalf("TopOf(0) = %+v on empty lane", p)
	}
	s.Push(1, 9, Pri{Key: 7, Tie: 3})
	if p, ok := s.TopOf(1); !ok || p != (Pri{Key: 7, Tie: 3}) {
		t.Fatalf("TopOf(1) = %+v,%v want {7 3},true", p, ok)
	}
}

// TestShardedHeapTopCacheRace is the -race property test of the lane-top
// cache: concurrent pushers, poppers, stealers, updaters, and removers
// hammer the heap while a checker repeatedly validates — under each lane
// lock — that the published top equals the heap's head. Any publish site
// that forgot to refresh the cache, or any torn read reachable with the
// lock held, fails here.
func TestShardedHeapTopCacheRace(t *testing.T) {
	const (
		shards  = 4
		pushers = 4
		items   = 1500
	)
	s := NewShardedHeap[int](shards)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				id := g*items + i
				lane := id % (shards + 1)
				if lane == shards {
					lane = GlobalLane
				}
				s.Push(lane, id, Pri{Key: int64(id % 89), Tie: int64(id)})
				switch id % 5 {
				case 0:
					s.Update(lane, id, Pri{Key: int64(id % 13), Tie: int64(id)})
				case 1:
					s.Remove(lane, id)
				}
			}
		}(g)
	}
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			misses := 0
			for misses < 500 {
				if _, _, ok := s.PopLocalOrGlobal(w); ok {
					misses = 0
					continue
				}
				if _, _, ok := s.Steal(w); ok {
					misses = 0
					continue
				}
				misses++
			}
		}(w)
	}
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			checkTopsLocked(t, s)
		}
	}()
	wg.Wait()
	close(stop)
	checker.Wait()
	checkTopsLocked(t, s) // and once at rest
}
