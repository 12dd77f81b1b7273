package queue

import (
	"sync"
	"sync/atomic"
)

// GlobalLane is the lane index of a ShardedHeap's overflow lane.
const GlobalLane = -1

// laneTop is a lane's lock-free head cache: the Pri of the lane's current
// most-urgent value, published under the lane lock through a seqlock so
// readers never take the lock. Pri is two int64s — too wide for one atomic
// word — so the writer brackets the field stores with two sequence bumps
// (odd = update in progress) and a reader retries when the sequence moved
// or is odd. Writers are serialized by the lane lock, so a reader's retry
// window is a handful of stores.
type laneTop struct {
	seq atomic.Uint64
	key atomic.Int64
	tie atomic.Int64
	has atomic.Bool
}

// write publishes (p, has) as the lane's current top. Caller holds the
// lane lock.
func (t *laneTop) write(p Pri, has bool) {
	t.seq.Add(1) // odd: update in progress
	t.key.Store(p.Key)
	t.tie.Store(p.Tie)
	t.has.Store(has)
	t.seq.Add(1) // even: consistent
}

// read returns the cached top without locking. valid is false when the
// read tore against a concurrent write (retry or fall back to the lock);
// has is false when the lane was empty at publish time.
func (t *laneTop) read() (p Pri, has, valid bool) {
	s := t.seq.Load()
	if s&1 != 0 {
		return Pri{}, false, false
	}
	p = Pri{Key: t.key.Load(), Tie: t.tie.Load()}
	has = t.has.Load()
	if t.seq.Load() != s {
		return Pri{}, false, false
	}
	return p, has, true
}

// shardLane is one lane of a ShardedHeap, laid out as two 64-byte cache
// lines: the lock-free top cache alone on the first, the mutex and heap
// pointer on the second. TestShardLaneLayout pins both properties.
type shardLane[T comparable] struct {
	// top is read lock-free by every peek-shaped operation (shouldYield,
	// steal scans, the acquisition peek); it leads the struct with padding
	// behind it so those reads never share a cache line with the bouncing
	// mutex word — its own lane's, or (lanes sit back to back in a slice)
	// the previous lane's.
	top laneTop
	_   [32]byte
	mu  sync.Mutex
	h   *IndexedHeap[T]
	_   [48]byte // pad the lane to a whole number of cache lines
}

// publishTop refreshes the lane's top cache from its heap. Caller holds
// the lane lock; every mutation under that lock must call it before
// unlocking so the cache never lags a committed change.
func (l *shardLane[T]) publishTop() {
	_, p, ok := l.h.PeekMin()
	l.top.write(p, ok)
}

// ShardedHeap is the concurrent run-queue under the real-time engine's
// sharded dispatcher: one priority heap ("shard") per worker plus a global
// overflow lane, each behind its own mutex. It is the deadline-ordered
// concurrent realization of the Bag semantics — per-worker local lists with
// a shared lane and stealing — except every lane is a min-heap on Pri, so a
// worker always takes its most urgent local item and steals the most urgent
// item of a victim, never an arbitrary one.
//
// Lock discipline: every operation locks at most ONE lane at a time, so
// callers may hold their own (coarser) locks around ShardedHeap calls
// without ordering hazards. Membership is not tracked across lanes; callers
// that need re-keying remember which lane they inserted a value into and
// pass it back (a stale lane index is safe — Update reports false when the
// value is no longer there).
type ShardedHeap[T comparable] struct {
	shards []shardLane[T]
	global shardLane[T]
	// lens[i] mirrors shard i's heap length and glen the global lane's, so
	// idle checks and steal scans can skip empty lanes without locking.
	lens []atomic.Int64
	glen atomic.Int64
	size atomic.Int64
}

// NewShardedHeap returns a heap with the given number of worker shards.
func NewShardedHeap[T comparable](shards int) *ShardedHeap[T] {
	return newShardedHeap(shards, NewIndexedHeap[T])
}

// NewSlotShardedHeap returns a sharded heap whose lanes track positions
// intrusively through the given slot accessor (see NewSlotHeap). Because a
// value lives in at most one lane at a time — the caller's lane-membership
// invariant — one slot serves all lanes. Slot reads and writes happen only
// under the owning lane's lock; callers must ensure a value's *additions*
// to lanes are externally serialized (removals may race freely), so the
// slot is never written under two different lane locks at once.
func NewSlotShardedHeap[T comparable](shards int, slot func(T) *int32) *ShardedHeap[T] {
	return newShardedHeap(shards, func() *IndexedHeap[T] { return NewSlotHeap(slot) })
}

func newShardedHeap[T comparable](shards int, mk func() *IndexedHeap[T]) *ShardedHeap[T] {
	if shards <= 0 {
		panic("queue: ShardedHeap needs at least one shard")
	}
	s := &ShardedHeap[T]{
		shards: make([]shardLane[T], shards),
		lens:   make([]atomic.Int64, shards),
	}
	for i := range s.shards {
		s.shards[i].h = mk()
	}
	s.global.h = mk()
	return s
}

// Len reports the total queued values across all lanes.
func (s *ShardedHeap[T]) Len() int { return int(s.size.Load()) }

// LaneLen reports lane's current length without locking (GlobalLane for the
// overflow lane). It is a racy snapshot, suitable only for heuristics.
func (s *ShardedHeap[T]) LaneLen(lane int) int {
	if lane == GlobalLane {
		return int(s.glen.Load())
	}
	return int(s.lens[lane].Load())
}

func (s *ShardedHeap[T]) lane(i int) (*shardLane[T], *atomic.Int64) {
	if i == GlobalLane {
		return &s.global, &s.glen
	}
	return &s.shards[i], &s.lens[i]
}

// Push inserts v with priority p into the given lane (GlobalLane for the
// overflow lane). v must not already be in that lane.
func (s *ShardedHeap[T]) Push(lane int, v T, p Pri) {
	l, n := s.lane(lane)
	l.mu.Lock()
	l.h.Push(v, p)
	n.Store(int64(l.h.Len()))
	l.publishTop()
	l.mu.Unlock()
	s.size.Add(1)
}

// Update re-keys v inside the given lane, reporting whether v was present.
// A false return means v was concurrently popped or stolen — the popper
// observes the caller's state change instead, so a miss is never an error.
func (s *ShardedHeap[T]) Update(lane int, v T, p Pri) bool {
	l, _ := s.lane(lane)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.h.Contains(v) {
		return false
	}
	l.h.Update(v, p)
	l.publishTop()
	return true
}

// Remove deletes v from the given lane if still present.
func (s *ShardedHeap[T]) Remove(lane int, v T) bool {
	l, n := s.lane(lane)
	l.mu.Lock()
	ok := l.h.Remove(v)
	n.Store(int64(l.h.Len()))
	if ok {
		l.publishTop()
	}
	l.mu.Unlock()
	if ok {
		s.size.Add(-1)
	}
	return ok
}

// PopLane removes and returns the most urgent value of one lane.
func (s *ShardedHeap[T]) PopLane(lane int) (v T, p Pri, ok bool) {
	l, n := s.lane(lane)
	l.mu.Lock()
	v, p, ok = l.h.PopMin()
	n.Store(int64(l.h.Len()))
	if ok {
		l.publishTop()
	}
	l.mu.Unlock()
	if ok {
		s.size.Add(-1)
	}
	return v, p, ok
}

// PeekLane returns the most urgent value of one lane without removing it.
func (s *ShardedHeap[T]) PeekLane(lane int) (v T, p Pri, ok bool) {
	l, _ := s.lane(lane)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.PeekMin()
}

// TopOf returns the priority of lane's most urgent value without taking
// the lane lock — a pure read of the lane's seqlock-published top cache.
// ok is false when the lane is empty. Like any unlocked peek it is a
// heuristic snapshot: the lane may change the instant it returns, so
// callers that act on it must tolerate a lost race (every pop re-validates
// under the lane lock). Unlike LaneLen it is exact at the instant of a
// consistent read — the cache is republished under the lane lock by every
// mutation before that mutation unlocks.
func (s *ShardedHeap[T]) TopOf(lane int) (p Pri, ok bool) {
	l, _ := s.lane(lane)
	for i := 0; i < 4; i++ {
		if p, has, valid := l.top.read(); valid {
			return p, has
		}
	}
	// Four torn reads in a row means writers are landing back to back;
	// take the lock rather than spin unboundedly in a peek.
	l.mu.Lock()
	_, p, ok = l.h.PeekMin()
	l.mu.Unlock()
	return p, ok
}

// PopLocalOrGlobal removes and returns the more urgent of worker w's shard
// head and the global lane head — the acquisition fast path. The peek
// phase is two lock-free top-cache reads; only the chosen lane is locked,
// to pop. Under contention the choice is a heuristic snapshot; the popped
// value is always the current minimum of the lane it came from.
func (s *ShardedHeap[T]) PopLocalOrGlobal(w int) (v T, p Pri, ok bool) {
	for attempt := 0; attempt < 2; attempt++ {
		lp, lok := s.TopOf(w)
		gp, gok := s.TopOf(GlobalLane)
		if !lok && !gok {
			return v, p, false
		}
		first, second := w, GlobalLane
		if gok && (!lok || gp.Less(lp)) {
			first, second = GlobalLane, w
		}
		if v, p, ok = s.PopLane(first); ok {
			return v, p, true
		}
		if v, p, ok = s.PopLane(second); ok {
			return v, p, true
		}
		// Both lanes were emptied between peek and pop (a thief took the
		// local head, another worker the global); rescan once.
	}
	return v, p, false
}

// Steal removes and returns the most urgent value among all OTHER workers'
// shards — priority-aware stealing: the thief scans every victim's head and
// takes the globally most urgent, not the first it finds. The scan is pure
// top-cache reads (no victim is locked); only the chosen victim is locked,
// to pop. ok is false when every victim is empty.
func (s *ShardedHeap[T]) Steal(thief int) (v T, p Pri, ok bool) {
	for attempt := 0; attempt < 2; attempt++ {
		best, found := -1, false
		var bestPri Pri
		for i := 1; i < len(s.shards); i++ {
			victim := (thief + i) % len(s.shards)
			if vp, vok := s.TopOf(victim); vok && (!found || vp.Less(bestPri)) {
				best, bestPri, found = victim, vp, true
			}
		}
		if !found {
			return v, p, false
		}
		if v, p, ok = s.PopLane(best); ok {
			return v, p, true
		}
		// The chosen victim was drained between peek and pop; rescan once.
	}
	return v, p, false
}
