// Package queue provides the priority and run-queue data structures under
// the schedulers: an indexed binary min-heap with update-key (the Cameo
// dispatcher's waiting queue), its sharded concurrent form (the real-time
// engine's run queue: one heap per worker plus a global lane), a growable
// FIFO ring (the baseline dispatchers' per-operator message queues and the
// FIFO baseline's run queue), and Bag, the simulator's sequential model of
// the .NET ConcurrentBag the default Orleans scheduler runs on.
package queue

// Pri is a two-part priority: Key orders items (lower is more urgent) and
// Tie breaks equal keys deterministically (typically an arrival sequence
// number). Deterministic tie-breaking is what makes simulated experiments
// reproducible bit-for-bit.
type Pri struct {
	Key int64
	Tie int64
}

// Less reports whether p is strictly more urgent than q.
func (p Pri) Less(q Pri) bool {
	if p.Key != q.Key {
		return p.Key < q.Key
	}
	return p.Tie < q.Tie
}

type heapEntry[T comparable] struct {
	value T
	pri   Pri
}

// IndexedHeap is a binary min-heap over unique values with O(log n)
// update-key and remove. The Cameo scheduler re-keys an operator whenever
// its head message changes, which is exactly the update-key operation.
// The zero value is not usable; call NewIndexedHeap or NewSlotHeap.
//
// Position tracking comes in two flavors. NewIndexedHeap tracks positions
// in an internal map — works for any comparable value, but every push,
// pop, and sift pays a map operation and the map itself churns memory.
// NewSlotHeap tracks positions *intrusively*: the caller supplies an
// accessor returning a per-value *int32 slot, and the heap stores the
// value's index there (encoded index+1, 0 = absent), making membership
// and update-key lookups a pointer dereference with zero allocation.
type IndexedHeap[T comparable] struct {
	entries []heapEntry[T]
	pos     map[T]int      // nil in slot mode
	slot    func(T) *int32 // nil in map mode
}

// NewIndexedHeap returns an empty heap with map-based position tracking.
func NewIndexedHeap[T comparable]() *IndexedHeap[T] {
	return &IndexedHeap[T]{pos: make(map[T]int)}
}

// NewSlotHeap returns an empty heap that stores each value's position in
// the *int32 slot the accessor returns (index+1; 0 means absent), so the
// slot's zero value is "not in the heap".
//
// The slot is the value's identity across every heap sharing the accessor:
// a value may be in at most ONE such heap at a time (Contains verifies the
// entry at the recorded index to tolerate a stale slot, but concurrent
// membership in two slot heaps corrupts both). That is exactly the
// scheduling invariant — an operator waits on at most one run queue.
func NewSlotHeap[T comparable](slot func(T) *int32) *IndexedHeap[T] {
	return &IndexedHeap[T]{slot: slot}
}

// setPos records v's position i.
func (h *IndexedHeap[T]) setPos(v T, i int) {
	if h.slot != nil {
		*h.slot(v) = int32(i + 1)
		return
	}
	h.pos[v] = i
}

// getPos returns v's recorded position, verifying it in slot mode (a slot
// may be stale when v sits in a sibling lane of a sharded heap).
func (h *IndexedHeap[T]) getPos(v T) (int, bool) {
	if h.slot != nil {
		i := int(*h.slot(v)) - 1
		if i < 0 || i >= len(h.entries) || h.entries[i].value != v {
			return 0, false
		}
		return i, true
	}
	i, ok := h.pos[v]
	return i, ok
}

// delPos clears v's recorded position.
func (h *IndexedHeap[T]) delPos(v T) {
	if h.slot != nil {
		*h.slot(v) = 0
		return
	}
	delete(h.pos, v)
}

// Len reports the number of items.
func (h *IndexedHeap[T]) Len() int { return len(h.entries) }

// Contains reports whether v is in the heap.
func (h *IndexedHeap[T]) Contains(v T) bool {
	_, ok := h.getPos(v)
	return ok
}

// Push inserts v with priority p. It panics if v is already present —
// callers must use Update for re-keying; a silent double insert would
// corrupt scheduling order.
func (h *IndexedHeap[T]) Push(v T, p Pri) {
	if _, ok := h.getPos(v); ok {
		panic("queue: Push of value already in heap")
	}
	h.entries = append(h.entries, heapEntry[T]{value: v, pri: p})
	i := len(h.entries) - 1
	h.setPos(v, i)
	h.up(i)
}

// Update re-keys v to priority p. It panics if v is absent.
func (h *IndexedHeap[T]) Update(v T, p Pri) {
	i, ok := h.getPos(v)
	if !ok {
		panic("queue: Update of value not in heap")
	}
	old := h.entries[i].pri
	h.entries[i].pri = p
	if p.Less(old) {
		h.up(i)
	} else {
		h.down(i)
	}
}

// PushOrUpdate inserts v or re-keys it if already present.
func (h *IndexedHeap[T]) PushOrUpdate(v T, p Pri) {
	if h.Contains(v) {
		h.Update(v, p)
	} else {
		h.Push(v, p)
	}
}

// PeekMin returns the most urgent value and its priority without removing
// it. ok is false when the heap is empty.
func (h *IndexedHeap[T]) PeekMin() (v T, p Pri, ok bool) {
	if len(h.entries) == 0 {
		return v, p, false
	}
	return h.entries[0].value, h.entries[0].pri, true
}

// PopMin removes and returns the most urgent value.
func (h *IndexedHeap[T]) PopMin() (v T, p Pri, ok bool) {
	if len(h.entries) == 0 {
		return v, p, false
	}
	e := h.entries[0]
	h.removeAt(0)
	return e.value, e.pri, true
}

// Remove deletes v if present and reports whether it was.
func (h *IndexedHeap[T]) Remove(v T) bool {
	i, ok := h.getPos(v)
	if !ok {
		return false
	}
	h.removeAt(i)
	return true
}

// PriOf returns v's current priority; ok is false when absent.
func (h *IndexedHeap[T]) PriOf(v T) (Pri, bool) {
	i, ok := h.getPos(v)
	if !ok {
		return Pri{}, false
	}
	return h.entries[i].pri, true
}

func (h *IndexedHeap[T]) removeAt(i int) {
	last := len(h.entries) - 1
	h.delPos(h.entries[i].value)
	if i != last {
		h.entries[i] = h.entries[last]
		h.setPos(h.entries[i].value, i)
	}
	var zero heapEntry[T]
	h.entries[last] = zero // release the reference for GC
	h.entries = h.entries[:last]
	if i < len(h.entries) {
		h.up(i)
		h.down(i)
	}
}

func (h *IndexedHeap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.entries[i].pri.Less(h.entries[parent].pri) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedHeap[T]) down(i int) {
	n := len(h.entries)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.entries[l].pri.Less(h.entries[smallest].pri) {
			smallest = l
		}
		if r < n && h.entries[r].pri.Less(h.entries[smallest].pri) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *IndexedHeap[T]) swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.setPos(h.entries[i].value, i)
	h.setPos(h.entries[j].value, j)
}
