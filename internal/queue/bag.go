package queue

// Bag models the run-queue semantics of .NET's ConcurrentBag<T>, which the
// default Orleans scheduler uses for its global message queue (paper §6:
// "ConcurrentBag optimizes processing throughput by prioritizing processing
// thread-local tasks over the global ones").
//
// Semantics reproduced here:
//
//   - each worker owns a local list; work a worker generates lands on its
//     own list and is retrieved LIFO (freshest first, best locality);
//   - items added from outside any worker (network/source arrivals) land in
//     a shared global FIFO;
//   - a worker takes from its local list first, then the global FIFO, then
//     steals from the *opposite* end (FIFO) of other workers' lists.
//
// A bag with no local lists (NewBag(0)) is one global FIFO: every add
// lands there. That is the FIFO baseline's run queue.
//
// This is a sequential model for the deterministic simulator, which is
// where the Orleans baseline runs. Concurrency-safety inside the structure
// would buy nothing but non-determinism in the experiments.
type Bag[T comparable] struct {
	locals []Ring[T] // per-worker deques; PushBack = local push, steal from front
	global Ring[T]
	size   int
}

// NewBag returns a bag with one local list per worker; 0 workers gives a
// bag with the global FIFO only.
func NewBag[T comparable](workers int) *Bag[T] {
	if workers < 0 {
		panic("queue: Bag needs a non-negative worker count")
	}
	return &Bag[T]{locals: make([]Ring[T], workers)}
}

// Len reports the total queued items across all lists.
func (b *Bag[T]) Len() int { return b.size }

// Add pushes v onto worker w's local list, or onto the global FIFO if w
// has none.
func (b *Bag[T]) Add(w int, v T) {
	if w < len(b.locals) {
		b.locals[w].PushBack(v)
	} else {
		b.global.PushBack(v)
	}
	b.size++
}

// AddGlobal pushes v onto the shared FIFO, for producers that are not
// workers (sources, network).
func (b *Bag[T]) AddGlobal(v T) {
	b.global.PushBack(v)
	b.size++
}

// Take returns the next item for worker w: local LIFO first, then the global
// FIFO, then round-robin stealing from other workers' list heads.
// ok is false when the bag is empty.
func (b *Bag[T]) Take(w int) (v T, ok bool) {
	if w < len(b.locals) {
		if v, ok = b.locals[w].PopBack(); ok { // LIFO: freshest local item
			b.size--
			return v, true
		}
	}
	if v, ok = b.global.PopFront(); ok {
		b.size--
		return v, true
	}
	for i := 1; i < len(b.locals); i++ {
		victim := (w + i) % len(b.locals)
		if v, ok = b.locals[victim].PopFront(); ok { // steal oldest
			b.size--
			return v, true
		}
	}
	return v, false
}
