package core

import (
	"sync"
)

// chunkLen is how many recycled objects cross threads in one sync.Pool
// operation — the whole point of FreeList: an object's trip from the
// worker that released it back to the producer that needs it costs 1/64
// of a shared-pool round-trip instead of a whole one.
const chunkLen = 64

// chunk is the unit of the cross-thread hand-off: chunkLen recycled
// objects on the way out, an all-nil array recycled on the way back.
type chunk[T any] [chunkLen]*T

// Stash is one goroutine's end of a FreeList: a stack of recycled objects
// nobody else touches. Workers' stashes live in the FreeList (see Worker);
// an external producer brings its own (the ingest-side dataflow.Env holds
// one). The zero value is ready and keeps at most one chunk; a stash is
// used with exactly one FreeList.
type Stash[T any] struct {
	items []*T
	extra int      // how far past one chunk the stash may grow (workers)
	_     [32]byte // keep neighbouring stashes off each other's cache lines
}

// FreeList is the recycling structure behind MessagePool and
// dataflow.BatchPool. Objects flow in a loop — an external producer draws
// them, a worker releases them — and every participant works on its own
// lock-free Stash: a stash that outgrows its limit hands its newest
// chunkLen objects to the shared pool as ONE chunk, and an empty one
// refills from a whole chunk the same way. Workers keep up to the
// FreeList's limit, external producers a single chunk.
//
// Everything between stashes sits in sync.Pools, deliberately: what the
// producers do not take back is dropped by the garbage collector within
// two cycles, so an idle engine's footprint falls to the per-worker limits
// plus one chunk per live external Stash. A plain shared list would be
// cheaper still and pin its high-water mark forever.
//
// FreeList recycles pointers and nothing else; zeroing, poisoning and
// ownership marks belong to the typed pools wrapping it.
type FreeList[T any] struct {
	workers     []Stash[T]
	full, empty sync.Pool // of *chunk[T]
}

// Init sizes the list for the given worker count and per-worker limit
// (at least chunkLen).
func (f *FreeList[T]) Init(workers, limit int) {
	if limit < chunkLen {
		panic("core: FreeList limit below one chunk")
	}
	if workers < 0 {
		workers = 0
	}
	f.workers = make([]Stash[T], workers)
	for i := range f.workers {
		f.workers[i].extra = limit - chunkLen
	}
}

// Worker returns the given worker's stash, or nil when worker is not a
// worker index — Get then finds nothing and Put drops for the garbage
// collector: goroutines that are not workers bring their own Stash.
func (f *FreeList[T]) Worker(worker int) *Stash[T] {
	if worker < 0 || worker >= len(f.workers) {
		return nil
	}
	return &f.workers[worker]
}

// Get pops a recycled object from s, refilling it from the shared pool
// when it is empty; nil when the pool has none either (the caller
// allocates).
func (f *FreeList[T]) Get(s *Stash[T]) *T {
	if s == nil {
		return nil
	}
	n := len(s.items) - 1
	if n < 0 {
		return f.refill(s)
	}
	v := s.items[n]
	s.items[n] = nil
	s.items = s.items[:n]
	return v
}

// Put releases v into s, first handing a chunk to the shared pool if s is
// at its limit.
func (f *FreeList[T]) Put(s *Stash[T], v *T) {
	if s == nil {
		return
	}
	if len(s.items) >= chunkLen+s.extra {
		f.handOff(s)
	}
	s.items = append(s.items, v)
}

// refill moves one chunk from the shared pool into the empty stash s and
// pops its last object, or returns nil when the pool has none.
func (f *FreeList[T]) refill(s *Stash[T]) *T {
	c, _ := f.full.Get().(*chunk[T])
	if c == nil {
		return nil
	}
	v := c[chunkLen-1]
	s.items = append(s.items, c[:chunkLen-1]...)
	clear(c[:])
	f.empty.Put(c)
	return v
}

// handOff moves the newest chunkLen objects of s to the shared pool.
func (f *FreeList[T]) handOff(s *Stash[T]) {
	c, _ := f.empty.Get().(*chunk[T])
	if c == nil {
		c = new(chunk[T])
	}
	k := len(s.items) - chunkLen
	copy(c[:], s.items[k:])
	clear(s.items[k:])
	s.items = s.items[:k]
	f.full.Put(c)
}

// PoisonedID is stamped into a Message's ID the moment it is released to a
// MessagePool, so any use-after-release — a dispatcher or handler touching
// a recycled message — is observable (IDs the engine assigns are always
// positive). Get clears it again.
const PoisonedID int64 = -1 << 62

// msgListCap bounds each worker-local free list. Beyond it, surplus
// messages leave for the shared pool a chunk at a time — which is where
// external producers (ingest goroutines) refill from, so the workers'
// surplus circulates back to the sources in steady state.
const msgListCap = 512

// MessagePool recycles core.Message structs on the execution hot path
// through a FreeList: one lock-free list per worker, a Stash per external
// producer, chunks through sync.Pool in between.
//
// Ownership rules (the engine's recycling contract):
//
//   - a message is released exactly once, by the worker that finished
//     executing it, after every derived child has been built — child
//     priority contexts copy the parent's PC during context conversion,
//     so nothing references a parent once its execution completes;
//   - a released message must not be touched again; Put poisons the ID
//     (PoisonedID) and drops the payload reference so violations surface
//     in tests instead of corrupting scheduling silently;
//   - goroutines that are not workers (ingest, lifecycle calls, restore)
//     draw and release through their own MessageStash; the worker-indexed
//     Get and Put given a non-worker index fall back to plain allocation
//     and to the garbage collector.
//
// The zero MessagePool is not usable; call NewMessagePool. A nil
// *MessagePool is a valid "pooling off" pool: Get falls back to plain
// allocation and Put discards — which is how the deterministic simulator
// (whose messages outlive execution inside the event heap) runs the same
// dataflow code without recycling.
type MessagePool struct {
	fl FreeList[Message]
}

// MessageStash is an external producer's end of a MessagePool.
type MessageStash = Stash[Message]

// NewMessagePool returns a pool with one local free list per worker.
func NewMessagePool(workers int) *MessagePool {
	p := &MessagePool{}
	p.fl.Init(workers, msgListCap)
	return p
}

func zeroed(m *Message) *Message {
	if m == nil {
		return &Message{}
	}
	*m = Message{}
	return m
}

// poison prepares m for release: it must be unusable before it becomes
// reachable again.
func poison(m *Message) {
	m.ID = PoisonedID
	m.Payload = nil
}

// Get returns a zeroed message for the calling worker.
func (p *MessagePool) Get(worker int) *Message {
	if p == nil {
		return &Message{}
	}
	return zeroed(p.fl.Get(p.fl.Worker(worker)))
}

// Put releases m on the calling worker's list.
func (p *MessagePool) Put(worker int, m *Message) {
	if p == nil || m == nil {
		return
	}
	poison(m)
	p.fl.Put(p.fl.Worker(worker), m)
}

// GetExternal returns a zeroed message for an external producer.
func (p *MessagePool) GetExternal(s *MessageStash) *Message {
	if p == nil {
		return &Message{}
	}
	return zeroed(p.fl.Get(s))
}

// PutExternal releases m through an external producer's stash.
func (p *MessagePool) PutExternal(s *MessageStash, m *Message) {
	if p == nil || m == nil {
		return
	}
	poison(m)
	p.fl.Put(s, m)
}
