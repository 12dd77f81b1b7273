package dataflow

import (
	"math/bits"
	"slices"
	"sync"

	"github.com/cameo-stream/cameo/internal/core"
)

// Env is the per-worker execution environment of the hot path: the policy
// and ID allocator, the message/batch pools, and the reusable scratch
// buffers Invoke and Finish emit into and every fan-out cuts a batch in
// (Cut: both engines' ingest, and Finish). One Env belongs to
// exactly one goroutine at a time — the real-time engine keeps one per
// worker plus a small pool it lends to ingest goroutines and other
// non-worker callers; the sequential simulator keeps a single Env — so
// nothing in it is synchronized.
//
// The scratch buffers make the steady-state execute path allocation-free:
// the outcome of one execution is fully consumed (children pushed, outputs
// recorded) before the owning goroutine executes its next message, so the
// buffers can be truncated and refilled instead of reallocated.
type Env struct {
	// Policy generates priority contexts; NextID allocates message IDs
	// (strictly increasing per engine).
	Policy core.Policy
	NextID func() int64
	// Worker is the owning worker's index, or -1 for external producers
	// (ingest goroutines, the simulator).
	Worker int
	// Msgs recycles message structs; nil disables message pooling (the
	// simulator, whose messages outlive execution in the event heap).
	Msgs *core.MessagePool
	// Batches recycles engine-created tuple batches; nil disables batch
	// pooling.
	Batches *BatchPool

	ctx Context
	out ExecOutcome
	cut Cut
	// An external env's ends of the two pools (see core.FreeList): recycled
	// objects reach it a chunk at a time. Worker envs use the pools'
	// worker-indexed stashes instead.
	msgStash   core.MessageStash
	batchStash BatchStash
}

// NewEnv returns an execution environment with pooling disabled (Msgs and
// Batches nil). Engines that pool set the fields after construction.
func NewEnv(policy core.Policy, nextID func() int64, worker int) *Env {
	return &Env{Policy: policy, NextID: nextID, Worker: worker}
}

// NewMessage draws a zeroed message from the pool (or the heap when
// pooling is off).
func (e *Env) NewMessage() *core.Message {
	if e.Worker < 0 {
		return e.Msgs.GetExternal(&e.msgStash)
	}
	return e.Msgs.Get(e.Worker)
}

// FreeMessage releases a message that will not be touched again — executed,
// or discarded unexecuted — back to the pool. Callers must respect the
// pool's ownership rules (see core.MessagePool).
func (e *Env) FreeMessage(m *core.Message) {
	if e.Worker < 0 {
		e.Msgs.PutExternal(&e.msgStash, m)
		return
	}
	e.Msgs.Put(e.Worker, m)
}

// NewBatch draws a reset batch with room for capacity tuples from the
// batch pool, or allocates one when pooling is off.
func (e *Env) NewBatch(capacity int) *Batch {
	if e.Worker < 0 {
		return e.Batches.GetExternal(&e.batchStash, capacity)
	}
	return e.Batches.Get(e.Worker, capacity)
}

// FreeBatch releases an engine-owned batch. Externally owned batches
// (anything not drawn from the pool) are ignored, so callers may free
// unconditionally.
func (e *Env) FreeBatch(b *Batch) {
	if e.Worker < 0 {
		e.Batches.PutExternal(&e.batchStash, b)
		return
	}
	e.Batches.Put(e.Worker, b)
}

// Cut cuts b across n partitions into the env's scratch (see Cut); call
// Release once every partition is merged or taken. A split counts the
// tuples per partition and then places each tuple's index in its
// partition's run (a counting sort), so Part and Merge touch only their
// own partition's tuples.
func (e *Env) Cut(b *Batch, n int) *Cut {
	c := &e.cut
	c.env, c.b, c.taken = e, b, false
	c.split = n > 1 && b != nil && b.Keys != nil
	if !c.split {
		return c
	}
	c.start = slices.Grow(c.start[:0], n+1)[:n+1]
	start := c.start
	clear(start)
	tuples := len(b.Times)
	c.of = slices.Grow(c.of[:0], tuples)[:tuples]
	c.idx = slices.Grow(c.idx[:0], tuples)[:tuples]
	for k, key := range b.Keys[:tuples] {
		p := int32(partOf(key, n))
		c.of[k] = p
		start[p+1]++
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	// Partition p's run is now start[p]:start[p+1]. Placing the tuples in
	// source order with start[p] as p's cursor leaves start[p] at the end
	// of p's run, where p+1's begins: shift the bounds back up by one.
	for k, p := range c.of {
		c.idx[start[p]] = int32(k)
		start[p]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return c
}

// Release ends the cut: the source batch goes back to the pool unless
// Part handed it on whole — a no-op for externally created batches, which
// their callers keep (the networked ingest tier's leased decode buffers
// recycle this way).
func (c *Cut) Release() {
	if !c.taken {
		c.env.FreeBatch(c.b)
	}
	c.b = nil
}

// batchListCap bounds each worker-local batch free list; surplus leaves
// for the shared pool a chunk at a time, where external producers refill.
const batchListCap = 256

// smallBatch is the capacity of every batch the free lists hold: a request
// for at most this many tuples gets one of them, and a batch that grew
// past it recycles through the large tier instead.
const smallBatch = 8

// largeClasses is the number of large-tier size classes: class k holds
// batches of capacity [16<<k, 32<<k), the last one everything above.
const largeClasses = 16

// BatchPool recycles engine-created tuple batches (partitions, window
// results, leased decode buffers, coalesced payloads) in two tiers, and
// always hands out a batch with room for the capacity asked for:
//
//   - small batches (capacity smallBatch) go through a core.FreeList: one
//     lock-free list per worker, a BatchStash per external producer,
//     chunks through sync.Pool in between;
//   - every larger batch goes through a sync.Pool per power-of-two size
//     class, so a grown or large batch never sits in a worker's list, and
//     the garbage collector drops idle ones within two cycles. Kept in the
//     lists, batches grown for window results and coalesced payloads
//     pinned the pool's high-water mark.
//
// Ownership is tracked on the batch itself: Get marks a batch pooled, Put
// accepts only pooled batches and unmarks them (making a double free a
// no-op instead of a corruption), and externally created batches — ingested
// by callers, built with NewBatch — are never recycled. Goroutines that
// are not workers draw and release small batches through their own
// BatchStash; the worker-indexed Get and Put given a non-worker index fall
// back to plain allocation and to the garbage collector for those. A nil
// *BatchPool is a valid "pooling off" pool.
type BatchPool struct {
	fl    core.FreeList[Batch]
	large [largeClasses]sync.Pool // of *Batch
}

// BatchStash is an external producer's end of a BatchPool.
type BatchStash = core.Stash[Batch]

// NewBatchPool returns a pool with one local free list per worker.
func NewBatchPool(workers int) *BatchPool {
	p := &BatchPool{}
	p.fl.Init(workers, batchListCap)
	return p
}

// lease turns a recycled batch (or nil) into an empty pooled one with room
// for capacity tuples in every column; a recycled batch without that room
// (a column a restore left absent) is dropped for a fresh one.
func lease(b *Batch, capacity int) *Batch {
	if b == nil || cap(b.Times) < capacity || cap(b.Keys) < capacity || cap(b.Vals) < capacity {
		b = NewBatch(capacity)
	} else {
		b.Times = b.Times[:0]
		b.Keys = b.Keys[:0]
		b.Vals = b.Vals[:0]
	}
	b.pooled = true
	return b
}

// unlease reports whether b may be recycled, and unmarks it if so.
func (p *BatchPool) unlease(b *Batch) bool {
	if p == nil || b == nil || !b.pooled {
		return false
	}
	b.pooled = false
	return true
}

// get leases a batch for capacity tuples, a small one from stash s.
func (p *BatchPool) get(s *BatchStash, capacity int) *Batch {
	if p == nil {
		return NewBatch(capacity)
	}
	if capacity <= smallBatch {
		return lease(p.fl.Get(s), smallBatch)
	}
	// The smallest class whose every batch has room: 16<<k >= capacity.
	k := bits.Len(uint(capacity-1)) - 4
	if k >= largeClasses {
		return lease(nil, capacity)
	}
	b, _ := p.large[k].Get().(*Batch)
	return lease(b, 16<<k)
}

// put recycles b, a small one into stash s.
func (p *BatchPool) put(s *BatchStash, b *Batch) {
	if !p.unlease(b) {
		return
	}
	c := cap(b.Times)
	if c <= smallBatch {
		p.fl.Put(s, b)
		return
	}
	// The class whose smallest capacity b has: 16<<k <= c.
	if k := min(bits.Len(uint(c))-5, largeClasses-1); k >= 0 {
		p.large[k].Put(b)
	}
}

// Get returns an empty pooled batch with room for capacity tuples for the
// calling worker.
func (p *BatchPool) Get(worker, capacity int) *Batch {
	return p.get(p.worker(worker), capacity)
}

// Put releases b if it came from a pool — a small batch on the calling
// worker's list; external and already-released batches are ignored.
func (p *BatchPool) Put(worker int, b *Batch) {
	p.put(p.worker(worker), b)
}

// worker returns the worker's stash, nil for a nil pool or a non-worker.
func (p *BatchPool) worker(worker int) *BatchStash {
	if p == nil {
		return nil
	}
	return p.fl.Worker(worker)
}

// GetExternal is Get for an external producer.
func (p *BatchPool) GetExternal(s *BatchStash, capacity int) *Batch {
	return p.get(s, capacity)
}

// PutExternal is Put for an external producer.
func (p *BatchPool) PutExternal(s *BatchStash, b *Batch) {
	p.put(s, b)
}
