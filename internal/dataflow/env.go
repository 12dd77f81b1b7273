package dataflow

import (
	"github.com/cameo-stream/cameo/internal/core"
)

// Env is the per-worker execution environment of the hot path: the policy
// and ID allocator, the message/batch pools, and the reusable scratch
// buffers Invoke/Finish/SourceMessages emit into. One Env belongs to
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

	ctx    Context
	out    ExecOutcome
	parts  []*Batch
	source []ChildMessage
	allocB func(capacity int) *Batch // NewBatch bound once, not per call
	// An external env's ends of the two pools (see core.FreeList): recycled
	// objects reach it a chunk at a time. Worker envs use the pools'
	// worker-indexed stashes instead.
	msgStash   core.MessageStash
	batchStash BatchStash
}

// NewEnv returns an execution environment with pooling disabled (Msgs and
// Batches nil). Engines that pool set the fields after construction.
func NewEnv(policy core.Policy, nextID func() int64, worker int) *Env {
	e := &Env{Policy: policy, NextID: nextID, Worker: worker}
	e.allocB = e.NewBatch
	return e
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

// NewBatch draws a reset batch from the batch pool, or allocates one when
// pooling is off. capacity is a hint for fresh allocations only.
func (e *Env) NewBatch(capacity int) *Batch {
	if e.Worker < 0 {
		return e.Batches.GetExternal(&e.batchStash, capacity)
	}
	return e.Batches.Get(e.Worker, capacity)
}

// FreeBatch releases an engine-owned batch and every batch chained behind
// it (see Coalesce). Externally owned batches (anything not drawn from the
// pool) are ignored, so callers may free unconditionally.
func (e *Env) FreeBatch(b *Batch) {
	for b != nil {
		next := b.next
		if e.Worker < 0 {
			e.Batches.PutExternal(&e.batchStash, b)
		} else {
			e.Batches.Put(e.Worker, b)
		}
		b = next
	}
}

// partition splits b across n partitions into the env's part scratch,
// drawing destination batches from the batch pool — the zero-allocation
// form of Batch.Partition (both share partitionInto, so the partitioning
// rule cannot diverge). See partitionInto for the split/ownership
// contract.
func (e *Env) partition(b *Batch, n int) (parts []*Batch, split bool) {
	if cap(e.parts) < n {
		e.parts = make([]*Batch, n)
	}
	parts = e.parts[:n]
	for i := range parts {
		parts[i] = nil
	}
	return parts, partitionInto(b, parts, e.allocB)
}

// batchListCap bounds each worker-local batch free list; surplus leaves
// for the shared pool a chunk at a time, where external producers refill.
const batchListCap = 256

// BatchPool recycles engine-created tuple batches (partitions, window
// results, leased decode buffers) through a core.FreeList: one lock-free
// list per worker, a BatchStash per external producer, chunks through
// sync.Pool in between.
//
// Ownership is tracked on the batch itself: Get marks a batch pooled, Put
// accepts only pooled batches and unmarks them (making a double free a
// no-op instead of a corruption), and externally created batches — ingested
// by callers, built with NewBatch — are never recycled. Goroutines that
// are not workers draw and release through their own BatchStash; the
// worker-indexed Get and Put given a non-worker index fall back to plain
// allocation and to the garbage collector. A nil *BatchPool is a valid
// "pooling off" pool.
type BatchPool struct {
	fl core.FreeList[Batch]
}

// BatchStash is an external producer's end of a BatchPool.
type BatchStash = core.Stash[Batch]

// NewBatchPool returns a pool with one local free list per worker.
func NewBatchPool(workers int) *BatchPool {
	p := &BatchPool{}
	p.fl.Init(workers, batchListCap)
	return p
}

// lease turns a recycled batch (or nil) into an empty pooled one.
func lease(b *Batch, capacity int) *Batch {
	if b == nil {
		b = NewBatch(capacity)
	} else {
		b.Times = b.Times[:0]
		b.Keys = b.Keys[:0]
		b.Vals = b.Vals[:0]
	}
	b.pooled = true
	return b
}

// unlease reports whether b may be recycled, and unmarks and unchains it
// if so.
func (p *BatchPool) unlease(b *Batch) bool {
	if p == nil || b == nil || !b.pooled {
		return false
	}
	b.pooled, b.next = false, nil
	return true
}

// Get returns an empty pooled batch for the calling worker. capacity is a
// hint for fresh allocations only — recycled batches keep their grown
// capacity.
func (p *BatchPool) Get(worker, capacity int) *Batch {
	if p == nil {
		return NewBatch(capacity)
	}
	return lease(p.fl.Get(p.fl.Worker(worker)), capacity)
}

// Put releases b on the calling worker's list if it came from a pool;
// external and already-released batches are ignored.
func (p *BatchPool) Put(worker int, b *Batch) {
	if p.unlease(b) {
		p.fl.Put(p.fl.Worker(worker), b)
	}
}

// GetExternal is Get for an external producer.
func (p *BatchPool) GetExternal(s *BatchStash, capacity int) *Batch {
	if p == nil {
		return NewBatch(capacity)
	}
	return lease(p.fl.Get(s), capacity)
}

// PutExternal is Put for an external producer.
func (p *BatchPool) PutExternal(s *BatchStash, b *Batch) {
	if p.unlease(b) {
		p.fl.Put(s, b)
	}
}
