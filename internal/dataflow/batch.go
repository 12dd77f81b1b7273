// Package dataflow defines streaming jobs as DAGs of parallelized stages
// and provides the glue between operators and the scheduling core: building
// core.TargetInfo from topology and profiling state, deriving child
// messages, routing emissions by key, and tracking per-channel frontiers.
// It corresponds to the Flare layer the paper builds Cameo into.
package dataflow

import (
	"github.com/cameo-stream/cameo/internal/vtime"
)

// Batch is a columnar batch of tuples, the payload of data messages
// (Trill-style batching, paper §6.3: "Cameo encloses a columnar batch of
// data in each message"). Columns are parallel arrays; Keys and Vals may be
// nil for key-less or value-less streams, but when present they match
// Times in length.
type Batch struct {
	// Times holds each tuple's logical time (event or ingestion time).
	Times []vtime.Time
	// Keys holds each tuple's grouping key (nil for unkeyed batches).
	Keys []int64
	// Vals holds each tuple's numeric value (nil when tuples carry no value).
	Vals []float64

	// pooled marks a batch drawn from a BatchPool (engine-owned, recycled
	// when its consumer finishes). Externally created batches are never
	// recycled.
	pooled bool
	// next chains the batch Coalesce linked behind this one: one payload,
	// read in chain order (see Next).
	next *Batch
}

// MaxCoalesce is the most tuples one coalesced payload carries: the
// serving tier's default frame size (tuples buffered per stream before a
// flush) and the cap on the batches the real-time engine's ingest chains
// into one queued stage-0 message (see Coalesce).
const MaxCoalesce = 64

// NewBatch returns an empty batch with the given capacity.
func NewBatch(capacity int) *Batch {
	return &Batch{
		Times: make([]vtime.Time, 0, capacity),
		Keys:  make([]int64, 0, capacity),
		Vals:  make([]float64, 0, capacity),
	}
}

// Len reports the number of tuples, over the whole chain b heads.
func (b *Batch) Len() int {
	n := 0
	for ; b != nil; b = b.next {
		n += len(b.Times)
	}
	return n
}

// Next returns the batch chained behind b, or nil. A payload is the chain
// its batch heads: a handler that opts into coalescing (Coalescer) reads
// every link, the other handlers only ever see unchained batches.
func (b *Batch) Next() *Batch { return b.next }

// Coalesce returns one payload carrying head's tuples followed by b's —
// head with b chained behind its last link — and reports true, when the
// result stays within MaxCoalesce tuples, both are pool-owned and their
// key and value columns are alike present or absent. Otherwise it changes
// nothing and reports false. A nil side is an empty payload: the other
// side is the result, if within the cap. Chained, b belongs to the
// payload: FreeBatch on head releases every link.
func Coalesce(head, b *Batch) (*Batch, bool) {
	switch {
	case b == nil:
		return head, true
	case head == nil:
		return b, b.Len() <= MaxCoalesce
	case !head.pooled || !b.pooled || (head.Keys == nil) != (b.Keys == nil) || (head.Vals == nil) != (b.Vals == nil):
		return head, false
	}
	n, last := b.Len()+len(head.Times), head
	for last.next != nil {
		last = last.next
		n += len(last.Times)
	}
	if n > MaxCoalesce {
		return head, false
	}
	last.next = b
	return head, true
}

// Append adds one tuple.
func (b *Batch) Append(t vtime.Time, key int64, val float64) {
	b.Times = append(b.Times, t)
	b.Keys = append(b.Keys, key)
	b.Vals = append(b.Vals, val)
}

// MaxTime returns the largest logical time over the whole chain b heads
// (0 for empty).
func (b *Batch) MaxTime() vtime.Time {
	var m vtime.Time
	for ; b != nil; b = b.next {
		for _, t := range b.Times {
			m = max(m, t)
		}
	}
	return m
}

// keyHash mixes a key for partitioning (Fibonacci hashing — cheap and good
// enough to spread sequential keys evenly).
func keyHash(k int64) uint64 {
	return uint64(k) * 0x9e3779b97f4a7c15
}

// Partition splits the batch across n partitions by key hash. Unkeyed
// batches (Keys nil) are returned whole in partition 0. The returned slice
// always has n entries; empty partitions are nil.
func (b *Batch) Partition(n int) []*Batch {
	out := make([]*Batch, n)
	partitionInto(b, out, NewBatch)
	return out
}

// partitionInto is the one partitioning rule both forms share: Partition
// allocates fresh output, Env.partition reuses scratch and pooled batches.
// parts (len n, all nil) receives the result; alloc supplies destination
// batches. split reports whether fresh partitions were created — when
// false, parts[0] IS b (single partition or unkeyed batch) and ownership
// of b moves to that partition's consumer.
func partitionInto(b *Batch, parts []*Batch, alloc func(capacity int) *Batch) (split bool) {
	if len(parts) == 1 || b == nil || b.Keys == nil {
		parts[0] = b
		return false
	}
	n := len(parts)
	for i := range b.Times {
		p := int(keyHash(b.Keys[i]) % uint64(n))
		if parts[p] == nil {
			parts[p] = alloc(len(b.Times)/n + 1)
		}
		var v float64
		if b.Vals != nil {
			v = b.Vals[i]
		}
		parts[p].Append(b.Times[i], b.Keys[i], v)
	}
	return true
}
