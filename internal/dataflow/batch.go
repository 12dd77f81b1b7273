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
}

// MaxCoalesce is the most tuples one coalesced payload carries: the
// serving tier's default frame size (tuples buffered per stream before a
// flush) and the cap on the tuples the real-time engine's ingest merges
// into one queued stage-0 message (see Cut.Merge).
const MaxCoalesce = 64

// NewBatch returns an empty batch with the given capacity.
func NewBatch(capacity int) *Batch {
	return &Batch{
		Times: make([]vtime.Time, 0, capacity),
		Keys:  make([]int64, 0, capacity),
		Vals:  make([]float64, 0, capacity),
	}
}

// Len reports the number of tuples (0 for nil).
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Times)
}

// Append adds one tuple.
func (b *Batch) Append(t vtime.Time, key int64, val float64) {
	b.Times = append(b.Times, t)
	b.Keys = append(b.Keys, key)
	b.Vals = append(b.Vals, val)
}

// val returns tuple i's value, 0 for a value-less batch.
func (b *Batch) val(i int) float64 {
	if b.Vals == nil {
		return 0
	}
	return b.Vals[i]
}

// MaxTime returns the largest logical time (0 for empty).
func (b *Batch) MaxTime() vtime.Time {
	var m vtime.Time
	if b != nil {
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

// partOf is the partition of n that key k belongs to: the one rule behind
// partitionInto and Cut.
func partOf(k int64, n int) int { return int(keyHash(k) % uint64(n)) }

// Partition splits the batch across n partitions by key hash. Unkeyed
// batches (Keys nil) are returned whole in partition 0. The returned slice
// always has n entries; empty partitions are nil.
func (b *Batch) Partition(n int) []*Batch {
	out := make([]*Batch, n)
	partitionInto(b, out, NewBatch)
	return out
}

// partitionInto is the partitioning both copying forms share: Partition
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
	for i, t := range b.Times {
		p := partOf(b.Keys[i], n)
		if parts[p] == nil {
			parts[p] = alloc(len(b.Times)/n + 1)
		}
		parts[p].Append(t, b.Keys[i], b.val(i))
	}
	return true
}

// Cut is one source batch cut across n partitions by key hash (the rule
// Partition applies) without copying a tuple: it records each tuple's
// partition, and a partition's tuples are copied once, straight to where
// they go — appended to a queued message's payload (Merge) or into a
// batch of their own (Part). Unkeyed batches, and any batch cut into one
// partition, go whole to partition 0. A Cut is scratch of the Env that made it (see
// Env.Cut), valid until that Env's next Cut; a nil *Cut is the cut of no
// batch, every partition of it empty.
type Cut struct {
	env   *Env
	b     *Batch
	split bool    // b's tuples are spread by key; otherwise b is partition 0
	of    []int32 // each tuple's partition, when split
	lens  []int   // tuples per partition, when split
	taken bool    // b itself became partition 0's batch (Part)
}

// count reports how many tuples partition i holds.
func (c *Cut) count(i int) int {
	switch {
	case c == nil:
		return 0
	case c.split:
		return c.lens[i]
	case i == 0:
		return c.b.Len()
	}
	return 0
}

// empty reports whether partition i has no batch at all: every partition
// of a nil batch, a split partition without tuples, and every partition
// but 0 of a batch that goes whole (which is a batch even with no tuples).
func (c *Cut) empty(i int) bool {
	return c == nil || c.b == nil || (c.split && c.lens[i] == 0) || (!c.split && i != 0)
}

// Part returns partition i as a batch of its own: nil when it is empty,
// the source batch itself when that goes whole (its ownership moves to
// whoever takes the part), and otherwise a batch from the env's pool
// holding the partition's tuples in source order — key and value columns
// present, a value-less source's values 0.
func (c *Cut) Part(i int) *Batch {
	if c.empty(i) {
		return nil
	}
	if !c.split {
		c.taken = true
		return c.b
	}
	part := c.env.NewBatch(c.lens[i])
	c.appendTo(part, i)
	return part
}

// appendTo appends partition i's tuples to dst, which has room for them
// and, when the partition goes whole, the source's columns alike.
func (c *Cut) appendTo(dst *Batch, i int) {
	b := c.b
	if !c.split {
		dst.appendAll(b)
		return
	}
	for k, p := range c.of {
		if int(p) == i {
			dst.Append(b.Times[k], b.Keys[k], b.val(k))
		}
	}
}

// Merge returns the payload of a queued message, head, with partition i's
// tuples appended, and reports true, when
//
//   - the partition is empty: head is returned as it is;
//   - head is nil and the partition holds at most MaxCoalesce tuples: the
//     partition's own batch (Part) is the payload;
//   - both are engine-owned (head pool-owned; the partition a split one
//     or a pool-owned batch forwarded whole), their key and value columns
//     are alike present or absent, and they hold at most MaxCoalesce
//     tuples together.
//
// Otherwise it changes nothing and reports false. A merged payload is one
// pool-owned batch of capacity MaxCoalesce or more: the first merge into
// a smaller head copies it into such a batch once and releases it, so
// every later merge appends in place. A message that never merges keeps
// its small part.
func (c *Cut) Merge(head *Batch, i int) (*Batch, bool) {
	n := c.count(i)
	switch {
	case c.empty(i):
		return head, true
	case head == nil:
		if n > MaxCoalesce {
			return nil, false
		}
		return c.Part(i), true
	case len(head.Times)+n > MaxCoalesce || !head.pooled:
		return head, false
	}
	keyed, valued, owned := true, true, true
	if !c.split {
		keyed, valued, owned = c.b.Keys != nil, c.b.Vals != nil, c.b.pooled
	}
	if !owned || (head.Keys != nil) != keyed || (head.Vals != nil) != valued {
		return head, false
	}
	if cap(head.Times) < MaxCoalesce {
		grown := c.env.NewBatch(MaxCoalesce)
		grown.appendAll(head)
		c.env.FreeBatch(head)
		head = grown
	}
	c.appendTo(head, i)
	return head, true
}

// appendAll appends src's tuples to b, leaving a column src lacks absent
// in b too.
func (b *Batch) appendAll(src *Batch) {
	b.Times = append(b.Times, src.Times...)
	b.Keys = appendColumn(b.Keys, src.Keys)
	b.Vals = appendColumn(b.Vals, src.Vals)
}

// appendColumn appends src to dst, or returns nil when src is absent.
func appendColumn[T any](dst, src []T) []T {
	if src == nil {
		return nil
	}
	return append(dst, src...)
}
