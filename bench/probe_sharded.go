package main

import (
	"time"

	"github.com/cameo-stream/cameo/internal/queue"
)

// probeShardedHeap: ShardedHeap with two lanes, as two workers use it:
// push to a lane, pop local-or-global, at a steady depth of 64 per lane.
func probeShardedHeap(budget time.Duration, add addFunc) error {
	const lanes, depth = 2, 64
	h := queue.NewShardedHeap[int](lanes)
	key := int64(0)
	for i := 0; i < lanes*depth; i++ {
		key += 7
		h.Push(i%lanes, i, queue.Pri{Key: key, Tie: int64(i)})
	}
	add("queue.sharded_pushpop_ns", "ns", nsPerOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			lane := i % lanes
			v, _, ok := h.PopLocalOrGlobal(lane)
			if !ok {
				continue
			}
			key += 7
			h.Push(lane, v, queue.Pri{Key: key, Tie: int64(i)})
		}
	}))
	sink += int64(h.Len())
	return nil
}
