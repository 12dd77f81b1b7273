package main

import (
	"time"

	"github.com/cameo-stream/cameo/internal/queue"
)

// probeHeap: IndexedHeap pop-min then push at a steady depth, the run
// queue's per-message cost with few (16) and many (2048) runnable
// operators. Keys grow like deadlines do.
func probeHeap(budget time.Duration, add addFunc) error {
	for _, c := range []struct {
		depth int
		name  string
	}{{16, "queue.heap_pushpop_ns_d16"}, {2048, "queue.heap_pushpop_ns_d2048"}} {
		h := queue.NewIndexedHeap[int]()
		key := int64(0)
		for i := 0; i < c.depth; i++ {
			key += 7
			h.Push(i, queue.Pri{Key: key, Tie: int64(i)})
		}
		add(c.name, "ns", nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				v, _, _ := h.PopMin()
				key += 7
				h.Push(v, queue.Pri{Key: key + int64(v%13), Tie: int64(i)})
			}
		}))
		sink += int64(h.Len())
	}
	return nil
}
