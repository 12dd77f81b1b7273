package main

import (
	"time"

	"github.com/cameo-stream/cameo/internal/core"
)

// probePool: MessagePool get + put on a worker's local free list.
func probePool(budget time.Duration, add addFunc) error {
	p := core.NewMessagePool(2)
	p.Put(0, p.Get(0))
	ns := nsPerOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			m := p.Get(0)
			m.ID = int64(i)
			p.Put(0, m)
		}
	})
	add("core.pool_getput_ns", "ns", ns)
	return nil
}
