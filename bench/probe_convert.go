package main

import (
	"time"

	"github.com/cameo-stream/cameo/internal/core"
)

// probeConvert: one context conversion at a source plus one at a hop to a
// windowed operator, what every ingested batch pays per stage.
func probeConvert(budget time.Duration, add addFunc) error {
	pol := &core.DeadlinePolicy{Kind: core.KindLLF}
	src := core.TargetInfo{Job: "t", Slide: 20_000, Cost: 5, PathCost: 9, Latency: 20_000}
	hop := core.TargetInfo{Job: "t", SlideUp: 20_000, Slide: 20_000, Cost: 4, PathCost: 3, Latency: 20_000}
	var m, child core.Message
	ns := nsPerOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			m.P, m.T = 1_000_000, 1_000_500
			pol.OnSource(&m, src)
			child.P, child.T = m.P, m.T
			pol.OnHop(&m.PC, &child, hop)
		}
	})
	sink += int64(child.PC.PriGlobal)
	add("core.convert_ns", "ns", ns)
	return nil
}
