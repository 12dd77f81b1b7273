package runtime

// White-box unit tests for the drain-batch controller: the clamp
// lattice (depth EWMA, latency guard, [min,max] bounds)
// and the cost EWMA. The engine-level behavior — frozen-controller
// order equivalence, mid-adaptation conservation, the alloc gate — is
// pinned black-box in adaptive_test.go.

import (
	"testing"

	"github.com/cameo-stream/cameo/internal/vtime"
)

func TestDrainControllerBounds(t *testing.T) {
	var c drainController
	c.init(2, 32)
	if got := c.applied.Load(); got != 2 {
		t.Fatalf("initial applied = %d, want min 2", got)
	}
	// A huge depth saturates the EWMA past max: the size must clamp.
	for i := 0; i < 50; i++ {
		if k := c.size(10_000, vtime.Second); k > 32 {
			t.Fatalf("size %d exceeds max 32", k)
		}
	}
	if k := c.size(10_000, vtime.Second); k != 32 {
		t.Fatalf("saturated size = %d, want max 32", k)
	}
	if got := c.applied.Load(); got != 32 {
		t.Fatalf("applied = %d after saturation, want 32", got)
	}
	// An idle queue decays the EWMA back to the floor.
	for i := 0; i < 100; i++ {
		c.size(0, vtime.Second)
	}
	if k := c.size(0, vtime.Second); k != 2 {
		t.Fatalf("idle size = %d, want min 2", k)
	}
}

func TestDrainControllerFrozen(t *testing.T) {
	// min == max freezes the controller: whatever the signals say, every
	// batch is exactly that size — the knob the order-equivalence tests
	// rely on.
	var c drainController
	c.init(7, 7)
	c.observe(7, 700) // cost 100 per message, far over any guard
	for _, depth := range []int{0, 1, 1000, 1 << 20} {
		if k := c.size(depth, vtime.Millisecond); k != 7 {
			t.Fatalf("frozen size(depth=%d) = %d, want 7", depth, k)
		}
	}
}

func TestDrainControllerLatencyGuard(t *testing.T) {
	var c drainController
	c.init(1, 1024)
	// 10 per message, latency target 400: one batch may spend at most a
	// quarter of the deadline budget — 10 messages — however deep the
	// backlog.
	c.observe(10, 100)
	for i := 0; i < 50; i++ {
		if k := c.size(100_000, 400); k > 10 {
			t.Fatalf("size %d exceeds latency guard 10", k)
		}
	}
}

func TestDrainControllerObserveEWMA(t *testing.T) {
	var c drainController
	c.init(1, 64)
	c.observe(4, 400)
	if c.costEWMA != 100 {
		t.Fatalf("first sample costEWMA = %v, want 100", c.costEWMA)
	}
	c.observe(1, 200)
	want := 100 + drainCostAlpha*(200-100)
	if c.costEWMA != want {
		t.Fatalf("costEWMA = %v after second sample, want %v", c.costEWMA, want)
	}
	// Degenerate samples must not poison the estimate.
	c.observe(0, 100)
	c.observe(5, 0)
	if c.costEWMA != want {
		t.Fatalf("degenerate samples moved costEWMA to %v", c.costEWMA)
	}
}
