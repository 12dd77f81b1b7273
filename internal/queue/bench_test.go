package queue

import (
	"fmt"
	"testing"
)

// Structure-level microbenchmarks: the slot-mode heap on the run-queue
// operations the dispatch hot path issues (Push, PopMin, PushOrUpdate
// re-key, Remove), at depths spanning a lightly loaded engine (1k)
// to a deep multi-tenant backlog (100k), under uniform and skewed
// (clustered-deadline) key distributions. These isolate the data-structure
// constant factors from engine effects; bench/ (BENCHMARK.json) measures
// the end-to-end impact.
//
// Run with: go test -bench . -benchmem ./internal/queue

type benchItem struct {
	id  int
	pos int32
}

// benchRNG is a splitmix64 generator so the key sets are seeded and
// reproducible without math/rand.
type benchRNG uint64

func (r *benchRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func benchKeys(n int, skewed bool, seed uint64) []int64 {
	rng := benchRNG(seed)
	keys := make([]int64, n)
	for i := range keys {
		if skewed {
			// 90% of deadlines inside a 64-bucket-wide cluster, 10% far
			// tail — the shape of a mostly-keeping-up engine.
			if rng.next()%10 == 0 {
				keys[i] = int64(1_000_000 + rng.next()%10_000_000)
			} else {
				keys[i] = int64(rng.next() % 64)
			}
		} else {
			keys[i] = int64(rng.next() % 10_000_000)
		}
	}
	return keys
}

func newBenchHeap() *IndexedHeap[*benchItem] {
	return NewSlotHeap(func(it *benchItem) *int32 { return &it.pos })
}

func benchDepths() []int { return []int{1_000, 10_000, 100_000} }

func benchItems(n int) []*benchItem {
	items := make([]*benchItem, n)
	for i := range items {
		items[i] = &benchItem{id: i}
	}
	return items
}

func benchShapes() []struct {
	name   string
	skewed bool
} {
	return []struct {
		name   string
		skewed bool
	}{{"uniform", false}, {"skewed", true}}
}

// BenchmarkRunQueuePushPop: fill to depth, then steady-state Push+PopMin
// pairs — the acquire/release cycle.
func BenchmarkRunQueuePushPop(b *testing.B) {
	for _, shape := range benchShapes() {
		for _, depth := range benchDepths() {
			items := benchItems(depth + 1)
			keys := benchKeys(depth+1, shape.skewed, 7)
			b.Run(fmt.Sprintf("heap/%s/depth=%d", shape.name, depth), func(b *testing.B) {
				q := newBenchHeap()
				for i := 0; i < depth; i++ {
					q.Push(items[i], Pri{Key: keys[i], Tie: int64(i)})
				}
				spare := items[depth]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q.Push(spare, Pri{Key: keys[i%depth], Tie: int64(depth + i)})
					v, _, _ := q.PopMin()
					spare = v
				}
			})
		}
	}
}

// BenchmarkRunQueueUpdate: steady-state PushOrUpdate re-keys at fixed
// depth — the per-delivered-message operation on the dispatch hot path.
func BenchmarkRunQueueUpdate(b *testing.B) {
	for _, shape := range benchShapes() {
		for _, depth := range benchDepths() {
			items := benchItems(depth)
			keys := benchKeys(2*depth, shape.skewed, 11)
			b.Run(fmt.Sprintf("heap/%s/depth=%d", shape.name, depth), func(b *testing.B) {
				q := newBenchHeap()
				for i := 0; i < depth; i++ {
					q.Push(items[i], Pri{Key: keys[i], Tie: int64(i)})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % depth
					q.PushOrUpdate(items[j], Pri{Key: keys[depth+(i%depth)], Tie: int64(j)})
				}
			})
		}
	}
}

// BenchmarkRunQueueRemove: Remove+Push churn at fixed depth — the
// lifecycle path (Deschedule on pause/cancel).
func BenchmarkRunQueueRemove(b *testing.B) {
	for _, shape := range benchShapes() {
		for _, depth := range benchDepths() {
			items := benchItems(depth)
			keys := benchKeys(depth, shape.skewed, 13)
			b.Run(fmt.Sprintf("heap/%s/depth=%d", shape.name, depth), func(b *testing.B) {
				q := newBenchHeap()
				for i := 0; i < depth; i++ {
					q.Push(items[i], Pri{Key: keys[i], Tie: int64(i)})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % depth
					q.Remove(items[j])
					q.Push(items[j], Pri{Key: keys[j], Tie: int64(j)})
				}
			})
		}
	}
}

// BenchmarkRunQueuePopAll: drain the whole structure — Push n then PopMin
// n, per-op cost reported over both halves.
func BenchmarkRunQueuePopAll(b *testing.B) {
	for _, depth := range benchDepths() {
		items := benchItems(depth)
		keys := benchKeys(depth, false, 19)
		b.Run(fmt.Sprintf("heap/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := newBenchHeap()
				for j := 0; j < depth; j++ {
					q.Push(items[j], Pri{Key: keys[j], Tie: int64(j)})
				}
				for {
					if _, _, ok := q.PopMin(); !ok {
						break
					}
				}
			}
		})
	}
}
