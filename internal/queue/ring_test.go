package queue

import (
	"testing"
	"testing/quick"
)

func TestRingFIFO(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 100; i++ {
		r.PushBack(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := r.PopFront()
		if !ok || v != i {
			t.Fatalf("PopFront = %d/%v, want %d", v, ok, i)
		}
	}
	if _, ok := r.PopFront(); ok {
		t.Fatal("PopFront on empty returned ok")
	}
}

func TestRingPopBack(t *testing.T) {
	var r Ring[int]
	r.PushBack(1)
	r.PushBack(2)
	r.PushBack(3)
	if v, ok := r.PopBack(); !ok || v != 3 {
		t.Fatalf("PopBack = %d/%v", v, ok)
	}
	if v, _ := r.PopFront(); v != 1 {
		t.Fatalf("PopFront after PopBack = %d", v)
	}
	if v, ok := r.PopBack(); !ok || v != 2 {
		t.Fatalf("PopBack = %d/%v", v, ok)
	}
	if _, ok := r.PopBack(); ok {
		t.Fatal("PopBack on empty returned ok")
	}
}

func TestRingWraparound(t *testing.T) {
	var r Ring[int]
	// Force head to move around the buffer repeatedly.
	for round := 0; round < 10; round++ {
		for i := 0; i < 7; i++ {
			r.PushBack(round*100 + i)
		}
		for i := 0; i < 7; i++ {
			v, _ := r.PopFront()
			if v != round*100+i {
				t.Fatalf("round %d: got %d", round, v)
			}
		}
	}
}

func TestRingAtAndPeek(t *testing.T) {
	var r Ring[string]
	r.PushBack("a")
	r.PushBack("b")
	r.PushBack("c")
	if v, _ := r.PeekFront(); v != "a" {
		t.Fatalf("PeekFront = %q", v)
	}
	if r.At(0) != "a" || r.At(1) != "b" || r.At(2) != "c" {
		t.Fatal("At values wrong")
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRingAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var r Ring[int]
	r.PushBack(1)
	r.At(1)
}

// Property: a Ring behaves like a slice-backed deque under any sequence of
// operations.
func TestRingPropertyModel(t *testing.T) {
	f := func(ops []struct {
		V  int32
		Op uint8
	}) bool {
		var r Ring[int32]
		var model []int32
		for _, o := range ops {
			switch o.Op % 3 {
			case 0:
				r.PushBack(o.V)
				model = append(model, o.V)
			case 1:
				v, ok := r.PopFront()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			case 2:
				v, ok := r.PopBack()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[len(model)-1] {
						return false
					}
					model = model[:len(model)-1]
				}
			}
			if r.Len() != len(model) {
				return false
			}
		}
		for i, want := range model {
			if r.At(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBagLocalLIFOPreference(t *testing.T) {
	b := NewBag[int](2)
	b.Add(0, 1)
	b.Add(0, 2)
	b.AddGlobal(99)
	// Worker 0 takes its own freshest item first.
	if v, _ := b.Take(0); v != 2 {
		t.Fatalf("Take = %d, want 2 (local LIFO)", v)
	}
	if v, _ := b.Take(0); v != 1 {
		t.Fatalf("Take = %d, want 1", v)
	}
	// Locals exhausted: global next.
	if v, _ := b.Take(0); v != 99 {
		t.Fatalf("Take = %d, want 99 (global)", v)
	}
}

func TestBagStealFIFO(t *testing.T) {
	b := NewBag[int](3)
	b.Add(1, 10)
	b.Add(1, 20)
	// Worker 0 has nothing local or global: it steals worker 1's oldest.
	if v, ok := b.Take(0); !ok || v != 10 {
		t.Fatalf("steal = %d/%v, want 10", v, ok)
	}
	// Owner still takes its own freshest-remaining item.
	if v, _ := b.Take(1); v != 20 {
		t.Fatalf("owner Take = %d, want 20", v)
	}
	if _, ok := b.Take(2); ok {
		t.Fatal("Take on empty bag returned ok")
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d, want 0", b.Len())
	}
}

// A bag with no local lists is one global FIFO — the FIFO baseline's run
// queue: whichever worker adds or takes, items leave in arrival order.
func TestBagWithoutLocalsIsFIFO(t *testing.T) {
	b := NewBag[int](0)
	b.Add(0, 1)
	b.AddGlobal(2)
	b.Add(3, 3)
	for want := 1; want <= 3; want++ {
		if v, ok := b.Take(want % 2); !ok || v != want {
			t.Fatalf("Take = %d/%v, want %d", v, ok, want)
		}
	}
	if _, ok := b.Take(0); ok || b.Len() != 0 {
		t.Fatalf("drained bag: ok %v, Len %d", ok, b.Len())
	}
}

func TestBagLenAccounting(t *testing.T) {
	b := NewBag[int](2)
	b.Add(0, 1)
	b.AddGlobal(2)
	b.Add(1, 3)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	b.Take(0)
	b.Take(0)
	b.Take(0)
	if b.Len() != 0 {
		t.Fatalf("Len = %d, want 0", b.Len())
	}
}

// Property: every added item is taken exactly once, regardless of which
// worker drains it.
func TestBagPropertyConservation(t *testing.T) {
	f := func(adds []struct {
		W uint8
		V int32
	}, drainer uint8) bool {
		const workers = 4
		b := NewBag[int32](workers)
		want := map[int32]int{}
		for _, a := range adds {
			if a.W%2 == 0 {
				b.Add(int(a.W)%workers, a.V)
			} else {
				b.AddGlobal(a.V)
			}
			want[a.V]++
		}
		got := map[int32]int{}
		for {
			v, ok := b.Take(int(drainer) % workers)
			if !ok {
				break
			}
			got[v]++
		}
		if len(got) != len(want) {
			return false
		}
		for k, n := range want {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
