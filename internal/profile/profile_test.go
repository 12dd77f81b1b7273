package profile

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/cameo-stream/cameo/internal/vtime"
)

func TestEWMAFirstObservation(t *testing.T) {
	e := NewEWMA(0.2)
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("fresh EWMA not zero")
	}
	e.Observe(100)
	if e.Value() != 100 {
		t.Fatalf("after first obs Value = %v, want 100", e.Value())
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(100)
	e.Observe(200) // 0.5*200 + 0.5*100 = 150
	if e.Value() != 150 {
		t.Fatalf("Value = %v, want 150", e.Value())
	}
	e.Observe(150) // 0.5*150 + 0.5*150 = 150
	if e.Value() != 150 {
		t.Fatalf("Value = %v, want 150", e.Value())
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.1)
	e.Observe(1000)
	for i := 0; i < 200; i++ {
		e.Observe(50)
	}
	if v := e.Value(); v < 49 || v > 52 {
		t.Fatalf("Value = %v, want ~50", v)
	}
}

func TestEWMASeed(t *testing.T) {
	e := NewEWMA(0.5)
	e.Seed(400)
	if e.Value() != 400 {
		t.Fatalf("seeded Value = %v", e.Value())
	}
	e.Seed(999) // second seed ignored
	if e.Value() != 400 {
		t.Fatalf("re-seed changed Value to %v", e.Value())
	}
	e.Observe(200) // 0.5*200+0.5*400 = 300
	if e.Value() != 300 {
		t.Fatalf("post-seed observe Value = %v, want 300", e.Value())
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

// TestEWMAMatchesReferenceFormula pins the lock-free implementation to the
// mutex-era arithmetic bit for bit: the simulator's figures are functions
// of these estimates, so not even the last ulp may drift.
func TestEWMAMatchesReferenceFormula(t *testing.T) {
	for _, alpha := range []float64{0.2, 0.5, 1, 0.037} {
		e := NewEWMA(alpha)
		var value float64 // the old implementation's state, verbatim
		var n int64
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 5000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			d := vtime.Duration(x % 1_000_000)
			if n == 0 {
				value = float64(d)
			} else {
				value = alpha*float64(d) + (1-alpha)*value
			}
			n++
			e.Observe(d)
			if got := math.Float64frombits(e.bits.Load()); got != value {
				t.Fatalf("alpha %v, step %d: estimate %x, reference %x", alpha, i,
					math.Float64bits(got), math.Float64bits(value))
			}
			if e.Value() != vtime.Duration(value) || e.Count() != n {
				t.Fatalf("alpha %v, step %d: Value/Count = %v/%d, want %v/%d",
					alpha, i, e.Value(), e.Count(), vtime.Duration(value), n)
			}
		}
	}
}

// TestEWMASingleWriterReaders is the -race hammer for the estimator's
// contract: one Observer, any number of concurrent readers.
func TestEWMASingleWriterReaders(t *testing.T) {
	e := NewEWMA(0.5)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := e.Value(); v != 0 && v != 100 {
					t.Errorf("reader saw estimate %v, want 0 or 100", v)
					return
				}
				_ = e.Count()
			}
		}()
	}
	for j := 0; j < 8000; j++ {
		e.Observe(100)
	}
	close(stop)
	wg.Wait()
	if e.Count() != 8000 || e.Value() != 100 {
		t.Fatalf("EWMA after hammer: count=%d value=%v", e.Count(), e.Value())
	}
}

func TestPathTrackerMax(t *testing.T) {
	p := NewPathTracker(2)
	if p.PathCost() != 0 {
		t.Fatal("empty tracker PathCost != 0")
	}
	if r := p.Reply(1); r != (Reply{}) {
		t.Fatalf("cold Reply = %+v, want zero", r)
	}
	p.OnReply(0, Reply{Cm: 10, Cpath: 5})  // total 15
	p.OnReply(1, Reply{Cm: 20, Cpath: 30}) // total 50
	if got := p.PathCost(); got != 50 {
		t.Fatalf("PathCost = %v, want 50", got)
	}
	head := p.HeadReply()
	if head.Cm != 20 || head.Cpath != 30 {
		t.Fatalf("HeadReply = %+v", head)
	}
	// Later reply from the same child replaces, not accumulates.
	p.OnReply(1, Reply{Cm: 1, Cpath: 1})
	if got := p.PathCost(); got != 15 {
		t.Fatalf("PathCost after update = %v, want 15", got)
	}
}

// Equally expensive children resolve to the lowest index, so the reply a
// policy subtracts does not depend on iteration order.
func TestPathTrackerHeadReplyTie(t *testing.T) {
	p := NewPathTracker(3)
	p.OnReply(2, Reply{Cm: 30, Cpath: 10})
	p.OnReply(1, Reply{Cm: 10, Cpath: 30})
	p.OnReply(0, Reply{Cm: 5, Cpath: 5})
	for i := 0; i < 20; i++ {
		if head := p.HeadReply(); head != (Reply{Cm: 10, Cpath: 30}) {
			t.Fatalf("HeadReply = %+v, want child 1's {10 30}", head)
		}
	}
}

// A tracker is sized for its stage once; a child index outside it is a
// wiring bug and must panic rather than grow the table.
func TestPathTrackerOutOfRangePanics(t *testing.T) {
	for _, child := range []int{-1, 2, 1 << 20} {
		for name, f := range map[string]func(p *PathTracker){
			"OnReply": func(p *PathTracker) { p.OnReply(child, Reply{Cm: 1}) },
			"Reply":   func(p *PathTracker) { p.Reply(child) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) on a 2-child tracker did not panic", name, child)
					}
				}()
				f(NewPathTracker(2))
			}()
		}
	}
}

// TestPathTrackerHammer is the -race hammer: one writer per slot (the
// worker executing that child) against concurrent readers of every
// accessor. Each writer keeps Cm+Cpath constant, so whatever interleaving
// a reader observes, every value it can compute is bounded by the
// largest total.
func TestPathTrackerHammer(t *testing.T) {
	const children, rounds = 4, 20000
	p := NewPathTracker(children)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A torn pair mixes two writes of one slot, each
				// component ≤ its slot's total, so 2*max bounds it.
				const limit = 2 * 100 * children
				if c := p.PathCost(); c < 0 || c > limit {
					t.Errorf("PathCost = %v outside [0, %d]", c, limit)
					return
				}
				if h := p.HeadReply(); h.Total() > limit {
					t.Errorf("HeadReply = %+v", h)
					return
				}
				for c := 0; c < children; c++ {
					if r := p.Reply(c); r.Cm < 0 || r.Cpath < 0 {
						t.Errorf("Reply(%d) = %+v", c, r)
						return
					}
				}
			}
		}()
	}
	for c := 0; c < children; c++ {
		writers.Add(1)
		go func(c int) {
			defer writers.Done()
			total := vtime.Duration(100 * (c + 1))
			for i := 0; i < rounds; i++ {
				cm := vtime.Duration(i) % (total + 1)
				p.OnReply(c, Reply{Cm: cm, Cpath: total - cm})
			}
		}(c)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := p.PathCost(); got != 100*children {
		t.Fatalf("PathCost after hammer = %v, want %d", got, 100*children)
	}
}

// Property: PathCost is always the max of (Cm+Cpath) over last replies.
func TestPathTrackerProperty(t *testing.T) {
	f := func(replies []struct {
		Child uint8
		Cm    uint16
		Cp    uint16
	}) bool {
		p := NewPathTracker(26)
		last := map[uint8]Reply{}
		for _, r := range replies {
			rep := Reply{Cm: vtime.Duration(r.Cm), Cpath: vtime.Duration(r.Cp)}
			p.OnReply(int(r.Child%26), rep)
			last[r.Child%26] = rep
		}
		var want vtime.Duration
		for _, r := range last {
			if t := r.Total(); t > want {
				want = t
			}
		}
		return p.PathCost() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpProfileReplyChain(t *testing.T) {
	// Three-operator chain: sink <- mid <- src. Replies accumulate critical
	// path exactly as Algorithm 1 prescribes.
	sink := NewOpProfile(1, 0)
	mid := NewOpProfile(1, 1)
	src := NewOpProfile(1, 1)

	sink.Cost.Observe(30)
	mid.Cost.Observe(20)
	src.Cost.Observe(10)

	// Sink replies to mid: {Cm: 30, Cpath: 0}.
	r := sink.ReplyContext()
	if r.Cm != 30 || r.Cpath != 0 {
		t.Fatalf("sink reply = %+v", r)
	}
	mid.Path.OnReply(0, r)

	// Mid replies to src: {Cm: 20, Cpath: 30}.
	r = mid.ReplyContext()
	if r.Cm != 20 || r.Cpath != 30 {
		t.Fatalf("mid reply = %+v", r)
	}
	src.Path.OnReply(0, r)

	// From src's perspective, scheduling a message toward mid must subtract
	// C_mid=20 and Cpath(below mid)=30.
	head := src.Path.HeadReply()
	if head.Cm != 20 || head.Cpath != 30 {
		t.Fatalf("src head reply = %+v", head)
	}
}

func TestOpProfileNoise(t *testing.T) {
	p := NewOpProfile(1, 0)
	p.Cost.Observe(100)
	p.Noise = func(d vtime.Duration) vtime.Duration { return d - 500 } // drive negative
	if r := p.ReplyContext(); r.Cm != 0 {
		t.Fatalf("noisy reply Cm = %v, want clamped 0", r.Cm)
	}
	p.Noise = func(d vtime.Duration) vtime.Duration { return d + 7 }
	if r := p.ReplyContext(); r.Cm != 107 {
		t.Fatalf("noisy reply Cm = %v, want 107", r.Cm)
	}
}
