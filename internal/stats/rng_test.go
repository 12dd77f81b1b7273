package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children started identically")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(4)
	seen := make([]bool, 7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("Intn(7) never produced %d in 10000 draws", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(5)
	s := NewSample(0)
	for i := 0; i < 200000; i++ {
		s.Add(r.Normal(10, 2))
	}
	if m := s.Mean(); math.Abs(m-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", m)
	}
	if sd := s.StdDev(); math.Abs(sd-2) > 0.05 {
		t.Errorf("normal stddev = %v, want ~2", sd)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(6)
	s := NewSample(0)
	for i := 0; i < 200000; i++ {
		s.Add(r.Exp(4)) // mean 1/4
	}
	if m := s.Mean(); math.Abs(m-0.25) > 0.01 {
		t.Errorf("exp mean = %v, want ~0.25", m)
	}
}

func TestPoissonMoments(t *testing.T) {
	// Poisson(lambda) has mean lambda and variance lambda; cover both the
	// Knuth branch (lambda < 10) and the PTRS branch (lambda >= 10),
	// including a lambda large enough that exp(-lambda) would underflow.
	for _, lambda := range []float64{0.5, 3, 9.9, 10, 42.5, 800} {
		r := NewRNG(12)
		s := NewSample(0)
		for i := 0; i < 200000; i++ {
			s.Add(float64(r.Poisson(lambda)))
		}
		tol := 3 * math.Sqrt(lambda/200000) // ~3 sigma on the sample mean
		if m := s.Mean(); math.Abs(m-lambda) > tol {
			t.Errorf("Poisson(%v) mean = %v, want within %v", lambda, m, tol)
		}
		if v := s.StdDev() * s.StdDev(); math.Abs(v-lambda) > 0.05*lambda {
			t.Errorf("Poisson(%v) variance = %v, want ~lambda", lambda, v)
		}
	}
}

func TestPoissonDeterministic(t *testing.T) {
	for _, lambda := range []float64{2, 50} {
		a, b := NewRNG(13), NewRNG(13)
		for i := 0; i < 1000; i++ {
			if a.Poisson(lambda) != b.Poisson(lambda) {
				t.Fatalf("Poisson(%v) diverged at draw %d under one seed", lambda, i)
			}
		}
	}
}

func TestPoissonPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Poisson(0)
}

func TestParetoProperties(t *testing.T) {
	r := NewRNG(8)
	// All draws >= xm; heavy tail: some draws far above xm.
	xm, alpha := 2.0, 1.5
	maxSeen := 0.0
	for i := 0; i < 100000; i++ {
		x := r.Pareto(xm, alpha)
		if x < xm {
			t.Fatalf("Pareto draw %v below xm %v", x, xm)
		}
		if x > maxSeen {
			maxSeen = x
		}
	}
	if maxSeen < 10*xm {
		t.Errorf("Pareto(alpha=1.5) max over 1e5 draws = %v; tail looks too light", maxSeen)
	}
}

func TestParetoMedian(t *testing.T) {
	// Median of Pareto(xm, alpha) is xm * 2^(1/alpha).
	r := NewRNG(9)
	s := NewSample(0)
	for i := 0; i < 100000; i++ {
		s.Add(r.Pareto(1, 2))
	}
	want := math.Pow(2, 0.5)
	if got := s.Median(); math.Abs(got-want) > 0.02 {
		t.Errorf("Pareto median = %v, want ~%v", got, want)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		xs := make([]int, int(n))
		for i := range xs {
			xs[i] = i
		}
		Shuffle(NewRNG(seed), xs)
		seen := make(map[int]bool, len(xs))
		for _, x := range xs {
			seen[x] = true
		}
		return len(seen) == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
