// Package stats provides the deterministic random sources, distribution
// samplers, and summary statistics used by the workload generators, the
// progress-mapping regression, and the experiment harness.
//
// Everything in this package is deterministic under a fixed seed so that
// every paper figure regenerates identically run-to-run.
package stats

import "math"

// RNG is a small, fast, seedable pseudo-random generator
// (xoshiro256** seeded via splitmix64). It is deliberately independent of
// math/rand so that experiment outputs cannot drift with Go releases.
// It is not safe for concurrent use; give each source its own RNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Distinct seeds give
// independent-looking streams; the zero seed is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed, per Blackman & Vigna's reference code.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from r. Use it to hand child
// components their own streams without correlating their draws.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a draw from N(mu, sigma^2) (Box–Muller).
func (r *RNG) Normal(mu, sigma float64) float64 {
	// Reject u1 == 0 to keep Log finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// Exp returns a draw from the exponential distribution with the given rate
// (events per unit time). Used for Poisson inter-arrival gaps.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with rate <= 0")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Poisson returns a draw from the Poisson distribution with mean lambda —
// the count of memoryless arrivals in one interval, the replay harness's
// default open-loop arrival process. Small means use Knuth's
// uniform-product method; large means use Hörmann's PTRS transformed
// rejection, so the cost stays O(1) instead of O(lambda) and exp(-lambda)
// never underflows. Both paths consume rng draws deterministically.
func (r *RNG) Poisson(lambda float64) int64 {
	if lambda <= 0 {
		panic("stats: Poisson with lambda <= 0")
	}
	if lambda < 10 {
		// Knuth: multiply uniforms until the product drops below e^-lambda.
		limit := math.Exp(-lambda)
		k := int64(0)
		p := 1.0
		for {
			p *= r.Float64()
			if p <= limit {
				return k
			}
			k++
		}
	}
	// PTRS (Hörmann 1993, "The transformed rejection method for generating
	// Poisson random variables"), the sampler numpy uses for lambda >= 10:
	// a table-free majorizing transformation with acceptance rate > 0.98
	// across the whole range.
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-lg {
			return int64(k)
		}
	}
}

// Pareto returns a draw from a Pareto distribution with minimum value xm and
// shape alpha. The paper's Figure 9 drives ingestion volume with a Pareto
// ("Power-Law-like") distribution; alpha near 1–2 gives the heavy tail the
// paper describes.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("stats: Pareto with non-positive parameter")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Shuffle permutes xs uniformly (Fisher–Yates).
func Shuffle[T any](r *RNG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
