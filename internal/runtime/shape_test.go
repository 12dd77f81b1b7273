package runtime

// The shape table: seeded queries of the shapes that broke progress order
// — several sources, stateless stages of any parallelism in front of a
// window stage — run through every engine cell and checked tuple for
// tuple against a brute-force evaluator. Every script sends only tuples
// that are on time with respect to their own source, so the exact result
// per (window, key) does not depend on how the engine interleaves
// anything; a stage that forwarded unmerged progress closed windows
// before every source had passed them, and a channel delivered out of
// order regressed a frontier and quarantined the job.
//
// The retry class offers every data batch with TryIngest against a small
// pending budget, retrying after each refusal, and never drains before the
// closing watermarks: batches back up behind the budget, which is where
// the engine coalesces same-window batches into queued messages, so the
// merged messages face the evaluator too.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

const (
	shapeTick  = vtime.Millisecond // one step of source progress
	shapeSteps = 12                // progress steps per source
	shapeWin   = 4 * shapeTick     // window size
)

// shapeFn is one entry of the stateless function table. keep=false drops
// the tuple (a Filter stage).
type shapeFn struct {
	name string
	f    func(k int64, v float64) (int64, float64, bool)
}

var shapeFns = []shapeFn{
	{"id", func(k int64, v float64) (int64, float64, bool) { return k, v, true }},
	{"rekey", func(k int64, v float64) (int64, float64, bool) { return (k*5 + 3) % 7, v, true }},
	{"double", func(k int64, v float64) (int64, float64, bool) { return k, 2 * v, true }},
	{"even", func(k int64, v float64) (int64, float64, bool) { return k, v, k%2 == 0 }},
}

// shape is one generated query and its input script.
type shape struct {
	sources int
	fns     []shapeFn // the stateless stages, in order
	par     []int     // their parallelism
	window  string    // "keyed", "global" or "sliding"
	winPar  int
	skew    []int               // ticks each source lags behind
	script  []shapeIngest       // every ingest, in order
	batches [][]*dataflow.Batch // [source][step-1]
	retry   bool                // the retry class (see above)
}

// shapeBudget is the retry class's pending budget, in batches per
// stage-0 instance.
const shapeBudget = 4

// shapeIngest is one ingest of a script: source src's batch for progress
// step (nil past shapeSteps: the closing watermark), drained or not
// before the next ingest.
type shapeIngest struct {
	src, step int
	drain     bool
}

func (s *shape) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d sources (skew %v)", s.sources, s.skew)
	for i, fn := range s.fns {
		fmt.Fprintf(&b, " -> %s×%d", fn.name, s.par[i])
	}
	fmt.Fprintf(&b, " -> %s window ×%d", s.window, s.winPar)
	if s.retry {
		b.WriteString(", retried")
	}
	return b.String()
}

func (s *shape) slide() vtime.Duration {
	if s.window == "sliding" {
		return shapeWin / 2
	}
	return shapeWin
}

// newShape generates seed's shape. A retried shape of an odd seed has no
// stateless stages, so its window stage is the one ingest coalesces into.
func newShape(seed uint64, retry bool) *shape {
	rng := rand.New(rand.NewPCG(seed, 37))
	s := &shape{sources: 1 + rng.IntN(3), window: []string{"keyed", "global", "sliding"}[rng.IntN(3)], retry: retry}
	for range rng.IntN(3) {
		s.fns = append(s.fns, shapeFns[rng.IntN(len(shapeFns))])
		s.par = append(s.par, 1+rng.IntN(3))
	}
	if retry && seed%2 == 1 {
		s.fns, s.par = nil, nil
	}
	s.winPar = 1 + rng.IntN(3)
	if s.window == "global" {
		s.winPar = 1
	}
	s.batches = make([][]*dataflow.Batch, s.sources)
	for src := range s.sources {
		s.skew = append(s.skew, rng.IntN(3))
		for step := 1; step <= shapeSteps; step++ {
			// Tuples inside (step-1, step] ticks: on time for this source.
			b := dataflow.NewBatch(3)
			for range rng.IntN(4) {
				t := vtime.Time(step-1)*shapeTick + 1 + vtime.Time(rng.Int64N(int64(shapeTick)))
				b.Append(t, rng.Int64N(6), float64(1+rng.IntN(9)))
			}
			s.batches[src] = append(s.batches[src], b)
		}
	}
	// Round by round, every source in shuffled order sends its next step,
	// lagging by its skew. Most ingests are drained before the next (so
	// nothing hides behind a queue's order), the rest queue up together.
	for round := 1; round <= shapeSteps+2; round++ {
		for _, src := range rng.Perm(s.sources) {
			if step := round - s.skew[src]; step >= 1 && step <= shapeSteps {
				s.script = append(s.script, shapeIngest{src, step, rng.IntN(3) != 0})
			}
		}
	}
	for src := range s.sources {
		s.script = append(s.script, shapeIngest{src, shapeSteps + 1, true})
	}
	return s
}

// spec builds the job: every stage checked by testkit.ChannelOrder, and a
// recording sink behind the window stage.
func (s *shape) spec(t *testing.T, rec *shapeRecorder) dataflow.JobSpec {
	spec := dataflow.JobSpec{Name: "shape", Latency: vtime.Second, Sources: s.sources}
	for i, fn := range s.fns {
		f := fn.f
		h := operators.Filter(func(_ vtime.Time, k int64, v float64) bool { _, _, keep := f(k, v); return keep })
		if fn.name != "even" {
			h = operators.Map(func(_ vtime.Time, k int64, v float64) (int64, float64) { k, v, _ = f(k, v); return k, v })
		}
		spec.Stages = append(spec.Stages, dataflow.StageSpec{
			Name: fmt.Sprintf("%s%d", fn.name, i), Parallelism: s.par[i], NewHandler: testkit.ChannelOrder(t, h)})
	}
	agg := operators.WindowAggSpec{Size: shapeWin, Slide: s.slide(), Agg: operators.Sum, Global: s.window == "global"}
	spec.Stages = append(spec.Stages,
		dataflow.StageSpec{Name: "window", Parallelism: s.winPar, Slide: s.slide(),
			NewHandler: testkit.ChannelOrder(t, operators.WindowAgg(agg))},
		dataflow.StageSpec{Name: "record", Parallelism: 1, NewHandler: testkit.ChannelOrder(t, rec.handler)})
	return spec
}

// evaluate is the brute-force answer: every tuple through the stateless
// functions, then summed into every window containing it.
func (s *shape) evaluate() map[[2]int64]float64 {
	want := map[[2]int64]float64{}
	for _, steps := range s.batches {
		for _, b := range steps {
			for i, t := range b.Times {
				k, v, keep := b.Keys[i], b.Vals[i], true
				for _, fn := range s.fns {
					if k, v, keep = fn.f(k, v); !keep {
						break
					}
				}
				if !keep {
					continue
				}
				if s.window == "global" {
					k = 0
				}
				for end := (t/s.slide() + 1) * s.slide(); end <= t+shapeWin; end += s.slide() {
					want[[2]int64{int64(end), k}] += v
				}
			}
		}
	}
	return want
}

// shapeRecorder is the sink: it keeps every window result.
type shapeRecorder struct {
	mu   sync.Mutex
	got  map[[2]int64]float64
	dups int
}

func (r *shapeRecorder) handler(int) dataflow.Handler {
	return dataflow.HandlerFunc(func(_ *dataflow.Context, m *core.Message) []dataflow.Emission {
		b, _ := m.Payload.(*dataflow.Batch)
		r.mu.Lock()
		defer r.mu.Unlock()
		for i := 0; i < b.Len(); i++ {
			// Results are stamped just inside their window.
			key := [2]int64{int64(b.Times[i] + 1), b.Keys[i]}
			if _, ok := r.got[key]; ok {
				r.dups++
			}
			r.got[key] = b.Vals[i]
		}
		return nil
	})
}

// run feeds the script, whose last ingests close every window.
func (s *shape) run(t *testing.T, cfg Config) map[[2]int64]float64 {
	rec := &shapeRecorder{got: map[[2]int64]float64{}}
	e := New(cfg)
	spec := s.spec(t, rec)
	if s.retry {
		spec.MaxPending = shapeBudget * spec.Stages[0].Parallelism
	}
	if _, err := e.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	for _, in := range s.script {
		b, p := (*dataflow.Batch)(nil), shapeSteps*shapeTick+2*shapeWin
		if in.step <= shapeSteps {
			b, p = s.batches[in.src][in.step-1], vtime.Time(in.step)*shapeTick
		}
		if s.retry && b != nil {
			s.tryIngest(t, e, in.src, b, p)
			continue
		}
		if err := e.Ingest("shape", in.src, b, p); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !in.drain {
			continue
		}
		// A quarantined job keeps its backlog and never drains.
		for i := 0; !e.Drain(10*time.Millisecond) && i < 500 && !e.JobFailed("shape"); i++ {
		}
		if e.JobFailed("shape") || e.Pending() != 0 {
			t.Fatalf("%v: job failed (%d handler panics) or did not drain", s, e.HandlerPanics())
		}
	}
	if created, settled := e.Created(), e.Executed()+e.Discarded(); created != settled {
		t.Fatalf("%v: created %d messages, settled %d", s, created, settled)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.dups != 0 {
		t.Fatalf("%v: %d window results repeated", s, rec.dups)
	}
	return rec.got
}

// tryIngest offers a copy of b leased from the engine's pool (a pooled
// batch is what ingest may merge into a queued message) with TryIngest
// until it is admitted, waiting out every refusal; a refused lease stays
// the caller's, so the retry offers the same batch.
func (s *shape) tryIngest(t *testing.T, e *Engine, src int, b *dataflow.Batch, p vtime.Time) {
	lb := e.LeaseBatch(b.Len())
	for i := range b.Times {
		lb.Append(b.Times[i], b.Keys[i], b.Vals[i])
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		err := e.TryIngest("shape", src, lb, p)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrOverloaded) || time.Now().After(deadline) {
			t.Fatalf("%v: source %d at %v: %v", s, src, p, err)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestShapeTable runs 16 seeded shapes, and 8 more in the retry class, at
// 1 and 4 workers in every engine cell and compares every (window, key)
// sum with the evaluator.
func TestShapeTable(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		s := newShape(seed, seed > 16)
		want := s.evaluate()
		for _, cell := range EngineCells {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("seed%d/%s/w%d", seed, cell.Name, workers), func(t *testing.T) {
					t.Parallel() // each run mostly waits in Drain
					got := s.run(t, cell.Cfg(Config{Workers: workers}))
					for k, w := range want {
						if g, ok := got[k]; !ok || g != w {
							t.Errorf("%v: window %v key %d: sum %v (present %v), want %v", s, vtime.Time(k[0]), k[1], g, ok, w)
						}
					}
					for k, g := range got {
						if _, ok := want[k]; !ok {
							t.Errorf("%v: window %v key %d: unexpected sum %v", s, vtime.Time(k[0]), k[1], g)
						}
					}
				})
			}
		}
	}
}
