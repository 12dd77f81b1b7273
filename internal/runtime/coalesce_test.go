package runtime

// Coalesced ingest (shardedPath.coalesce): under a deadline-aware policy a
// source batch whose channel already has a queued stage-0 message of the
// same window, at a handler that opts in, is chained onto that message
// instead of becoming one. These tests build their backlogs on an engine
// that is not started yet, so every queue holds exactly what the script
// put there; they pin the merge rules, every site that takes a message
// off a queue, and the ledgers across all of them.

import (
	"math/rand/v2"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

const (
	coTick = vtime.Millisecond
	coWin  = 10 * coTick // tumbling window of the stage-0 sum
)

func coAgg(int) dataflow.Handler {
	return operators.WindowAgg(operators.WindowAggSpec{Size: coWin, Slide: coWin, Agg: operators.Sum})(0)
}

// coSpec is a keyed window sum of parallelism par at stage 0 (newHandler
// replaces it when non-nil) feeding rec's sink.
func coSpec(sources, par int, newHandler func(int) dataflow.Handler, rec *shapeRecorder) dataflow.JobSpec {
	if newHandler == nil {
		newHandler = coAgg
	}
	return dataflow.JobSpec{Name: "co", Latency: vtime.Second, Sources: sources, Stages: []dataflow.StageSpec{
		{Name: "agg", Parallelism: par, Slide: coWin, NewHandler: newHandler},
		{Name: "record", Parallelism: 1, NewHandler: rec.handler},
	}}
}

func newRecorder() *shapeRecorder { return &shapeRecorder{got: map[[2]int64]float64{}} }

// coBatch is n tuples on time for progress step: times in (step-1, step]
// ticks, keys 0..7, integral values so sums are exact.
func coBatch(rng *rand.Rand, step, n int) *dataflow.Batch {
	b := dataflow.NewBatch(n)
	for range n {
		t := vtime.Time(step-1)*coTick + 1 + vtime.Time(rng.Int64N(int64(coTick)))
		b.Append(t, rng.Int64N(8), float64(1+rng.IntN(9)))
	}
	return b
}

// coWant sums the batches' tuples per (tumbling window end, key), the
// shape recorder's keying.
func coWant(batches []*dataflow.Batch) map[[2]int64]float64 {
	want := map[[2]int64]float64{}
	for _, b := range batches {
		for i, t := range b.Times {
			want[[2]int64{int64((t/coWin + 1) * coWin), b.Keys[i]}] += b.Vals[i]
		}
	}
	return want
}

func mustIngest(t *testing.T, e *Engine, src int, b *dataflow.Batch, p vtime.Time) {
	t.Helper()
	if err := e.Ingest("co", src, b, p); err != nil {
		t.Fatalf("ingest src %d at %v: %v", src, p, err)
	}
}

func stage0(t *testing.T, e *Engine) []*dataflow.Operator {
	t.Helper()
	j, ok := e.job("co")
	if !ok {
		t.Fatal("job co not found")
	}
	return j.Stages[0]
}

// drainAndCheck starts e, drains it, and checks conservation, an empty
// queue and the sink's sums against want (restricted to windows ending at
// or after from, when from is positive).
func drainAndCheck(t *testing.T, e *Engine, rec *shapeRecorder, want map[[2]int64]float64, from vtime.Time) {
	t.Helper()
	e.Start()
	if !e.Drain(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
	if created, settled := e.Created(), e.Executed()+e.Discarded(); created != settled {
		t.Errorf("created %d messages, executed + discarded %d", created, settled)
	}
	if p := e.Pending(); p != 0 {
		t.Errorf("Pending %d after the drain", p)
	}
	if e.HandlerPanics() != 0 {
		t.Errorf("%d handler panics", e.HandlerPanics())
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.dups != 0 {
		t.Errorf("%d window results repeated", rec.dups)
	}
	for k, w := range want {
		if vtime.Time(k[0]) < from {
			continue
		}
		if g, ok := rec.got[k]; !ok || g != w {
			t.Errorf("window %v key %d: sum %v (present %v), want %v", vtime.Time(k[0]), k[1], g, ok, w)
		}
	}
	for k, g := range rec.got {
		if _, ok := want[k]; !ok && vtime.Time(k[0]) >= from {
			t.Errorf("window %v key %d: unexpected sum %v", vtime.Time(k[0]), k[1], g)
		}
	}
}

// checkTails fails unless every channel tail of op is a message still in
// its queue and not released to the pool.
func checkTails(t *testing.T, op *dataflow.Operator) {
	t.Helper()
	st := op.Sched()
	st.Mu.Lock()
	defer st.Mu.Unlock()
	for ch, tail := range st.Tails {
		if tail == nil {
			continue
		}
		if tail.ID == core.PoisonedID {
			t.Errorf("%s channel %d: tail was released to the pool", op.Name, ch)
		}
		found := false
		st.Q.Each(func(m *core.Message) { found = found || m == tail })
		if !found {
			t.Errorf("%s channel %d: tail (ID %d) is not queued", op.Name, ch, tail.ID)
		}
	}
}

// TestCoalescedBacklog: K same-window batches per source become one
// stage-0 message per (channel, target) under LLF and EDF, whose Pending
// still counts K × fan-out units before the drain, and one message each
// under the policies that stamp every message with its own priority. The
// window sums are the same either way.
func TestCoalescedBacklog(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy core.Policy
		merges bool
	}{
		{"llf", nil, true},
		{"edf", &core.DeadlinePolicy{Kind: core.KindEDF}, true},
		{"sjf", &core.DeadlinePolicy{Kind: core.KindSJF}, false},
		{"arrival", core.ArrivalPolicy{}, false},
		{"token", core.NewTokenPolicy(vtime.Millisecond), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sources, par, k = 2, 2, 6
			rec := newRecorder()
			e := New(Config{Workers: 1, Policy: tc.policy, TraceLimit: 1 << 12})
			defer e.Stop()
			if _, err := e.AddJob(coSpec(sources, par, nil, rec)); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(7, 1))
			var all []*dataflow.Batch
			for step := 1; step <= k; step++ {
				for src := range sources {
					b := coBatch(rng, step, 4)
					all = append(all, b)
					mustIngest(t, e, src, b, vtime.Time(step)*coTick)
				}
			}
			if got, want := e.Pending(), k*sources*par; got != want {
				t.Errorf("Pending %d before the drain, want K × fan-out × sources = %d", got, want)
			}
			perOp, created := sources, int64(sources*par)
			if !tc.merges {
				perOp, created = k*sources, int64(k*sources*par)
			}
			if got := e.Created(); got != created {
				t.Errorf("created %d stage-0 messages, want %d", got, created)
			}
			for _, op := range stage0(t, e) {
				if got := e.path.queuedLen(op); got != perOp {
					t.Errorf("%s queues %d messages, want %d", op.Name, got, perOp)
				}
				checkTails(t, op)
			}
			for src := range sources {
				mustIngest(t, e, src, nil, 2*coWin) // closes window 1 in a message of its own
			}
			drainAndCheck(t, e, rec, coWant(all), 0)
			execs := 0
			for _, ev := range e.Trace().Events() {
				if ev.Stage == 0 {
					execs++
				}
			}
			if want := int(created) + sources*par; execs != want {
				t.Errorf("%d stage-0 executions, want %d", execs, want)
			}
		})
	}
}

// TestCoalesceRules: a second batch merges into the first one's message
// only when every rule holds. Each case ingests a first batch on source 0
// at progress 3 ticks and then its second ingest; merged reports whether
// that second ingest created no message.
func TestCoalesceRules(t *testing.T) {
	lease := func(e *Engine, n int, rng *rand.Rand, step int) *dataflow.Batch {
		b := e.LeaseBatch(n)
		src := coBatch(rng, step, n)
		for i := range src.Times {
			b.Append(src.Times[i], src.Keys[i], src.Vals[i])
		}
		return b
	}
	type env struct {
		t   *testing.T
		e   *Engine
		rng *rand.Rand
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		sources int
		par     int
		handler func(int) dataflow.Handler
		wrap    bool                        // wrap the handler in testkit.ChannelOrder
		first   func(v env) *dataflow.Batch // nil: a 4-tuple external batch
		second  func(v env)
		merged  bool
	}{
		{name: "same window", merged: true,
			second: func(v env) { mustIngest(v.t, v.e, 0, coBatch(v.rng, 5, 4), 5*coTick) }},
		{name: "same progress", merged: true,
			second: func(v env) { mustIngest(v.t, v.e, 0, coBatch(v.rng, 3, 4), 3*coTick) }},
		{name: "watermark", merged: true,
			second: func(v env) { mustIngest(v.t, v.e, 0, nil, 9*coTick) }},
		{name: "ChannelOrder-wrapped handler", wrap: true, merged: true,
			second: func(v env) { mustIngest(v.t, v.e, 0, coBatch(v.rng, 5, 4), 5*coTick) }},
		{name: "next window",
			second: func(v env) { mustIngest(v.t, v.e, 0, coBatch(v.rng, 11, 4), 11*coTick) }},
		{name: "window end", // progress 10 ticks is in the window ending at 20
			second: func(v env) { mustIngest(v.t, v.e, 0, nil, coWin) }},
		{name: "other channel", sources: 2,
			second: func(v env) { mustIngest(v.t, v.e, 1, coBatch(v.rng, 5, 4), 5*coTick) }},
		{name: "regressed progress",
			second: func(v env) {
				// Ingest refuses regressed progress, so the path is asked
				// directly, as a racing ingest of the channel would ask it.
				for _, op := range stage0(v.t, v.e) {
					st := op.Sched()
					st.Mu.Lock()
					ok := v.e.path.coalesce(op, 0, nil, 2*coTick, v.e.Now())
					st.Mu.Unlock()
					if ok {
						v.t.Errorf("%s: merged progress 2 ticks into a message at 3", op.Name)
					}
				}
				mustIngest(v.t, v.e, 0, nil, 2*coWin)
			}},
		{name: "other port",
			second: func(v env) {
				for _, op := range stage0(v.t, v.e) {
					st := op.Sched()
					st.Mu.Lock()
					st.Tails[0].Port = 1
					st.Mu.Unlock()
				}
				mustIngest(v.t, v.e, 0, coBatch(v.rng, 5, 4), 5*coTick)
			}},
		{name: "at the cap", par: 1, merged: true,
			first:  func(v env) *dataflow.Batch { return lease(v.e, 40, v.rng, 3) },
			second: func(v env) { mustIngest(v.t, v.e, 0, lease(v.e, 24, v.rng, 5), 5*coTick) }},
		{name: "past the cap", par: 1,
			first:  func(v env) *dataflow.Batch { return lease(v.e, 40, v.rng, 3) },
			second: func(v env) { mustIngest(v.t, v.e, 0, lease(v.e, 25, v.rng, 5), 5*coTick) }},
		{name: "external batch", par: 1,
			second: func(v env) { mustIngest(v.t, v.e, 0, coBatch(v.rng, 5, 4), 5*coTick) }},
		{name: "HandlerFunc",
			handler: testkit.NopHandler,
			second:  func(v env) { mustIngest(v.t, v.e, 0, coBatch(v.rng, 5, 4), 5*coTick) }},
		{name: "arrival policy", cfg: ArrivalOrder(Config{}),
			second: func(v env) { mustIngest(v.t, v.e, 0, coBatch(v.rng, 5, 4), 5*coTick) }},
		{name: "token policy", cfg: Config{Policy: core.NewTokenPolicy(vtime.Millisecond)},
			second: func(v env) { mustIngest(v.t, v.e, 0, coBatch(v.rng, 5, 4), 5*coTick) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sources, par, h := max(tc.sources, 1), tc.par, tc.handler
			if par == 0 {
				par = 2
			}
			if tc.wrap {
				h = testkit.ChannelOrder(t, coAgg)
			}
			e := New(tc.cfg)
			defer e.Stop()
			if _, err := e.AddJob(coSpec(sources, par, h, newRecorder())); err != nil {
				t.Fatal(err)
			}
			v := env{t, e, rand.New(rand.NewPCG(3, 3))}
			first := coBatch(v.rng, 3, 4)
			if tc.first != nil {
				first = tc.first(v)
			}
			mustIngest(t, e, 0, first, 3*coTick)
			before := e.Created()
			tc.second(v)
			if merged := e.Created() == before; merged != tc.merged {
				t.Errorf("second ingest merged = %v, want %v (created %d → %d)", merged, tc.merged, before, e.Created())
			}
			for _, op := range stage0(t, e) {
				checkTails(t, op)
			}
		})
	}
}

// countingMapper counts the (progress, time) pairs an operator's progress
// mapper observes.
type countingMapper struct {
	progress.Mapper
	observed int
}

func (m *countingMapper) Observe(p, t vtime.Time) {
	m.observed++
	m.Mapper.Observe(p, t)
}

// TestCoalescedIngestObservesMapper: an event-time job's merged ingest
// still feeds the pair to its operator's progress mapper, as the
// conversion of the message it replaces would have.
func TestCoalescedIngestObservesMapper(t *testing.T) {
	const k = 5
	e := New(Config{})
	defer e.Stop()
	spec := coSpec(1, 2, nil, newRecorder())
	spec.Domain = dataflow.EventTime
	if _, err := e.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	var mappers []*countingMapper
	for _, op := range stage0(t, e) {
		m := &countingMapper{Mapper: op.Mapper}
		op.Mapper = m
		mappers = append(mappers, m)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	for step := 1; step <= k; step++ {
		mustIngest(t, e, 0, coBatch(rng, step, 4), vtime.Time(step)*coTick)
	}
	if got := e.Created(); got != 2 {
		t.Fatalf("created %d messages, want one per target", got)
	}
	for i, m := range mappers {
		if m.observed != k {
			t.Errorf("target %d's mapper observed %d pairs, want one per ingest (%d)", i, m.observed, k)
		}
	}
}

// TestCoalescedDequeueSites walks a merged backlog through every site that
// takes messages off a queue — a worker's pop and the return of its
// undrained tail, each shed rule, cancel and teardown — and checks after
// each that no channel tail names a message outside its queue, that a
// later ingest of the same window merges only into queued messages, and
// that the ledgers reconcile.
func TestCoalescedDequeueSites(t *testing.T) {
	const sources, par = 2, 2
	fill := func(t *testing.T, e *Engine, rng *rand.Rand, steps int) []*dataflow.Batch {
		var all []*dataflow.Batch
		for step := 1; step <= steps; step++ {
			for src := range sources {
				b := coBatch(rng, step, 4)
				all = append(all, b)
				mustIngest(t, e, src, b, vtime.Time(step)*coTick)
			}
		}
		return all
	}
	closeWindows := func(t *testing.T, e *Engine, p vtime.Time) {
		for src := range sources {
			mustIngest(t, e, src, nil, p)
		}
	}
	ledgers := func(t *testing.T, e *Engine) {
		t.Helper()
		per, err := e.PerSource("co")
		if err != nil {
			t.Fatal(err)
		}
		ds, _ := e.ShedDownstream("co")
		var shed, queued int64
		for _, s := range per {
			shed += s.Shed
			queued += s.Queued
		}
		if shed+ds != e.Shed() {
			t.Errorf("Σ SrcShed %d + ShedDownstream %d != shed %d", shed, ds, e.Shed())
		}
		if jp, _ := e.JobPending("co"); int64(jp) < queued {
			t.Errorf("JobPending %d below Σ SrcQueued %d", jp, queued)
		}
	}

	t.Run("pop and return", func(t *testing.T) {
		rec := newRecorder()
		e := New(Config{Workers: 1})
		defer e.Stop()
		if _, err := e.AddJob(coSpec(sources, par, nil, rec)); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(11, 1))
		all := fill(t, e, rng, 4)
		op, _ := e.path.acquire(0) // as the worker would
		buf := make([]*core.Message, 4)
		n, _ := e.path.popMsgs(op, buf)
		if n != sources {
			t.Fatalf("popped %d messages, want one per channel (%d)", n, sources)
		}
		checkTails(t, op)
		if got, want := e.Pending(), 4*sources*par-4*sources; got != want {
			t.Errorf("Pending %d after popping %d merged messages, want %d", got, n, want)
		}
		// The popped messages are a worker's now: the next same-window
		// batch must become a message of its own at op.
		before := e.Created()
		b := coBatch(rng, 5, 4)
		all = append(all, b)
		mustIngest(t, e, 0, b, 5*coTick)
		if e.Created() == before {
			t.Fatal("ingest created no message although the channel's message was popped")
		}
		e.path.returnUndrained(op, buf[:n])
		e.path.release(op, 0)
		checkTails(t, op)
		if got, want := e.Pending(), 5*sources*par-sources*par+par; got != want {
			t.Errorf("Pending %d after the return, want %d", got, want)
		}
		ledgers(t, e)
		closeWindows(t, e, 2*coWin)
		drainAndCheck(t, e, rec, coWant(all), 0)
	})

	for _, rule := range []string{"doomed", "source", "tail"} {
		t.Run("shed "+rule, func(t *testing.T) {
			rec := newRecorder()
			e := New(Config{Workers: 1, Overload: OverloadShed})
			defer e.Stop()
			spec := coSpec(sources, par, nil, rec)
			if _, err := e.AddJob(spec); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(13, 1))
			fill(t, e, rng, 4)
			j, _ := e.job("co")
			var shed int
			switch rule {
			case "doomed":
				shed = e.path.shedDoomed(j, e.Now()+2*vtime.Second)
			case "source":
				shed = e.path.shedSrc(j, 0, 1)
			case "tail":
				shed = e.path.shedExcess(j, 1)
			}
			if shed == 0 {
				t.Fatal("the sweep shed nothing")
			}
			for _, op := range stage0(t, e) {
				checkTails(t, op)
			}
			if got, want := e.Pending(), 4*sources*par-shed; got != want {
				t.Errorf("Pending %d after shedding %d units, want %d", got, shed, want)
			}
			ledgers(t, e)
			// The rest of window 1 lands on whatever survived; window 2
			// onwards must be exact.
			var later []*dataflow.Batch
			for step := 5; step <= 25; step++ {
				for src := range sources {
					b := coBatch(rng, step, 4)
					later = append(later, b)
					mustIngest(t, e, src, b, vtime.Time(step)*coTick)
				}
				for _, op := range stage0(t, e) {
					checkTails(t, op)
				}
			}
			closeWindows(t, e, 4*coWin)
			ledgers(t, e)
			drainAndCheck(t, e, rec, coWant(later), 2*coWin)
			ledgers(t, e)
		})
	}

	t.Run("cancel", func(t *testing.T) {
		e := New(Config{Workers: 1})
		defer e.Stop()
		if _, err := e.AddJob(coSpec(sources, par, nil, newRecorder())); err != nil {
			t.Fatal(err)
		}
		fill(t, e, rand.New(rand.NewPCG(17, 1)), 6)
		ops := stage0(t, e)
		if err := e.CancelJob("co"); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Sched().Tails != nil {
				t.Errorf("%s keeps its channel tails after teardown", op.Name)
			}
		}
		if e.Executed() != 0 || e.Created() != e.Discarded() {
			t.Errorf("created %d, executed %d, discarded %d", e.Created(), e.Executed(), e.Discarded())
		}
		if p := e.Pending(); p != 0 {
			t.Errorf("Pending %d after the cancel", p)
		}
	})

	t.Run("checkpoint and restore", func(t *testing.T) {
		a := New(Config{Workers: 1})
		defer a.Stop()
		if _, err := a.AddJob(coSpec(sources, par, nil, newRecorder())); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(19, 1))
		all := fill(t, a, rng, 15) // window 1 and half of window 2, merged
		if a.Created() != int64(2*sources*par) {
			t.Fatalf("backlog of %d messages, want two windows' worth merged (%d)", a.Created(), 2*sources*par)
		}
		w := snap.NewWriter()
		if err := a.CheckpointJob("co", w); err != nil {
			t.Fatal(err)
		}
		if err := a.CancelJob("co"); err != nil {
			t.Fatal(err)
		}
		if a.Created() != a.Discarded() {
			t.Errorf("source engine: created %d, discarded %d", a.Created(), a.Discarded())
		}

		rec := newRecorder()
		b := New(Config{Workers: 1})
		defer b.Stop()
		if _, err := b.RestoreJob(coSpec(sources, par, nil, rec), w.Bytes()); err != nil {
			t.Fatal(err)
		}
		// A restored message is one unit however many batches it carried.
		if got, want := b.Pending(), 2*sources*par; got != want {
			t.Errorf("restored Pending %d, want one unit per restored message (%d)", got, want)
		}
		if err := b.ResumeJob("co"); err != nil {
			t.Fatal(err)
		}
		for step := 16; step <= 25; step++ {
			for src := range sources {
				bt := coBatch(rng, step, 4)
				all = append(all, bt)
				mustIngest(t, b, src, bt, vtime.Time(step)*coTick)
			}
		}
		closeWindows(t, b, 4*coWin)
		drainAndCheck(t, b, rec, coWant(all), 0)
	})
}

// TestCheckpointChainedPayloadBytes: a chained payload is written as the
// one batch of its tuples, byte for byte.
func TestCheckpointChainedPayloadBytes(t *testing.T) {
	env := dataflow.NewEnv(nil, nil, -1)
	env.Batches = dataflow.NewBatchPool(0)
	rng := rand.New(rand.NewPCG(23, 1))
	whole := dataflow.NewBatch(0)
	var head *dataflow.Batch
	for i := range 4 {
		b := env.NewBatch(3)
		src := coBatch(rng, i+1, 3)
		for k := range src.Times {
			b.Append(src.Times[k], src.Keys[k], src.Vals[k])
			whole.Append(src.Times[k], src.Keys[k], src.Vals[k])
		}
		var ok bool
		if head, ok = dataflow.Coalesce(head, b); !ok {
			t.Fatalf("link %d refused", i)
		}
	}
	if head.Len() != whole.Len() {
		t.Fatalf("chain holds %d tuples, want %d", head.Len(), whole.Len())
	}
	chained, flat := snap.NewWriter(), snap.NewWriter()
	writeBatch(chained, head)
	writeBatch(flat, whole)
	if string(chained.Bytes()) != string(flat.Bytes()) {
		t.Errorf("chained payload encodes as %d bytes unlike the flat batch's %d", len(chained.Bytes()), len(flat.Bytes()))
	}
	var links []*dataflow.Batch
	for b := head; b != nil; b = b.Next() {
		links = append(links, b)
	}
	env.FreeBatch(head)
	for i, b := range links {
		if b.Next() != nil {
			t.Errorf("FreeBatch left link %d chained", i)
		}
	}
}
