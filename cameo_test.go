package cameo

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/testkit"
)

func dashboardQuery(name string) *Query {
	return NewQuery(name).
		LatencyTarget(500*time.Millisecond).
		Sources(2).
		Aggregate("agg", 2, Window(100*time.Millisecond), Count).
		AggregateGlobal("total", Window(100*time.Millisecond), Sum)
}

func TestQueryBuilderValidates(t *testing.T) {
	if _, err := dashboardQuery("ok").Spec(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := []*Query{
		NewQuery(""),
		NewQuery("x"), // no stages
		NewQuery("x").Aggregate("a", 0, Window(time.Second), Sum),
		NewQuery("x").Aggregate("a", 1, WindowSpec{}, Sum),
		NewQuery("x").Map("m", 1, func(_ time.Duration, k int64, v float64) (int64, float64) {
			return k, v
		}).Join("j", 1, time.Second), // join not first
		NewQuery("x").CostModel(time.Millisecond, 0), // cost before stage
	}
	for i, q := range bad {
		if _, err := q.Spec(); err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
}

func TestQueryBuilderPorts(t *testing.T) {
	q := NewQuery("join").
		Sources(4).
		SourcePorts(2).
		Join("j", 2, time.Second).
		AggregateGlobal("sum", Window(time.Second), Sum)
	spec, err := q.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.SourcePorts != 2 || len(spec.Stages) != 2 {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestEngineEndToEnd(t *testing.T) {
	defer testkit.LeakCheck(t)()
	eng := NewEngine(EngineConfig{Workers: 2})
	if err := eng.Submit(dashboardQuery("job")); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()

	win := 100 * time.Millisecond
	for w := 1; w <= 10; w++ {
		progress := time.Duration(w) * win
		for src := 0; src < 2; src++ {
			events := make([]Event, 5)
			for i := range events {
				events[i] = Event{Time: progress - time.Duration(i+1)*time.Millisecond, Key: int64(i), Value: 1}
			}
			if err := eng.IngestBatch("job", src, events, progress); err != nil {
				t.Fatal(err)
			}
		}
	}
	for src := 0; src < 2; src++ {
		if err := eng.AdvanceProgress("job", src, 11*win); err != nil {
			t.Fatal(err)
		}
	}
	testkit.DrainOrFail(t, eng, 5*time.Second)
	st, err := eng.Stats("job")
	if err != nil {
		t.Fatal(err)
	}
	if st.Outputs < 8 {
		t.Fatalf("outputs = %d, want >= 8", st.Outputs)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("percentiles wrong: %+v", st)
	}
	if _, err := eng.Stats("ghost"); err == nil {
		t.Fatal("Stats for unknown job succeeded")
	}
	if snapshot, err := eng.Checkpoint("job"); err != nil || len(snapshot) == 0 {
		t.Fatalf("Checkpoint of a healthy query: %d bytes, err = %v", len(snapshot), err)
	}

	// A query quarantined by a handler panic is refused by Checkpoint.
	bad := NewQuery("bad").Map("panics", 1, func(time.Duration, int64, float64) (int64, float64) {
		panic("injected handler fault")
	})
	if err := eng.Submit(bad); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestBatch("bad", 0, []Event{{Time: time.Millisecond, Value: 1}}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if drained, err := eng.DrainJob("bad", 5*time.Second); !drained || err != nil {
		t.Fatalf("DrainJob(bad): drained=%v err=%v", drained, err)
	}
	if st, _ := eng.Stats("bad"); !st.Failed {
		t.Fatal("handler panic did not quarantine the query")
	}
	if _, err := eng.Checkpoint("bad"); err == nil {
		t.Fatal("Checkpoint captured a quarantined query")
	}
}

// TestEngineOverloadPublicAPI drives the admission layer end to end
// through the public surface: an engine-wide budget with backpressure,
// TryIngestBatch flow control, the ErrOverloaded → drain → accept round
// trip, and the Stats counters.
func TestEngineOverloadPublicAPI(t *testing.T) {
	defer testkit.LeakCheck(t)()
	eng := NewEngine(EngineConfig{Workers: 1, MaxPending: 8})
	if err := eng.Submit(dashboardQuery("job").MaxPending(64)); err != nil {
		t.Fatal(err)
	}
	// Fill the budget before Start so nothing drains out from under the
	// admission check (a paused job refuses ingest with ErrJobPaused).
	win := 100 * time.Millisecond
	offer := func(ingest func(string, int, []Event, time.Duration) error, w int) error {
		progress := time.Duration(w) * win
		return ingest("job", 0, []Event{{Time: progress - time.Millisecond, Key: 1, Value: 1}}, progress)
	}
	var rejection error
	accepted := 0
	for w := 1; w <= 16; w++ {
		if rejection = offer(eng.TryIngestBatch, w); rejection != nil {
			break
		}
		accepted++
	}
	if !errors.Is(rejection, ErrOverloaded) {
		t.Fatalf("TryIngestBatch on a full engine = %v, want ErrOverloaded", rejection)
	}
	if p := eng.Pending(); p == 0 || p > 8 {
		t.Fatalf("Pending = %d, want within (0, 8]", p)
	}
	if eng.Rejected() == 0 {
		t.Fatal("Rejected = 0 after a refused ingest")
	}
	st, err := eng.Stats("job")
	if err != nil {
		t.Fatal(err)
	}
	if st.Backpressure == 0 {
		t.Fatalf("Stats.Backpressure = 0 after a refused ingest: %+v", st)
	}
	if st.Shed != 0 {
		t.Fatalf("backpressure engine shed %d messages", st.Shed)
	}

	// Start, drain, and the same source is welcome again.
	eng.Start()
	defer eng.Stop()
	testkit.DrainOrFail(t, eng, 10*time.Second)
	if err := offer(eng.IngestBatch, accepted+1); err != nil {
		t.Fatalf("ingest after drain refused: %v", err)
	}
	testkit.DrainOrFail(t, eng, 10*time.Second)
	if created, executed, discarded := eng.Created(), eng.Executed(), eng.Discarded(); created != executed+discarded {
		t.Fatalf("created %d != executed %d + discarded %d", created, executed, discarded)
	}
	// Out-of-range sources are errors, not panics, at the public surface.
	if err := eng.IngestBatch("job", 99, nil, time.Second); err == nil {
		t.Fatal("IngestBatch accepted an out-of-range source")
	}
}

func TestEngineSubmitErrors(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	if err := eng.Submit(NewQuery("")); err == nil {
		t.Fatal("invalid query accepted")
	}
	if err := eng.Submit(dashboardQuery("dup")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(dashboardQuery("dup")); err == nil {
		t.Fatal("duplicate job accepted")
	}
	eng.Start()
	eng.Stop()
}

func TestSimulationEndToEnd(t *testing.T) {
	for _, sched := range []Scheduler{SchedulerCameo, SchedulerOrleans, SchedulerFIFO} {
		simu := NewSimulation(SimulationConfig{
			Nodes: 1, WorkersPerNode: 2,
			Scheduler: sched,
			Duration:  20 * time.Second,
			Seed:      3,
		})
		q := NewQuery("s").
			LatencyTarget(800*time.Millisecond).
			EventTime().
			Sources(4).
			Aggregate("agg", 2, Window(time.Second), Sum).
			AggregateGlobal("total", Window(time.Second), Sum)
		if err := simu.Submit(q, SourceProfile{
			Interval: time.Second, TuplesPerBatch: 50, Keys: 16, Delay: 50 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		res := simu.Run()
		st := res.Job("s")
		if st.Outputs < 10 {
			t.Fatalf("%v: outputs = %d", sched, st.Outputs)
		}
		if res.Messages == 0 || res.Utilization <= 0 {
			t.Fatalf("%v: empty result %+v", sched, res)
		}
	}
}

func TestSimulationDeterminism(t *testing.T) {
	run := func() SimulationResult {
		simu := NewSimulation(SimulationConfig{
			Nodes: 1, WorkersPerNode: 1, Duration: 10 * time.Second, Seed: 9,
		})
		q := dashboardQuery("d")
		if err := simu.Submit(q, SourceProfile{
			Interval: 100 * time.Millisecond, TuplesPerBatch: 10, Keys: 4,
		}); err != nil {
			t.Fatal(err)
		}
		return simu.Run()
	}
	a, b := run(), run()
	if a.Messages != b.Messages || !reflect.DeepEqual(a.Job("d"), b.Job("d")) {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestSimulationSubmitErrors(t *testing.T) {
	simu := NewSimulation(SimulationConfig{Duration: time.Second})
	if err := simu.Submit(NewQuery(""), SourceProfile{Interval: time.Second}); err == nil {
		t.Fatal("invalid query accepted")
	}
	if err := simu.Submit(dashboardQuery("x"), SourceProfile{}); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestTokenFairPolicy(t *testing.T) {
	policy := TokenFair(time.Second)
	policy.SetRate("a", 33)
	policy.SetRate("b", 66)
	simu := NewSimulation(SimulationConfig{
		Nodes: 1, WorkersPerNode: 1,
		Scheduler: SchedulerCameo, Policy: policy,
		Duration: 30 * time.Second, Seed: 5,
	})
	for _, name := range []string{"a", "b"} {
		q := NewQuery(name).
			LatencyTarget(10*time.Second).
			Sources(2).
			Emit("sink").
			CostModel(10*time.Millisecond, 0)
		// Demand 200 msg/s/job against ~100 msg/s capacity, with the
		// aggregate token rate (99/s) matching capacity: admission is
		// token-limited, so throughput splits by token share (1:2).
		if err := simu.Submit(q, SourceProfile{
			Interval: 10 * time.Millisecond, TuplesPerBatch: 5, Keys: 4,
		}); err != nil {
			t.Fatal(err)
		}
	}
	res := simu.Run()
	ra, rb := res.Job("a").Outputs, res.Job("b").Outputs
	if ra == 0 || rb == 0 {
		t.Fatalf("no outputs: a=%d b=%d", ra, rb)
	}
	ratio := float64(rb) / float64(ra)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("throughput ratio b:a = %.2f, want ~2", ratio)
	}
}

func TestPolicyConstructors(t *testing.T) {
	if LLF().Name() != "llf" || EDF().Name() != "edf" || SJF().Name() != "sjf" {
		t.Fatal("policy names")
	}
	if LLFTopologyOnly().Name() != "llf-nosem" {
		t.Fatal("topology-only name")
	}
}

func TestTopKAndDistinctCountStages(t *testing.T) {
	simu := NewSimulation(SimulationConfig{
		Nodes: 1, WorkersPerNode: 1, Duration: 15 * time.Second, Seed: 4,
	})
	top := NewQuery("trending").
		LatencyTarget(time.Second).
		Sources(2).
		TopK("top3", 1, time.Second, 3)
	if err := simu.Submit(top, SourceProfile{
		Interval: 250 * time.Millisecond, TuplesPerBatch: 40, Keys: 32,
	}); err != nil {
		t.Fatal(err)
	}
	uniq := NewQuery("uniques").
		LatencyTarget(time.Second).
		Sources(2).
		DistinctCount("uniq", 1, time.Second)
	if err := simu.Submit(uniq, SourceProfile{
		Interval: 250 * time.Millisecond, TuplesPerBatch: 40, Keys: 32,
	}); err != nil {
		t.Fatal(err)
	}
	res := simu.Run()
	if res.Job("trending").Outputs < 10 || res.Job("uniques").Outputs < 10 {
		t.Fatalf("outputs: trending=%d uniques=%d",
			res.Job("trending").Outputs, res.Job("uniques").Outputs)
	}
	// Invalid parameters are rejected at build time.
	if _, err := NewQuery("x").TopK("t", 1, 0, 3).Spec(); err == nil {
		t.Error("TopK zero window accepted")
	}
	if _, err := NewQuery("x").DistinctCount("d", 1, -time.Second).Spec(); err == nil {
		t.Error("DistinctCount negative window accepted")
	}
}

func TestMapFilterStages(t *testing.T) {
	simu := NewSimulation(SimulationConfig{
		Nodes: 1, WorkersPerNode: 1, Duration: 10 * time.Second, Seed: 2,
	})
	q := NewQuery("mf").
		LatencyTarget(time.Second).
		Sources(2).
		Filter("keep-even", 2, func(_ time.Duration, k int64, _ float64) bool { return k%2 == 0 }).
		Map("double", 2, func(_ time.Duration, k int64, v float64) (int64, float64) { return k, 2 * v }).
		AggregateGlobal("sum", Window(time.Second), Sum)
	if err := simu.Submit(q, SourceProfile{
		Interval: 500 * time.Millisecond, TuplesPerBatch: 20, Keys: 8,
	}); err != nil {
		t.Fatal(err)
	}
	res := simu.Run()
	if res.Job("mf").Outputs < 5 {
		t.Fatalf("outputs = %d", res.Job("mf").Outputs)
	}
}
