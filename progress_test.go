package cameo

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// recorder is a trailing Map stage's function that keeps every (time,
// value) tuple it sees, in arrival order.
type recorder struct {
	mu   sync.Mutex
	seen [][2]float64
}

func (r *recorder) record(t time.Duration, k int64, v float64) (int64, float64) {
	r.mu.Lock()
	r.seen = append(r.seen, [2]float64{float64(t / time.Millisecond), v})
	r.mu.Unlock()
	return k, v
}

func (r *recorder) tuples() [][2]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.seen)
}

func ingestOrFail(t *testing.T, e *Engine, job string, src int, evs []Event, p time.Duration) {
	t.Helper()
	if err := e.IngestBatch(job, src, evs, p); err != nil {
		t.Fatal(err)
	}
}

func drainOrFail(t *testing.T, e *Engine) {
	t.Helper()
	if !e.Drain(5 * time.Second) {
		t.Fatal("engine did not drain")
	}
}

// TestStatelessStageMergesSourceProgress: two sources behind one Map
// instance, one a millisecond behind the other. The Map's output channel
// must carry the merged progress of both sources. Forwarding each
// source's own progress made it go backwards at the window stage (9 ms
// after 10 ms), which panicked the handler and quarantined the job.
func TestStatelessStageMergesSourceProgress(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1})
	rec := &recorder{}
	q := NewQuery("merge").LatencyTarget(time.Second).Sources(2).
		Map("id", 1, func(_ time.Duration, k int64, v float64) (int64, float64) { return k, v }).
		AggregateGlobal("sum", Window(10*time.Millisecond), Sum).
		Map("record", 1, rec.record)
	if err := e.Submit(q); err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	ms := time.Millisecond
	ingestOrFail(t, e, "merge", 0, []Event{{Time: 1 * ms, Value: 1}, {Time: 6 * ms, Value: 2}}, 10*ms)
	drainOrFail(t, e)
	ingestOrFail(t, e, "merge", 1, []Event{{Time: 2 * ms, Value: 3}, {Time: 9 * ms, Value: 4}}, 9*ms)
	drainOrFail(t, e)
	if got := rec.tuples(); len(got) != 0 {
		t.Fatalf("window closed at merged progress 9 ms: %v", got)
	}
	ingestOrFail(t, e, "merge", 0, []Event{{Time: 12 * ms, Value: 5}}, 30*ms)
	ingestOrFail(t, e, "merge", 1, nil, 30*ms)
	drainOrFail(t, e)
	if n := e.HandlerPanics(); n != 0 {
		t.Fatalf("%d handler panics: the job was quarantined", n)
	}
	// Results are stamped just inside their window: 9 ms for (0, 10 ms].
	if got, want := rec.tuples(), [][2]float64{{9, 10}, {19, 5}}; !slices.Equal(got, want) {
		t.Fatalf("window sums %v, want %v", got, want)
	}
}

// TestLateBatchKeepsChannelOrder: a batch ingested after the end of its
// window, while the channel's earlier batch still waits behind a busy
// worker. Its frontier-time estimate (50 ms) is behind its own arrival
// (about 60 ms), which once made its local priority its raw progress
// (10 ms): it sorted ahead of the earlier batch (local priority 50 ms),
// the window stage saw progress go from 10 ms back to 5 ms, and the job
// was quarantined.
func TestLateBatchKeepsChannelOrder(t *testing.T) {
	ms := time.Millisecond
	e := NewEngine(EngineConfig{Workers: 1, StartClock: 40 * ms})
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	busy := NewQuery("busy").LatencyTarget(time.Second).
		Map("wait", 1, func(_ time.Duration, k int64, v float64) (int64, float64) {
			once.Do(func() { close(entered) })
			<-gate
			return k, v
		}).Emit("out")
	rec := &recorder{}
	late := NewQuery("late").LatencyTarget(time.Second).
		AggregateGlobal("sum", Window(50*ms), Sum).
		Map("record", 1, rec.record)
	for _, q := range []*Query{busy, late} {
		if err := e.Submit(q); err != nil {
			t.Fatal(err)
		}
	}
	e.Start()
	defer e.Stop()
	ingestOrFail(t, e, "busy", 0, []Event{{Time: 0, Value: 1}}, 0)
	<-entered // the only worker is held until the gate opens
	ingestOrFail(t, e, "late", 0, []Event{{Time: 5 * ms, Value: 1}}, 5*ms)
	time.Sleep(20 * ms)
	ingestOrFail(t, e, "late", 0, []Event{{Time: 10 * ms, Value: 2}}, 10*ms)
	close(gate)
	drainOrFail(t, e)
	ingestOrFail(t, e, "late", 0, nil, 50*ms)
	drainOrFail(t, e)
	if n := e.HandlerPanics(); n != 0 {
		t.Fatalf("%d handler panics: the job was quarantined", n)
	}
	if got, want := rec.tuples(), [][2]float64{{49, 3}}; !slices.Equal(got, want) {
		t.Fatalf("window sums %v, want %v", got, want)
	}
}

// TestIngestRefusesRegressingProgress: progress below what a source has
// already reported is refused with ErrProgressRegressed before admission,
// on IngestBatch, TryIngestBatch and AdvanceProgress alike, and leaves
// the job healthy; equal progress is accepted. A batch refused for
// overload records no progress, so a retry below it is still accepted.
// Accepting a regressing batch once quarantined the job when its window
// stage saw the channel go backwards.
func TestIngestRefusesRegressingProgress(t *testing.T) {
	ms := time.Millisecond
	e := NewEngine(EngineConfig{Workers: 1})
	q := NewQuery("r").LatencyTarget(time.Second).Sources(2).MaxPending(1).
		AggregateGlobal("sum", Window(10*ms), Sum)
	if err := e.Submit(q); err != nil {
		t.Fatal(err)
	}
	ev := []Event{{Time: 15 * ms, Value: 1}}
	ingestOrFail(t, e, "r", 0, ev, 20*ms)
	for name, ingest := range map[string]func() error{
		"IngestBatch":     func() error { return e.IngestBatch("r", 0, ev, 10*ms) },
		"TryIngestBatch":  func() error { return e.TryIngestBatch("r", 0, ev, 10*ms) },
		"AdvanceProgress": func() error { return e.AdvanceProgress("r", 0, 19*ms) },
	} {
		if err := ingest(); !errors.Is(err, ErrProgressRegressed) {
			t.Errorf("%s below the source's progress: %v, want ErrProgressRegressed", name, err)
		}
	}
	if p := e.Pending(); p != 1 {
		t.Fatalf("%d messages pending, want only the first batch", p)
	}
	// The budget is full: this batch is refused and records nothing.
	if err := e.TryIngestBatch("r", 1, ev, 40*ms); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget batch: %v, want ErrOverloaded", err)
	}
	e.Start()
	defer e.Stop()
	drainOrFail(t, e)
	ingestOrFail(t, e, "r", 1, ev, 30*ms)
	ingestOrFail(t, e, "r", 0, nil, 20*ms) // equal progress
	ingestOrFail(t, e, "r", 0, nil, 40*ms)
	ingestOrFail(t, e, "r", 1, nil, 40*ms)
	drainOrFail(t, e)
	if n := e.HandlerPanics(); n != 0 {
		t.Fatalf("%d handler panics: the job was quarantined", n)
	}
	st, err := e.Stats("r")
	if err != nil {
		t.Fatal(err)
	}
	if st.Outputs != 1 {
		t.Fatalf("%d window results, want the one window holding both batches", st.Outputs)
	}
}
