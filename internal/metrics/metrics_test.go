package metrics

import (
	"strings"
	"sync"
	"testing"

	"github.com/cameo-stream/cameo/internal/vtime"
)

func TestRecorderLatencyAndSuccess(t *testing.T) {
	r := NewRecorder()
	r.DeclareJob("j1", 100*vtime.Millisecond)
	// Three outputs: 50ms, 100ms (meets, boundary inclusive), 150ms (violates).
	r.Record(Output{Job: "j1", Ready: 0, Emitted: 50 * vtime.Millisecond})
	r.Record(Output{Job: "j1", Ready: 0, Emitted: 100 * vtime.Millisecond})
	r.Record(Output{Job: "j1", Ready: 100 * vtime.Millisecond, Emitted: 250 * vtime.Millisecond})
	j := r.Job("j1")
	if j.Count() != 3 {
		t.Fatalf("output count = %d", j.Count())
	}
	if j.Latencies != nil || j.Outputs != nil {
		t.Fatal("a recorder without history kept outputs")
	}
	if got := j.SuccessRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("SuccessRate = %v, want 2/3", got)
	}
}

func TestRecorderUndeclaredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecorder().Record(Output{Job: "nope"})
}

func TestRecorderRedeclare(t *testing.T) {
	r := NewRecorder()
	r.DeclareJob("j", vtime.Second)
	r.DeclareJob("j", vtime.Second) // same constraint: fine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on changed constraint")
		}
	}()
	r.DeclareJob("j", 2*vtime.Second)
}

func TestRecorderMerged(t *testing.T) {
	r := NewHistoryRecorder()
	r.DeclareJob("ls-1", 10)
	r.DeclareJob("ls-2", 10)
	r.DeclareJob("ba-1", 1000)
	r.Record(Output{Job: "ls-1", Emitted: 5})
	r.Record(Output{Job: "ls-2", Emitted: 20})
	r.Record(Output{Job: "ba-1", Emitted: 500})
	ls := r.Merged(func(j string) bool { return strings.HasPrefix(j, "ls-") })
	if ls.Len() != 2 {
		t.Fatalf("merged count = %d, want 2", ls.Len())
	}
	all := r.Merged(nil)
	if all.Len() != 3 {
		t.Fatalf("merged all = %d, want 3", all.Len())
	}
	if sr := r.MergedSuccessRate(func(j string) bool { return strings.HasPrefix(j, "ls-") }); sr != 0.5 {
		t.Fatalf("merged success = %v, want 0.5", sr)
	}
	if sr := r.MergedSuccessRate(func(string) bool { return false }); sr != 0 {
		t.Fatalf("empty merged success = %v, want 0", sr)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewHistoryRecorder()
	r.DeclareJob("j", vtime.Second)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(Output{Job: "j", Emitted: vtime.Time(i)})
			}
		}()
	}
	wg.Wait()
	j := r.Job("j")
	if n := j.Latencies.Len(); n != 8000 || len(j.Outputs) != 8000 || j.Count() != 8000 {
		t.Fatalf("recorded %d latencies, %d outputs, count %d; want 8000", n, len(j.Outputs), j.Count())
	}
}

// TestRecorderMergedNeedsHistory: a recorder without history cannot pool
// latencies, and says which constructor can; the success rate, read from
// the exact counters, works on both kinds.
func TestRecorderMergedNeedsHistory(t *testing.T) {
	r := NewRecorder()
	r.DeclareJob("j", 10)
	r.Record(Output{Job: "j", Emitted: 5})
	r.Record(Output{Job: "j", Emitted: 20})
	if sr := r.MergedSuccessRate(nil); sr != 0.5 {
		t.Fatalf("merged success = %v, want 0.5", sr)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "NewHistoryRecorder") {
			t.Fatalf("Merged without history: panic %q, want one naming NewHistoryRecorder", msg)
		}
	}()
	r.Merged(nil)
}

func TestTimelineSeries(t *testing.T) {
	tl := NewTimeline(vtime.Second)
	tl.Add(0, 1)
	tl.Add(500*vtime.Millisecond, 2)
	tl.Add(3*vtime.Second, 10)
	pts := tl.Series()
	if len(pts) != 4 { // buckets 0..3 inclusive, gap buckets present
		t.Fatalf("series len = %d, want 4", len(pts))
	}
	if pts[0].Sum != 3 || pts[0].N != 2 || pts[0].Mean != 1.5 {
		t.Fatalf("bucket 0 = %+v", pts[0])
	}
	if pts[1].Sum != 0 || pts[2].Sum != 0 {
		t.Fatal("gap buckets should be zero")
	}
	if pts[3].Sum != 10 || pts[3].T != 3*vtime.Second {
		t.Fatalf("bucket 3 = %+v", pts[3])
	}
}

func TestTimelineEmpty(t *testing.T) {
	if pts := NewTimeline(vtime.Second).Series(); pts != nil {
		t.Fatalf("empty series = %v", pts)
	}
}

func TestScheduleTraceLimit(t *testing.T) {
	st := NewScheduleTrace(2)
	for i := 0; i < 5; i++ {
		st.Add(ScheduleEvent{Start: vtime.Time(i)})
	}
	if n := len(st.Events()); n != 2 {
		t.Fatalf("trace kept %d events, want 2", n)
	}
	unlimited := NewScheduleTrace(0)
	for i := 0; i < 5; i++ {
		unlimited.Add(ScheduleEvent{Start: vtime.Time(i)})
	}
	if n := len(unlimited.Events()); n != 5 {
		t.Fatalf("unlimited trace kept %d events, want 5", n)
	}
}

func TestOverheadAccounting(t *testing.T) {
	o := NewOverhead(2) // cells sum on read
	o.AddExec(0, 50)
	o.AddExec(1, 30)
	if s := o.Snapshot(); s.Messages != 2 || s.Exec != 80 {
		t.Fatalf("Snapshot = %+v", s)
	}
	if s := NewOverhead(0).Snapshot(); s != (OverheadSnapshot{}) {
		t.Fatalf("empty Snapshot = %+v", s)
	}
}
