package metrics

import (
	"sync"
	"sync/atomic"

	"github.com/cameo-stream/cameo/internal/vtime"
)

// Timeline buckets a counter over fixed-width time intervals — throughput
// per second for Figure 6, output latency over time for Figure 9 timelines.
type Timeline struct {
	mu     sync.Mutex
	width  vtime.Duration
	counts map[int64]float64
	n      map[int64]int64
}

// NewTimeline returns a timeline with the given bucket width.
func NewTimeline(width vtime.Duration) *Timeline {
	if width <= 0 {
		panic("metrics: timeline width must be positive")
	}
	return &Timeline{width: width, counts: make(map[int64]float64), n: make(map[int64]int64)}
}

// Add accumulates value v into the bucket containing t.
func (tl *Timeline) Add(t vtime.Time, v float64) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	b := int64(t / tl.width)
	tl.counts[b] += v
	tl.n[b]++
}

// Point is one timeline bucket: T is the bucket start instant, Sum the
// accumulated value, N the number of additions, Mean their ratio.
type Point struct {
	T    vtime.Time
	Sum  float64
	N    int64
	Mean float64
}

// Series returns buckets in time order, including empty gaps as zero points
// between the first and last populated bucket so plots don't hide idleness.
func (tl *Timeline) Series() []Point {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if len(tl.counts) == 0 {
		return nil
	}
	var lo, hi int64
	first := true
	for b := range tl.counts {
		if first {
			lo, hi = b, b
			first = false
			continue
		}
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	out := make([]Point, 0, hi-lo+1)
	for b := lo; b <= hi; b++ {
		p := Point{T: vtime.Time(b) * tl.width, Sum: tl.counts[b], N: tl.n[b]}
		if p.N > 0 {
			p.Mean = p.Sum / float64(p.N)
		}
		out = append(out, p)
	}
	return out
}

// ScheduleEvent is one operator execution for the schedule trace of Figure
// 7(c): operator Op of stage Stage ran a message at Start for Cost.
type ScheduleEvent struct {
	Start vtime.Time
	Cost  vtime.Duration
	Job   string
	Stage int
	Op    string
	P     vtime.Time // logical time of the message, to colour windows
	Msg   int64      // engine-assigned message ID, for execution-order diffs
}

// ScheduleTrace records operator executions in arrival order.
type ScheduleTrace struct {
	mu     sync.Mutex
	events []ScheduleEvent
	limit  int
}

// NewScheduleTrace returns a trace that keeps at most limit events
// (0 = unlimited). Experiments cap traces so multi-minute simulations don't
// hold gigabytes of events.
func NewScheduleTrace(limit int) *ScheduleTrace {
	return &ScheduleTrace{limit: limit}
}

// Add appends an event unless the limit is reached.
func (st *ScheduleTrace) Add(e ScheduleEvent) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.limit > 0 && len(st.events) >= st.limit {
		return
	}
	st.events = append(st.events, e)
}

// Events returns the recorded events. The caller must not modify them.
func (st *ScheduleTrace) Events() []ScheduleEvent {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.events
}

// OverheadSnapshot is a point-in-time copy of an Overhead's accounting.
type OverheadSnapshot struct {
	Exec     vtime.Duration
	Messages int64
}

// Overhead accounts the real-time engine's executed messages and their
// measured execution time. The adds sit on the per-message hot path, so
// the tallies are kept in one cache-line-sized cell per worker — a
// worker's adds never leave its core — and summed on read: a mid-flight
// Snapshot may observe the cells at slightly different instants; at
// quiescence (post-drain, where every report reads it) the numbers are
// exact. The engine reads the clock once per message, at completion, so a
// message's Exec also covers the previous message's context generation
// and delivery, which are not timed separately.
type Overhead struct {
	cells []overheadCell
}

type overheadCell struct {
	exec, messages atomic.Int64
	_              [48]byte // one cell per cache line
}

// NewOverhead returns an accounting with the given number of cells
// (one per worker; at least one).
func NewOverhead(cells int) *Overhead {
	if cells < 1 {
		cells = 1
	}
	return &Overhead{cells: make([]overheadCell, cells)}
}

// AddExec adds useful execution time for one message to the given cell.
func (o *Overhead) AddExec(cell int, d vtime.Duration) {
	c := &o.cells[cell]
	c.exec.Add(int64(d))
	c.messages.Add(1)
}

// Snapshot returns the current accounting summed over the cells.
func (o *Overhead) Snapshot() OverheadSnapshot {
	var s OverheadSnapshot
	for i := range o.cells {
		c := &o.cells[i]
		s.Exec += vtime.Duration(c.exec.Load())
		s.Messages += c.messages.Load()
	}
	return s
}
