package runtime

// White-box pin of the shed sweep's run-queue fix-up (shedOp): whichever
// victim rule ran, an operator that still holds messages is keyed on its
// lane by its new head, and one whose queue emptied is on no lane — never
// left keyed by a message that is gone.

import (
	"sort"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// queueOrder returns op's queued messages head first, the order the
// operator's heap pops them in.
func queueOrder(op *dataflow.Operator) []*core.Message {
	var q []*core.Message
	op.Sched().Q.Each(func(m *core.Message) { q = append(q, m) })
	sort.Slice(q, func(i, j int) bool {
		if q[i].PC.PriLocal != q[j].PC.PriLocal {
			return q[i].PC.PriLocal < q[j].PC.PriLocal
		}
		return q[i].ID < q[j].ID
	})
	return q
}

func TestShedRunQueueFixup(t *testing.T) {
	const (
		headRemoved = "removes the head"
		emptied     = "empties the queue"
		headKept    = "leaves the head"
	)
	type ruleFor func(p *shardedPath, op *dataflow.Operator) shedRule
	// doomed stamps the queued messages at the given queue positions (0 is
	// the head) with an elapsed start deadline and the rest with distant
	// ones, re-keys the operator's lane entry by its head as a push would,
	// and returns the rule that sheds exactly the stamped ones.
	doomed := func(pos ...int) ruleFor {
		return func(p *shardedPath, op *dataflow.Operator) shedRule {
			q := queueOrder(op)
			for i, m := range q {
				m.PC.PriGlobal = vtime.Time(1<<40 + i)
			}
			for _, i := range pos {
				q[i].PC.PriGlobal = 1
			}
			st := op.Sched()
			p.runq.Update(int(st.Lane), op, core.GlobalPri(st.Q.Peek()))
			return shedRule{doomed: true, now: 2}
		}
	}
	source := func(src, limit int) ruleFor {
		return func(*shardedPath, *dataflow.Operator) shedRule {
			return shedRule{fromSrc: true, src: src, limit: limit}
		}
	}
	tail := func(limit int) ruleFor {
		return func(*shardedPath, *dataflow.Operator) shedRule { return shedRule{limit: limit} }
	}
	rows := []struct {
		rule string
		srcs []int // the source channel of each ingested window, in order
		r    ruleFor
		want string
	}{
		{"doomed", []int{0, 0, 0}, doomed(0), headRemoved},
		{"doomed", []int{0, 0, 0}, doomed(0, 1, 2), emptied},
		{"doomed", []int{0, 0, 0}, doomed(1, 2), headKept},
		// The source sweep scans the heap's array from the head, so a
		// limit of one on the head's source takes the head.
		{"source", []int{0, 1, 0}, source(0, 1), headRemoved},
		{"source", []int{0, 0, 0}, source(0, 8), emptied},
		{"source", []int{0, 1, 1}, source(1, 8), headKept},
		// A tail sweep takes the head only by emptying the queue.
		{"tail", []int{0, 0, 0}, tail(8), emptied},
		{"tail", []int{0, 1, 0}, tail(1), headKept},
	}
	win := 10 * vtime.Millisecond
	for _, row := range rows {
		t.Run(row.rule+"/"+row.want, func(t *testing.T) {
			// One worker, never started until the end: the sole stage-0
			// operator, made runnable by ingest, is alone on the run queue.
			e := New(Config{Workers: 1})
			job, err := e.AddJob(testkit.AggSpec("j", 2, 1, win, vtime.Second))
			if err != nil {
				t.Fatal(err)
			}
			wl := testkit.Workload{Seed: 7, Sources: 2, Windows: len(row.srcs), Tuples: 2, Keys: 4, Win: win}
			for i, src := range row.srcs {
				if err := e.Ingest("j", src, wl.Batch(src, i+1), wl.Progress(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			p, op := e.path, job.Stages[0][0]
			st := op.Sched()
			if st.Lane == laneNone || st.Q.Len() != len(row.srcs) {
				t.Fatalf("set-up: lane %d, %d queued; want a runnable operator holding %d", st.Lane, st.Q.Len(), len(row.srcs))
			}
			r := row.r(p, op)
			head := st.Q.Peek()
			n := p.shedOp(op, r)

			var got string
			switch {
			case n == 0:
				got = "sheds nothing"
			case st.Q.Len() == 0:
				got = emptied
			case st.Q.Peek() != head:
				got = headRemoved
			default:
				got = headKept
			}
			if got != row.want {
				t.Fatalf("sweep %s (shed %d of %d), want it to %s", got, n, len(row.srcs), row.want)
			}
			if st.Q.Len() == 0 {
				if st.Lane != laneNone || p.runq.Len() != 0 {
					t.Errorf("emptied operator: lane %d, run queue holds %d; want it on no lane", st.Lane, p.runq.Len())
				}
			} else {
				lane, key, ok := p.runq.PeekLane(int(st.Lane))
				if want := core.GlobalPri(st.Q.Peek()); !ok || lane != op || key != want {
					t.Errorf("lane %d entry (%v, %+v), want the operator keyed %+v by its new head", st.Lane, ok, key, want)
				}
			}

			e.Start()
			testkit.DrainOrFail(t, e, 10*time.Second)
			e.Stop()
			if e.Discarded() != int64(n) {
				t.Errorf("discarded %d, want the %d shed", e.Discarded(), n)
			}
			if created, settled := e.Created(), e.Executed()+e.Discarded(); created != settled {
				t.Errorf("conservation: created %d, executed+discarded %d", created, settled)
			}
			if e.Pending() != 0 {
				t.Errorf("pending = %d after drain", e.Pending())
			}
		})
	}
}
