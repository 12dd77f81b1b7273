package runtime_test

// Preemption-delay bound (ISSUE 16): a drain batch amortizes locking and
// nothing else. However large DrainBatch is, a worker re-evaluates "is
// something more urgent waiting?" at the first message boundary after its
// quantum expires, so an urgent arrival waits at most one quantum plus one
// message — not the rest of the batch.
//
// The bound is asserted as a COUNT of bulk executions, not as wall time:
// the bulk handler spins on the wall clock, so a slow or loaded machine
// fits fewer executions into a quantum, never more.

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

const (
	preemptQuantum  = vtime.Millisecond
	preemptCost     = 400 * time.Microsecond
	preemptBacklog  = 64    // messages per bulk operator == DrainBatch
	preemptMaxAfter = 3 + 2 // ⌈quantum/cost⌉ + margin
)

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// preemptRig stages the worst case for the bound on every bulk operator:
// execution 0 outlasts a whole quantum, so the worker makes a (non-yield)
// decision at its end and starts a FRESH quantum; execution 1 reports in
// and holds until the urgent message has been ingested, so the arrival
// lands at the very start of that quantum. started closes once every bulk
// operator has reported in, i.e. every worker is holding one.
type preemptRig struct {
	started  chan struct{}
	waiting  atomic.Int32
	ingested atomic.Bool
}

func (r *preemptRig) bulkSpec(par int) dataflow.JobSpec {
	return dataflow.JobSpec{
		Name: "bulk", Latency: 10 * vtime.Second, Sources: preemptBacklog,
		Stages: []dataflow.StageSpec{{
			Name: "burn", Parallelism: par,
			NewHandler: func(int) dataflow.Handler {
				calls := 0 // per operator; the actor guarantee serializes it
				return dataflow.HandlerFunc(func(*dataflow.Context, *core.Message) []dataflow.Emission {
					switch calls++; calls {
					case 1:
						spin(vtime.Std(preemptQuantum) + preemptCost)
						return nil
					case 2:
						if int(r.waiting.Add(1)) == par {
							close(r.started)
						}
						for t0 := time.Now(); !r.ingested.Load() && time.Since(t0) < 5*time.Second; {
						}
					}
					spin(preemptCost)
					return nil
				})
			},
		}},
	}
}

func urgentSpec() dataflow.JobSpec {
	return dataflow.JobSpec{
		Name: "urgent", Latency: vtime.Millisecond, Sources: 1,
		Stages: []dataflow.StageSpec{{Name: "u", Parallelism: 1, NewHandler: testkit.NopHandler}},
	}
}

func TestPreemptionBoundedByQuantum(t *testing.T) {
	defer testkit.LeakCheck(t)()
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("cameo/sharded/w%d", workers), func(t *testing.T) {
			rig := &preemptRig{started: make(chan struct{})}
			e := runtime.New(runtime.Config{
				Workers: workers, Quantum: preemptQuantum, DrainBatch: preemptBacklog,
				TraceLimit: 1 << 12,
			})
			if _, err := e.AddJob(rig.bulkSpec(workers)); err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddJob(urgentSpec()); err != nil {
				t.Fatal(err)
			}
			// One ingest is one message per bulk operator, each on its own
			// source. Progress is a permutation of 1..64, so queue order
			// (PriLocal, ID) differs from arrival order and a returned tail
			// has to be re-sorted, not just prepended.
			for i := 0; i < preemptBacklog; i++ {
				p := vtime.Time((i*37)%preemptBacklog + 1)
				if err := e.Ingest("bulk", i, dataflow.NewBatch(0), p); err != nil {
					t.Fatal(err)
				}
			}
			e.Start()
			defer e.Stop()
			select {
			case <-rig.started:
			case <-time.After(10 * time.Second):
				t.Fatal("no bulk execution observed")
			}
			if err := e.Ingest("urgent", 0, dataflow.NewBatch(0), 1); err != nil {
				t.Fatal(err)
			}
			arrived := e.Now()
			rig.ingested.Store(true)
			testkit.DrainOrFail(t, e, 30*time.Second)

			if created, settled := e.Created(), e.Executed()+e.Discarded(); created != settled {
				t.Fatalf("conservation: created %d, executed+discarded %d", created, settled)
			}
			if e.Discarded() != 0 {
				t.Fatalf("discarded %d messages", e.Discarded())
			}
			if e.Pending() != 0 {
				t.Fatalf("pending = %d after drain", e.Pending())
			}

			events := e.Trace().Events()
			urgentAt := vtime.Time(-1)
			perOp := map[string][]execKey{}
			for _, ev := range events {
				if ev.Job == "urgent" {
					if urgentAt >= 0 {
						t.Fatal("urgent message executed twice")
					}
					urgentAt = ev.Start
					continue
				}
				perOp[ev.Op] = append(perOp[ev.Op], execKey{Op: ev.Op, Msg: ev.Msg, P: ev.P})
			}
			if urgentAt < 0 {
				t.Fatal("urgent message never executed")
			}
			if len(perOp) != workers {
				t.Fatalf("%d bulk operators executed, want %d", len(perOp), workers)
			}
			for op, seq := range perOp {
				if len(seq) != preemptBacklog {
					t.Fatalf("%s executed %d messages, want %d", op, len(seq), preemptBacklog)
				}
				// Per-operator (PriLocal, ID) order must survive the
				// returned tails.
				inOrder := sort.SliceIsSorted(seq, func(a, b int) bool {
					if seq[a].P != seq[b].P {
						return seq[a].P < seq[b].P
					}
					return seq[a].Msg < seq[b].Msg
				})
				if !inOrder {
					t.Fatalf("%s executed out of queue order: %+v", op, seq)
				}
			}
			// Bulk executions that STARTED after the urgent message was
			// queued and before it ran, per operator (one worker holds an
			// operator at a time, so this is that worker's blind stretch).
			// The bound binds the worker on whose lane the urgent operator
			// landed — workers do not scan each other's lanes at the
			// decision point — so with several workers it is the least
			// count that must respect it; the others may be starved of a
			// CPU, or simply not responsible.
			between := map[string]int{}
			for _, ev := range events {
				if ev.Job == "bulk" && ev.Start >= arrived && ev.Start < urgentAt {
					between[ev.Op]++
				}
			}
			least := preemptBacklog
			for op := range perOp {
				t.Logf("%s: %d executions between the urgent arrival and its execution", op, between[op])
				least = min(least, between[op])
			}
			if least > preemptMaxAfter {
				t.Errorf("every worker ran more than %d bulk messages between the urgent arrival and its execution (quantum %v, cost %v, DrainBatch %d)",
					preemptMaxAfter, vtime.Std(preemptQuantum), preemptCost, preemptBacklog)
			}
		})
	}
}
