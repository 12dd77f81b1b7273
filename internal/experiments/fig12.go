package experiments

import (
	"fmt"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// fig12Tenants matches the paper's no-op overhead microbenchmark scale
// (300–350 tenants, one message per second each).
const fig12Tenants = 320

// tenantOp is the minimal intrusive operator handle of the no-op
// microbenchmark (the real engines use *dataflow.Operator).
type tenantOp struct{ sched core.SchedState }

func (o *tenantOp) Sched() *core.SchedState { return &o.sched }

func tenantOps() []*tenantOp {
	ops := make([]*tenantOp, fig12Tenants)
	for i := range ops {
		ops[i] = &tenantOp{}
	}
	return ops
}

// measureDispatch pushes and drains msgs messages across fig12Tenants
// operators through the given dispatcher, running the policy's context
// conversion per message when policy is non-nil, and returns the measured
// wall time per message.
func measureDispatch(d core.Dispatcher[*tenantOp], policy core.Policy, msgs int) time.Duration {
	ti := core.TargetInfo{
		Slide:   vtime.Second,
		Mapper:  progress.IdentityMapper{},
		Cost:    500 * vtime.Microsecond,
		Latency: vtime.Second,
	}
	ops := tenantOps()
	start := time.Now()
	for i := 0; i < msgs; i++ {
		m := &core.Message{ID: int64(i), P: vtime.Time(i), T: vtime.Time(i)}
		if policy != nil {
			policy.OnSource(m, ti)
		}
		d.Push(ops[i%fig12Tenants], m, -1)
		// Drain in batches to keep queues short, as the paper's no-op
		// workload does (tenants saturate throughput, queues stay shallow).
		if i%fig12Tenants == fig12Tenants-1 {
			for {
				op, ok := d.NextOp(0)
				if !ok {
					break
				}
				for {
					if _, ok := d.PopMsg(op); !ok {
						break
					}
				}
				d.Done(op, 0)
			}
		}
	}
	// Final drain.
	for {
		op, ok := d.NextOp(0)
		if !ok {
			break
		}
		for {
			if _, ok := d.PopMsg(op); !ok {
				break
			}
		}
		d.Done(op, 0)
	}
	return time.Since(start) / time.Duration(msgs)
}

// measureHandler times the windowed-aggregation handler on one batch of n
// tuples (the per-message execution cost the scheduling overhead amortizes
// against).
func measureHandler(n int) time.Duration {
	j, err := dataflow.NewJob(dataflow.JobSpec{Name: "measure", Latency: vtime.Second, Sources: 1,
		Stages: []dataflow.StageSpec{{Parallelism: 1, NewHandler: operators.WindowAgg(operators.WindowAggSpec{
			Size: vtime.Second, Slide: vtime.Second, Agg: operators.Sum,
		})}}})
	if err != nil {
		panic(err)
	}
	op, env := j.Stages[0][0], dataflow.NewEnv(nil, nil, -1)
	reps := 1 + 200000/(n+1)
	batches := make([]*dataflow.Batch, reps)
	for rpt := 0; rpt < reps; rpt++ {
		b := dataflow.NewBatch(n)
		base := vtime.Time(rpt) * vtime.Second
		for i := 0; i < n; i++ {
			b.Append(base+vtime.Time(i%999000)+1, int64(i%64), float64(i))
		}
		batches[rpt] = b
	}
	start := time.Now()
	for rpt := 0; rpt < reps; rpt++ {
		m := &core.Message{P: vtime.Time(rpt+1) * vtime.Second, T: vtime.Time(rpt+1) * vtime.Second, Payload: batches[rpt]}
		dataflow.Invoke(op, m, m.T, env)
	}
	return time.Since(start) / time.Duration(reps)
}

// Fig12 measures Cameo's real scheduling overhead (Figure 12): left, the
// per-message cost of FIFO dispatch vs Cameo's priority scheduling vs
// Cameo with full priority generation, on the 320-tenant no-op workload;
// right, that overhead as a fraction of message execution time for growing
// tuple batches.
func Fig12() *Report {
	r := &Report{
		Figure:  "Figure 12",
		Caption: "Scheduling overhead (real wall-clock measurements, no-op workload)",
	}
	const msgs = 400_000

	// Warm-up pass absorbs allocator growth and code-path JIT effects so
	// the measured passes compare steady states.
	measureDispatch(core.NewFIFODispatcher[*tenantOp](), nil, msgs/4)
	measureDispatch(core.NewCameoDispatcher[*tenantOp](), core.ArrivalPolicy{}, msgs/4)
	measureDispatch(core.NewCameoDispatcher[*tenantOp](), &core.DeadlinePolicy{Kind: core.KindLLF}, msgs/4)

	fifo := measureDispatch(core.NewFIFODispatcher[*tenantOp](), nil, msgs)
	cameoNoGen := measureDispatch(core.NewCameoDispatcher[*tenantOp](), core.ArrivalPolicy{}, msgs)
	cameoFull := measureDispatch(core.NewCameoDispatcher[*tenantOp](), &core.DeadlinePolicy{Kind: core.KindLLF}, msgs)

	tl := r.Table("left: per-message dispatch cost", "scheme", "ns/msg", "vs FIFO")
	tl.AddRow("fifo", fifo.Nanoseconds(), "1.00x")
	tl.AddRow("cameo w/o priority generation", cameoNoGen.Nanoseconds(),
		fmt.Sprintf("%.2fx", float64(cameoNoGen)/float64(fifo)))
	tl.AddRow("cameo (scheduling + generation)", cameoFull.Nanoseconds(),
		fmt.Sprintf("%.2fx", float64(cameoFull)/float64(fifo)))
	tl.Notes = append(tl.Notes,
		"paper: worst-case overhead < 15% of processing time (4% scheduling + 11% generation) on no-op messages")

	overhead := cameoFull - fifo
	if overhead < 0 {
		overhead = 0
	}
	tr := r.Table("right: overhead vs batch size", "batch size (tuples)",
		"exec ns/msg", "sched ns/msg", "overhead fraction")
	for _, n := range []int{1, 1000, 5000, 20000, 80000} {
		exec := measureHandler(n)
		frac := float64(overhead) / float64(overhead+exec)
		tr.AddRow(fmt.Sprint(n), exec.Nanoseconds(), overhead.Nanoseconds(), frac)
	}
	tr.Notes = append(tr.Notes,
		"paper: 6.4% overhead at batch size 1 for a local aggregation operator; falls with batch size")
	return r
}
