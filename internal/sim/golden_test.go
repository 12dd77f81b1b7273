package sim

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/workload"
)

// TestSimFanOutGolden pins, byte for byte, one seeded run whose keyed
// stage of parallelism 3 feeds a keyed stage of parallelism 2: every
// execution (start, cost, stage, instance, progress, message ID), every
// sink output and every sink value. No paper figure splits an emission
// inside Finish, so this is the pin on the simulator's fan-out. Re-record
// it only for a change that is meant to move the simulator's schedule.
func TestSimFanOutGolden(t *testing.T) {
	var sums strings.Builder
	win := 500 * vtime.Millisecond
	spec := dataflow.JobSpec{
		Name: "fan", Latency: 300 * vtime.Millisecond, Sources: 2,
		Stages: []dataflow.StageSpec{
			{Name: "keyed3", Parallelism: 3, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum}),
				Cost:       dataflow.CostModel{Base: 300 * vtime.Microsecond, PerTuple: 20 * vtime.Microsecond}},
			{Name: "keyed2", Parallelism: 2, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Count}),
				Cost:       dataflow.CostModel{Base: 200 * vtime.Microsecond, PerTuple: 50 * vtime.Microsecond}},
			{Name: "total", Parallelism: 1, Slide: win,
				NewHandler: func(in int) dataflow.Handler {
					inner := operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum, Global: true})(in)
					return dataflow.HandlerFunc(func(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
						out := inner.OnMessage(ctx, m)
						for _, e := range out {
							for i, tm := range e.Batch.Times {
								fmt.Fprintf(&sums, "sum %d %d %g\n", e.P, tm, e.Batch.Vals[i])
							}
						}
						return out
					})
				},
				Cost: dataflow.CostModel{Base: 100 * vtime.Microsecond}},
		},
	}
	c := New(Config{
		Nodes: 2, WorkersPerNode: 1, Scheduler: Cameo,
		NetworkDelay: 50 * vtime.Microsecond, TraceLimit: 10000, End: 4 * vtime.Second,
	})
	feed := workload.Uniform(5, 2, workload.SourceConfig{
		Interval: 100 * vtime.Millisecond, Rate: workload.ConstantRate(24), Keys: 40,
		End: 3 * vtime.Second,
	})
	if _, err := c.AddJob(spec, feed); err != nil {
		t.Fatal(err)
	}
	res := c.Run()

	var got strings.Builder
	fmt.Fprintf(&got, "messages %d switches %d busy %d ingested %d\n",
		res.Messages, res.Switches, res.BusyTime, res.IngestedTuples["fan"])
	for _, e := range res.Trace.Events() {
		fmt.Fprintf(&got, "exec %d %d %d %s %d %d\n", e.Start, e.Cost, e.Stage, e.Op, e.P, e.Msg)
	}
	for _, o := range res.Recorder.Job("fan").Outputs {
		fmt.Fprintf(&got, "out %d %d %d\n", o.Window, o.Ready, o.Emitted)
	}
	got.WriteString(sums.String())

	testkit.Golden(t, filepath.Join("testdata", "fanout.txt"), got.String())
}
