package dataflow_test

import (
	"testing"

	"github.com/cameo-stream/cameo/internal/core"
	. "github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// TestAllocsCutFanOut pins Finish's fan-out at zero allocations on a
// warmed pooled env: a message whose payload the handler emits is cut
// across three keyed instances (Env.Cut, one Cut.Part per child, the
// payload released by Cut.Release), and the children are recycled as
// their executor would.
func TestAllocsCutFanOut(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	j, err := NewJob(JobSpec{
		Name: "f", Latency: vtime.Second, Sources: 1,
		Stages: []StageSpec{
			{Name: "fwd", Parallelism: 1, NewHandler: func(int) Handler {
				var emit [1]Emission
				return HandlerFunc(func(_ *Context, m *core.Message) []Emission {
					b, _ := m.Payload.(*Batch)
					emit[0] = Emission{Batch: b, P: m.P, T: m.T}
					return emit[:]
				})
			}},
			{Name: "keyed", Parallelism: 3, NewHandler: testkit.NopHandler},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var id int64
	env := NewEnv(&core.DeadlinePolicy{Kind: core.KindLLF}, func() int64 { id++; return id }, 0)
	env.Msgs = core.NewMessagePool(1)
	env.Batches = NewBatchPool(1)
	op := j.Stages[0][0]
	p := vtime.Time(1)
	split := 0
	step := func() {
		in := env.NewBatch(6)
		for k := range 6 {
			in.Append(p, int64(k), 1)
		}
		m := env.NewMessage()
		m.P, m.T, m.Payload = p, p, in
		p++
		out := Execute(op, m, p, 1, env)
		parts := 0
		for _, c := range out.Children {
			if b, _ := c.Msg.Payload.(*Batch); b != nil {
				parts++
				env.FreeBatch(b)
			}
			env.FreeMessage(c.Msg)
		}
		if parts > 1 {
			split++
		}
		env.FreeMessage(m)
	}
	const runs = 200
	if n := testkit.Mallocs(runs, step); n != 0 {
		t.Errorf("%d fan-outs allocated %d times, want 0", runs, n)
	}
	if split != runs+1 {
		t.Fatalf("%d of %d payloads split, want all", split, runs+1)
	}
}
