package dataflow

import (
	"testing"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// passthroughHandler forwards batches unchanged (minimal regular operator).
func passthroughHandler(int) Handler {
	return HandlerFunc(func(ctx *Context, m *core.Message) []Emission {
		b, _ := m.Payload.(*Batch)
		return []Emission{{Batch: b, P: m.P, T: m.T}}
	})
}

func exampleJob(t *testing.T) *Job {
	t.Helper()
	j, err := NewJob(JobSpec{
		Name: "x", Latency: vtime.Second, Sources: 2,
		Stages: []StageSpec{
			{Name: "a", Parallelism: 2, NewHandler: passthroughHandler},
			{Name: "b", Parallelism: 1, NewHandler: passthroughHandler},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// sourceMessages fans b out to j's stage-0 instances as both executors'
// ingest does (less the engine's merge): Env.Cut, one SourceMessage per
// instance, Cut.Release.
func sourceMessages(j *Job, src int, b *Batch, p, t vtime.Time, env *Env) []ChildMessage {
	var out []ChildMessage
	cut := env.Cut(b, len(j.Stages[0]))
	for i, target := range j.Stages[0] {
		out = append(out, ChildMessage{Target: target, Msg: SourceMessage(j, src, target, cut.Part(i), p, t, env)})
	}
	cut.Release()
	return out
}

func TestSourceMessagesArePrioritized(t *testing.T) {
	j := exampleJob(t)
	var id int64
	env := NewEnv(&core.DeadlinePolicy{Kind: core.KindLLF}, func() int64 { id++; return id }, -1)

	b := NewBatch(2)
	b.Append(10, 1, 1)
	b.Append(20, 2, 1)
	msgs := sourceMessages(j, 1, b, 20, 25, env)
	if len(msgs) != 2 { // one delivery per stage-0 instance
		t.Fatalf("messages = %d, want 2", len(msgs))
	}
	total := 0
	for _, cm := range msgs {
		if cm.Msg.Channel != 1 {
			t.Errorf("channel = %d, want source index 1", cm.Msg.Channel)
		}
		if cm.Msg.P != 20 || cm.Msg.T != 25 {
			t.Errorf("times = (%v, %v)", cm.Msg.P, cm.Msg.T)
		}
		if cm.Msg.PC.L != vtime.Second {
			t.Errorf("PC.L = %v", cm.Msg.PC.L)
		}
		if cm.Msg.ID == 0 {
			t.Error("message ID not assigned")
		}
		if bb, _ := cm.Msg.Payload.(*Batch); bb != nil {
			total += bb.Len()
		}
	}
	if total != 2 {
		t.Fatalf("tuples delivered = %d, want 2", total)
	}
}

func TestExecuteRoutesAndProfiles(t *testing.T) {
	j := exampleJob(t)
	var id int64
	env := NewEnv(&core.DeadlinePolicy{Kind: core.KindLLF}, func() int64 { id++; return id }, -1)

	op := j.Stages[0][0]
	b := NewBatch(1)
	b.Append(5, 1, 1)
	m := &core.Message{ID: 1, P: 5, T: 6, Channel: 0, Payload: b}
	out := Execute(op, m, 100, 42, env)

	if len(out.Outputs) != 0 {
		t.Fatalf("non-sink produced outputs: %+v", out.Outputs)
	}
	if len(out.Children) != 1 {
		t.Fatalf("children = %d, want 1 (stage b has parallelism 1)", len(out.Children))
	}
	child := out.Children[0]
	if child.Target != j.Stages[1][0] {
		t.Fatal("child routed to wrong operator")
	}
	if child.Msg.Channel != 0 { // from stage-0 instance index 0
		t.Fatalf("child channel = %d", child.Msg.Channel)
	}
	// Profiling: the operator's cost was observed, and its reply context
	// reached the job's source tracker (stage 0 replies to sources).
	if got := op.Profile.Cost.Value(); got != 42 {
		t.Fatalf("profiled cost = %v, want 42", got)
	}
	if rc := j.SourceTracker.Reply(op.Index); rc.Cm != 42 {
		t.Fatalf("source tracker reply = %+v", rc)
	}
}

func TestExecuteSinkRecordsOutputs(t *testing.T) {
	j := exampleJob(t)
	var id int64
	env := NewEnv(&core.DeadlinePolicy{Kind: core.KindLLF}, func() int64 { id++; return id }, -1)

	sink := j.Stages[1][0]
	b := NewBatch(2)
	b.Append(7, 1, 1)
	b.Append(8, 2, 1)
	m := &core.Message{ID: 9, P: 8, T: 9, Channel: 1, Payload: b}
	out := Execute(sink, m, 50, 10, env)

	if len(out.Children) != 0 {
		t.Fatal("sink produced children")
	}
	if len(out.Outputs) != 1 || out.Outputs[0].Tuples != 2 || out.Outputs[0].T != 9 {
		t.Fatalf("outputs = %+v", out.Outputs)
	}
	// The sink's reply went to its upstream (stage-0 instance 1).
	up := j.Stages[0][1]
	if rc := up.Profile.Path.Reply(sink.Index); rc.Cm != 10 {
		t.Fatalf("upstream reply = %+v", rc)
	}
}

func TestExecuteCriticalPathAccumulates(t *testing.T) {
	j := exampleJob(t)
	var id int64
	env := NewEnv(&core.DeadlinePolicy{Kind: core.KindLLF}, func() int64 { id++; return id }, -1)

	sink := j.Stages[1][0]
	op0 := j.Stages[0][0]
	// Sink executes (cost 30): op0 learns {Cm:30, Cpath:0} on the ack.
	Execute(sink, &core.Message{ID: 1, P: 1, T: 1, Channel: 0, Payload: nil}, 10, 30, env)
	// op0 executes (cost 20): sources learn {Cm:20, Cpath:30}.
	Execute(op0, &core.Message{ID: 2, P: 1, T: 1, Channel: 0, Payload: nil}, 20, 20, env)

	rc := j.SourceTracker.Reply(op0.Index)
	if rc.Cm != 20 || rc.Cpath != 30 {
		t.Fatalf("source reply = %+v, want {20 30}", rc)
	}
	// Next source message toward op0 gets the full pipeline subtracted.
	ti := j.TargetInfo(nil, op0)
	if ti.Cost != 20 || ti.PathCost != 30 {
		t.Fatalf("TargetInfo = %+v", ti)
	}
}

// TestExecuteFansOutToEveryTarget: a non-sink emission reaches every
// next-stage instance, empty partitions included — they carry the progress
// the target's frontier needs — each child stamped with the emission's P
// and T and the sender's index as its channel, with every tuple delivered
// once. A sink routes nothing.
func TestExecuteFansOutToEveryTarget(t *testing.T) {
	var emit Emission
	j, err := NewJob(JobSpec{
		Name: "r", Latency: 1, Sources: 1,
		Stages: []StageSpec{
			{Name: "a", Parallelism: 2, NewHandler: func(int) Handler {
				return HandlerFunc(func(*Context, *core.Message) []Emission { return []Emission{emit} })
			}},
			{Name: "b", Parallelism: 3, NewHandler: passthroughHandler},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var id int64
	env := NewEnv(&core.DeadlinePolicy{Kind: core.KindLLF}, func() int64 { id++; return id }, -1)
	from := j.Stages[0][1]

	spread, one := NewBatch(4), NewBatch(3)
	for k := int64(0); k < 4; k++ {
		spread.Append(vtime.Time(k), k, 1)
	}
	for i := 0; i < 3; i++ {
		one.Append(vtime.Time(i), 7, 1) // one key: two partitions stay empty
	}
	for _, c := range []struct {
		name  string
		batch *Batch
		empty int // children whose partition is empty, at least
	}{{"spread keys", spread, 0}, {"one key", one, 2}, {"progress only", nil, 3}} {
		emit = Emission{Batch: c.batch, P: 10, T: 20}
		want := c.batch.Len()
		out := Execute(from, &core.Message{ID: 1, P: 10, T: 20}, 30, 1, env)
		if len(out.Children) != 3 || len(out.Outputs) != 0 {
			t.Fatalf("%s: %d children, %d outputs; want one child per target, no outputs",
				c.name, len(out.Children), len(out.Outputs))
		}
		total, empty := 0, 0
		for i, ch := range out.Children {
			if ch.Target != j.Stages[1][i] {
				t.Fatalf("%s: child %d targets %s", c.name, i, ch.Target.Name)
			}
			if ch.Msg.P != 10 || ch.Msg.T != 20 || ch.Msg.Channel != from.Index {
				t.Fatalf("%s: child %d at (P %v, T %v, channel %d), want (10, 20, %d)",
					c.name, i, ch.Msg.P, ch.Msg.T, ch.Msg.Channel, from.Index)
			}
			b, _ := ch.Msg.Payload.(*Batch)
			total += b.Len()
			if b.Len() == 0 {
				empty++
			}
		}
		if total != want || empty < c.empty {
			t.Fatalf("%s: %d tuples in %d empty children, want %d tuples, at least %d empty",
				c.name, total, empty, want, c.empty)
		}
	}

	sink := j.Stages[1][0]
	out := Execute(sink, &core.Message{ID: 2, P: 10, T: 20, Payload: spread}, 40, 1, env)
	if len(out.Children) != 0 || len(out.Outputs) != 1 {
		t.Fatalf("sink routed %d children and recorded %d outputs, want 0 and 1",
			len(out.Children), len(out.Outputs))
	}
}

// TestSourceMessagesPorts: a source's messages go to every stage-0
// instance on the source's channel, and their port follows SourcePorts —
// the sources split into equal runs in index order.
func TestSourceMessagesPorts(t *testing.T) {
	j, err := NewJob(JobSpec{
		Name: "p", Latency: 1, Sources: 4, SourcePorts: 2,
		Stages: []StageSpec{{Name: "join", Parallelism: 2, NewHandler: passthroughHandler}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(&core.DeadlinePolicy{Kind: core.KindLLF}, func() int64 { return 1 }, -1)
	for src, port := range []int{0, 0, 1, 1} {
		msgs := sourceMessages(j, src, NewBatch(0), 5, 6, env)
		if len(msgs) != 2 {
			t.Fatalf("source %d: %d messages, want 2", src, len(msgs))
		}
		for i, cm := range msgs {
			if cm.Target != j.Stages[0][i] || cm.Msg.Port != port || cm.Msg.Channel != src {
				t.Fatalf("source %d message %d: target %s port %d channel %d, want port %d channel %d",
					src, i, cm.Target.Name, cm.Msg.Port, cm.Msg.Channel, port, src)
			}
		}
	}
}

// TestSourceMessagesOutOfRangePanics: SourceMessage panics on a source
// index the job does not have instead of misrouting a batch onto another
// source's channel.
func TestSourceMessagesOutOfRangePanics(t *testing.T) {
	j := exampleJob(t)
	env := NewEnv(&core.DeadlinePolicy{Kind: core.KindLLF}, func() int64 { return 1 }, -1)
	for _, src := range []int{-1, j.Spec.Sources, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("source %d: expected panic", src)
				}
			}()
			SourceMessage(j, src, j.Stages[0][0], NewBatch(0), 0, 0, env)
		}()
	}
}

// TestFinishStampsOperatorFrontier: a child's progress is the emission's
// capped at the operator's frontier, never the input message's own. A
// handler that forwards its input's progress behind two sources gets
// progress.Unset until both have reported, then their minimum; a handler
// claiming less than the frontier (a window end) keeps its claim; a sink
// output keeps the emission's P. A regressing channel panics in Invoke.
func TestFinishStampsOperatorFrontier(t *testing.T) {
	var claim vtime.Time // the handler's emission P; 0 forwards the input's
	j, err := NewJob(JobSpec{
		Name: "f", Latency: 1, Sources: 2,
		Stages: []StageSpec{
			{Name: "a", Parallelism: 1, NewHandler: func(int) Handler {
				return HandlerFunc(func(_ *Context, m *core.Message) []Emission {
					p := m.P
					if claim != 0 {
						p = claim
					}
					return []Emission{{P: p, T: m.T}}
				})
			}},
			{Name: "b", Parallelism: 1, NewHandler: passthroughHandler},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var id int64
	env := NewEnv(testPolicy{}, func() int64 { id++; return id }, -1)
	op := j.Stages[0][0]
	step := func(ch int, p vtime.Time) vtime.Time {
		t.Helper()
		out := Execute(op, &core.Message{P: p, T: 1, Channel: ch}, 1, 1, env)
		if len(out.Children) != 1 {
			t.Fatalf("%d children, want 1", len(out.Children))
		}
		return out.Children[0].Msg.P
	}
	if p := step(0, 10); p != progress.Unset {
		t.Fatalf("child of the first source's message carries %v, want Unset", p)
	}
	if p := step(1, 7); p != 7 {
		t.Fatalf("child carries %v, want the merged frontier 7", p)
	}
	if p := step(1, 12); p != 10 {
		t.Fatalf("child carries %v, want the merged frontier 10", p)
	}
	claim = 5
	if p := step(0, 20); p != 5 {
		t.Fatalf("child carries %v, want the handler's lower claim 5", p)
	}
	claim = 50
	if p := step(0, 30); p != 12 {
		t.Fatalf("child carries %v, want the claim capped at the frontier 12", p)
	}
	sink := j.Stages[1][0]
	b := NewBatch(1)
	b.Append(3, 1, 1)
	if out := Execute(sink, &core.Message{P: 9, T: 4, Channel: 0, Payload: b}, 1, 1, env); out.Outputs[0].P != 9 {
		t.Fatalf("sink output P = %v, want the emission's 9", out.Outputs[0].P)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a regressing channel did not panic")
		}
	}()
	Invoke(op, &core.Message{P: 29, T: 1, Channel: 0}, 1, env)
}

// TestOperatorSnapshotState: a stateless operator's state is its frontier
// behind the presence flag; it restores into a fresh operator, and an
// absent section (a checkpoint written before stateless operators carried
// one) leaves the fresh frontier.
func TestOperatorSnapshotState(t *testing.T) {
	j := exampleJob(t)
	var id int64
	env := NewEnv(testPolicy{}, func() int64 { id++; return id }, -1)
	op := j.Stages[0][1]
	Execute(op, &core.Message{P: 10, T: 1, Channel: 0}, 1, 1, env)
	Execute(op, &core.Message{P: 7, T: 1, Channel: 1}, 1, 1, env)
	w := snap.NewWriter()
	op.SnapshotState(w)
	r, err := snap.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fresh := exampleJob(t).Stages[0][1]
	if err := fresh.RestoreState(r); err != nil {
		t.Fatal(err)
	}
	if p, ok := fresh.Frontier().Min(); !ok || p != 7 {
		t.Fatalf("restored frontier = %v/%v, want 7", p, ok)
	}
	old := snap.NewWriter()
	old.Bool(false)
	if r, err = snap.NewReader(old.Bytes()); err != nil {
		t.Fatal(err)
	}
	fresh = exampleJob(t).Stages[0][1]
	if err := fresh.RestoreState(r); err != nil || fresh.Frontier().Len() != 0 {
		t.Fatalf("absent section: err %v, %d channels reported, want a fresh frontier", err, fresh.Frontier().Len())
	}
}

// testPolicy stamps priorities from progress alone.
type testPolicy struct{}

func (testPolicy) Name() string { return "test" }

func (testPolicy) OnSource(m *core.Message, _ core.TargetInfo) {
	m.PC = core.PriorityContext{PriLocal: m.P, PriGlobal: m.P, PMF: m.P, TMF: m.T}
}

func (p testPolicy) OnHop(_ *core.PriorityContext, m *core.Message, ti core.TargetInfo) {
	p.OnSource(m, ti)
}

// TestFinishBatchOwnership: Finish settles every batch by the one rule,
// Cut.Release, whether the handler emits its input payload or a fresh
// batch, forwarded whole or split. A batch forwarded whole belongs to the
// child that carries it and stays leased; every other batch — the one
// split, the payload not emitted — goes back to the pool.
func TestFinishBatchOwnership(t *testing.T) {
	for _, c := range []struct {
		name        string
		par         int
		emitPayload bool
	}{
		{"payload whole", 1, true},
		{"payload split", 3, true},
		{"fresh whole", 1, false},
		{"fresh split", 3, false},
	} {
		var fresh *Batch
		j, err := NewJob(JobSpec{
			Name: "o", Latency: vtime.Second, Sources: 1,
			Stages: []StageSpec{
				{Name: "a", Parallelism: 1, NewHandler: func(int) Handler {
					return HandlerFunc(func(ctx *Context, m *core.Message) []Emission {
						b, _ := m.Payload.(*Batch)
						if !c.emitPayload {
							fresh = ctx.NewBatch(b.Len())
							fresh.appendAll(b)
							b = fresh
						}
						return []Emission{{Batch: b, P: m.P, T: m.T}}
					})
				}},
				{Name: "b", Parallelism: c.par, NewHandler: passthroughHandler},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		env := NewEnv(testPolicy{}, func() int64 { return 1 }, 0)
		env.Batches = NewBatchPool(1)
		payload := env.NewBatch(4)
		for k := range 4 {
			payload.Append(1, int64(k), 1)
		}
		out := Execute(j.Stages[0][0], &core.Message{P: 1, T: 1, Payload: payload}, 1, 1, env)
		emitted := payload
		if !c.emitPayload {
			emitted = fresh
		}
		whole := false
		for _, ch := range out.Children {
			b, _ := ch.Msg.Payload.(*Batch)
			if b != nil && !b.pooled {
				t.Errorf("%s: a child's payload went back to the pool", c.name)
			}
			whole = whole || b == emitted
		}
		if whole != (c.par == 1) {
			t.Errorf("%s: emitted batch handed on whole = %v, want %v", c.name, whole, c.par == 1)
		}
		if emitted.pooled != whole {
			t.Errorf("%s: emitted batch still leased = %v, want %v", c.name, emitted.pooled, whole)
		}
		if !c.emitPayload && payload.pooled {
			t.Errorf("%s: the payload the handler did not emit stayed leased", c.name)
		}
	}
}
