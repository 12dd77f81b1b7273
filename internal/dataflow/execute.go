package dataflow

import (
	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// ChildMessage is a derived message bound for a downstream operator.
type ChildMessage struct {
	Target *Operator
	Msg    *core.Message
}

// SinkOutput is a result produced at the job's sink stage: the window (or
// message) progress P, the physical time T of the last contributing event,
// and the tuple count.
type SinkOutput struct {
	P, T   vtime.Time
	Tuples int
}

// ExecOutcome is everything one operator invocation produced. The engines'
// outcomes are backed by per-worker Env scratch: valid until the same Env
// executes its next message, which is after the caller has consumed them.
type ExecOutcome struct {
	Children []ChildMessage
	Outputs  []SinkOutput
}

// Invoke runs the operator's handler for one message — the "triggered if it
// emits" half of an execution. The simulator calls it at the message's
// completion instant; the real-time engine wraps it in wall-clock timing.
// The handler context is the env's reusable one (handlers must not retain
// it across invocations).
//
// Before the handler runs, the message's progress advances the operator's
// frontier on the message's channel. A message without progress
// (progress.Unset: data a stateless operator forwarded before it had
// heard from every channel) advances nothing. Progress that regresses on
// its channel panics, like a handler fault: the real-time engine
// quarantines the job.
func Invoke(op *Operator, m *core.Message, now vtime.Time, env *Env) []Emission {
	if m.P != progress.Unset {
		op.frontier.Advance(m.Channel, m.P)
	}
	env.ctx = Context{Op: op, Now: now, env: env}
	return op.Handler.OnMessage(&env.ctx, m)
}

// Finish performs the post-invocation bookkeeping both engines share, in
// the paper's order:
//
//  1. feed the measured/modelled cost into the operator's cost profile;
//  2. send the reply context upstream (PREPAREREPLY + PROCESSCTXFROMREPLY —
//     engines model ack transport as immediate profile-state delivery);
//  3. convert each emission into routed child messages, running the
//     policy's context conversion (BUILDCXTATOPERATOR) per child, or into
//     sink outputs at the last stage.
//
// A child's progress comes from the operator, never from the input
// message: it is the emission's P capped at the operator's frontier (the
// low-watermark rule). A windowed operator's window ends are at or below
// its frontier and pass unchanged; a stateless operator's output carries
// its merged input frontier, or progress.Unset until every channel has
// reported. Every child an operator sends on its channel therefore has
// progress that never decreases. Sink outputs keep the emission's P.
//
// Children and outputs are emitted into env's reusable outcome buffers,
// and child messages are drawn from env's message pool, so the steady
// state allocates nothing.
//
// Finish also settles batch ownership. A sink's emitted batch is released
// once recorded. Every other emission is fanned out by Env.Cut, whose
// Release is the one rule: a batch split across partitions goes back to
// the pool, one forwarded whole becomes the child's payload and is
// released by *its* executor. The incoming message's payload is released
// here unless an emission was the payload, whose cut has then settled it.
// Handlers therefore must not retain a payload or emitted batch beyond the
// invocation that saw it — copy what must survive — nor emit one batch
// twice.
func Finish(op *Operator, m *core.Message, emissions []Emission, cost vtime.Duration,
	env *Env) *ExecOutcome {

	op.Profile.Cost.Observe(cost)
	var upstream *Operator
	if op.Stage > 0 {
		upstream = op.Job.Stages[op.Stage-1][m.Channel]
	}
	op.Job.DeliverReply(upstream, op, op.Profile.ReplyContext())

	out := &env.out
	out.Children = out.Children[:0]
	out.Outputs = out.Outputs[:0]
	payload, _ := m.Payload.(*Batch)
	payloadSettled := false
	low, _ := op.frontier.Min()

	for _, e := range emissions {
		if op.IsSink() {
			if e.Batch.Len() > 0 {
				out.Outputs = append(out.Outputs, SinkOutput{P: e.P, T: e.T, Tuples: e.Batch.Len()})
			}
			if e.Batch != payload {
				env.FreeBatch(e.Batch)
			}
			continue
		}
		// Fan the emission out to the next stage, partitioning by key, with
		// a child for every instance (empty partitions carry the progress
		// downstream frontiers need — the watermark-heartbeat role).
		targets := op.Job.Stages[op.Stage+1]
		cut := env.Cut(e.Batch, len(targets))
		for i, target := range targets {
			child := env.NewMessage()
			child.ID = env.NextID()
			child.P, child.T = min(e.P, low), e.T
			child.Payload = cut.Part(i)
			child.Channel = op.Index
			env.Policy.OnHop(&m.PC, child, op.Job.TargetInfo(op, target))
			out.Children = append(out.Children, ChildMessage{Target: target, Msg: child})
		}
		cut.Release()
		payloadSettled = payloadSettled || e.Batch == payload
	}
	if payload != nil && !payloadSettled {
		env.FreeBatch(payload)
	}
	return out
}

// Execute is Invoke followed by Finish — the single-step form the
// simulator uses, where cost is modelled rather than measured.
func Execute(op *Operator, m *core.Message, now vtime.Time, cost vtime.Duration,
	env *Env) *ExecOutcome {
	return Finish(op, m, Invoke(op, m, now, env), cost, env)
}

// SourcePort is the logical input port source channel src feeds: the
// sources form SourcePorts equal runs, in index order.
func SourcePort(j *Job, src int) int { return src / (j.Spec.Sources / j.Spec.SourcePorts) }

// SourceMessage builds the stage-0 message carrying part, source src's
// batch (or its partition, Cut.Part) for target, at progress p and arrival
// time t, with a fresh ID and the policy's source conversion
// (BUILDCXTATSOURCE). A source index the job does not have panics instead
// of misrouting the batch onto another source's channel.
func SourceMessage(j *Job, src int, target *Operator, part *Batch, p, t vtime.Time, env *Env) *core.Message {
	if src < 0 || src >= j.Spec.Sources {
		panic("dataflow: source out of range for job " + j.Spec.Name)
	}
	m := env.NewMessage()
	m.ID = env.NextID()
	m.P, m.T = p, t
	m.Payload = part
	m.Channel = src
	m.Port = SourcePort(j, src)
	env.Policy.OnSource(m, j.TargetInfo(nil, target))
	return m
}
