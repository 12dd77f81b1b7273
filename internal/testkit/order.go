package testkit

import (
	"testing"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// ChannelOrder wraps a stage's handler constructor so that every instance
// checks the order in which it executes each input channel's messages:
// along one channel, (PC.PriLocal, ID) and progress P must never
// decrease. The engines deliver a channel in order only because its local
// priorities rise with progress, and a window stage may close a window
// only once every channel has passed it; a decrease is the first symptom
// of either going wrong. A violation fails t with Errorf, which is safe
// from the engine's worker goroutines. The wrapper forwards a Snapshotter
// inner handler, like PanicOnNth, and the inner handler's coalescing
// opt-in (dataflow.Coalescer), so a wrapped stage coalesces exactly when
// the bare one would; it costs production code nothing.
func ChannelOrder(t testing.TB, newHandler func(int) dataflow.Handler) func(int) dataflow.Handler {
	return func(inChannels int) dataflow.Handler {
		inner := newHandler(inChannels)
		oh := &orderHandler{t: t, inner: inner, last: make([]lastSeen, inChannels)}
		if s, ok := inner.(dataflow.Snapshotter); ok {
			return &orderSnapshotter{orderHandler: oh, s: s}
		}
		return oh
	}
}

type lastSeen struct {
	seen     bool
	priLocal vtime.Time
	id       int64
	p        vtime.Time
}

// orderHandler needs no lock: the actor guarantee serializes an
// instance's invocations, as it does for the handler it wraps.
type orderHandler struct {
	t     testing.TB
	inner dataflow.Handler
	last  []lastSeen // per input channel
}

func (h *orderHandler) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
	if l := &h.last[m.Channel]; l.seen {
		if m.PC.PriLocal < l.priLocal || (m.PC.PriLocal == l.priLocal && m.ID < l.id) {
			h.t.Errorf("testkit: %s channel %d: (PriLocal %v, ID %d) after (%v, %d)",
				ctx.Op.Name, m.Channel, m.PC.PriLocal, m.ID, l.priLocal, l.id)
		}
		if m.P < l.p {
			h.t.Errorf("testkit: %s channel %d: progress %v after %v", ctx.Op.Name, m.Channel, m.P, l.p)
		}
	}
	h.last[m.Channel] = lastSeen{seen: true, priLocal: m.PC.PriLocal, id: m.ID, p: m.P}
	return h.inner.OnMessage(ctx, m)
}

// CoalescesBatches forwards the inner handler's answer: a merged message
// obeys the same per-channel order as the messages it replaces.
func (h *orderHandler) CoalescesBatches() bool { return dataflow.Coalesces(h.inner) }

type orderSnapshotter struct {
	*orderHandler
	s dataflow.Snapshotter
}

func (h *orderSnapshotter) SnapshotState(w *snap.Writer, f *progress.Frontier) {
	h.s.SnapshotState(w, f)
}

func (h *orderSnapshotter) RestoreState(r *snap.Reader, f *progress.Frontier) error {
	return h.s.RestoreState(r, f)
}
