package dataflow

import (
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/snap"
)

// Snapshotter is the optional state-capture half of the operator contract:
// a Handler that owns state which must survive process loss (window
// accumulators, join tables) implements it, and the engine's checkpoint
// path captures and reinstates that state through it. The operator's
// frontier is handed in, so a handler can place it inside its own section.
//
// SnapshotState must write a deterministic encoding — iterate maps in
// sorted key order — so the same handler state always produces the same
// bytes (the property the checkpoint-determinism gate pins). RestoreState
// is called on a freshly constructed handler (NewHandler output), with the
// operator's fresh frontier, before the operator executes any message; it
// returns an error rather than panicking on malformed input, because
// snapshots cross process boundaries.
//
// Both methods are invoked under the actor guarantee: never concurrently
// with OnMessage or each other. Stateless handlers don't implement the
// interface; Operator.SnapshotState writes their frontier alone.
type Snapshotter interface {
	SnapshotState(w *snap.Writer, f *progress.Frontier)
	RestoreState(r *snap.Reader, f *progress.Frontier) error
}

// SnapshotState writes the operator's dynamic state behind a presence
// flag: the handler's section for a Snapshotter, and the frontier alone
// (progress.Frontier.Write) for a stateless handler.
func (o *Operator) SnapshotState(w *snap.Writer) {
	w.Bool(true)
	if s, ok := o.Handler.(Snapshotter); ok {
		s.SnapshotState(w, &o.frontier)
		return
	}
	o.frontier.Write(w)
}

// RestoreState reads a section written by SnapshotState into a freshly
// constructed operator. An absent section leaves the operator fresh:
// checkpoints written before stateless operators carried their frontier
// flag those operators absent, and still restore.
func (o *Operator) RestoreState(r *snap.Reader) error {
	if !r.Bool() {
		return r.Err()
	}
	if s, ok := o.Handler.(Snapshotter); ok {
		return s.RestoreState(r, &o.frontier)
	}
	return o.frontier.Read(r)
}
