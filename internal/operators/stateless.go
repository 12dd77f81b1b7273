package operators

import (
	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// The stateless handlers keep a one-element emission buffer per handler
// instance (safe: instances are single-threaded and the engine consumes
// emissions before the next invocation) and draw output batches from the
// engine's pool via ctx.NewBatch, so they ride the zero-allocation hot
// path like the windowed operators.
//
// They never forward a message's own progress. Each emission claims the
// operator's input frontier (ctx.Progress): the lowest progress over
// every input channel, so the output channel's progress never decreases
// however the inputs interleave. Until every channel has reported, that
// is progress.Unset: the data goes downstream without progress, and
// advances no frontier there.

// Map returns a handler factory for a stateless per-tuple transform.
func Map(f func(t vtime.Time, key int64, val float64) (int64, float64)) func(int) dataflow.Handler {
	return perTuple(func(t vtime.Time, key int64, val float64) (int64, float64, bool) {
		k, v := f(t, key, val)
		return k, v, true
	})
}

// Filter returns a handler factory keeping only tuples satisfying pred.
func Filter(pred func(t vtime.Time, key int64, val float64) bool) func(int) dataflow.Handler {
	return perTuple(func(t vtime.Time, key int64, val float64) (int64, float64, bool) {
		return key, val, pred(t, key, val)
	})
}

// perTuple returns a handler factory that passes every tuple of a data
// batch through f and emits, in order, the key and value f returns for
// each tuple it keeps. Absent key or value columns read as zeros.
// Progress-only (nil-batch) messages pass through so downstream frontiers
// keep advancing.
func perTuple(f func(t vtime.Time, key int64, val float64) (int64, float64, bool)) func(int) dataflow.Handler {
	return func(int) dataflow.Handler {
		var emit [1]dataflow.Emission
		return dataflow.HandlerFunc(func(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
			b, _ := m.Payload.(*dataflow.Batch)
			p, _ := ctx.Progress()
			emit[0] = dataflow.Emission{Batch: nil, P: p, T: m.T}
			if b == nil {
				return emit[:]
			}
			out := ctx.NewBatch(b.Len())
			for i, t := range b.Times {
				var key int64
				if b.Keys != nil {
					key = b.Keys[i]
				}
				var val float64
				if b.Vals != nil {
					val = b.Vals[i]
				}
				if k, v, keep := f(t, key, val); keep {
					out.Append(t, k, v)
				}
			}
			emit[0].Batch = out
			return emit[:]
		})
	}
}

// Emit returns a handler factory that forwards every non-empty input batch
// as a sink result stamped with the operator's input frontier (Unset until
// every channel has reported) — a regular (non-windowed) sink for jobs
// whose results are per-message rather than per-window.
func Emit() func(int) dataflow.Handler {
	return func(int) dataflow.Handler {
		var emit [1]dataflow.Emission
		return dataflow.HandlerFunc(func(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
			b, _ := m.Payload.(*dataflow.Batch)
			if b.Len() == 0 {
				return nil
			}
			p, _ := ctx.Progress()
			emit[0] = dataflow.Emission{Batch: b, P: p, T: m.T}
			return emit[:]
		})
	}
}
