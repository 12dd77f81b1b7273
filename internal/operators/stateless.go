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

// Map returns a handler factory for a stateless per-tuple transform.
// Progress-only (nil-batch) messages pass through so downstream frontiers
// keep advancing.
func Map(f func(t vtime.Time, key int64, val float64) (int64, float64)) func(int) dataflow.Handler {
	return func(int) dataflow.Handler {
		var emit [1]dataflow.Emission
		return dataflow.HandlerFunc(func(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
			b, _ := m.Payload.(*dataflow.Batch)
			if b == nil {
				emit[0] = dataflow.Emission{Batch: nil, P: m.P, T: m.T}
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
				k2, v2 := f(t, key, val)
				out.Append(t, k2, v2)
			}
			emit[0] = dataflow.Emission{Batch: out, P: m.P, T: m.T}
			return emit[:]
		})
	}
}

// Filter returns a handler factory keeping only tuples satisfying pred.
func Filter(pred func(t vtime.Time, key int64, val float64) bool) func(int) dataflow.Handler {
	return func(int) dataflow.Handler {
		var emit [1]dataflow.Emission
		return dataflow.HandlerFunc(func(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
			b, _ := m.Payload.(*dataflow.Batch)
			if b == nil {
				emit[0] = dataflow.Emission{Batch: nil, P: m.P, T: m.T}
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
				if pred(t, key, val) {
					out.Append(t, key, val)
				}
			}
			emit[0] = dataflow.Emission{Batch: out, P: m.P, T: m.T}
			return emit[:]
		})
	}
}

// NoOp returns a handler factory that consumes messages without emitting —
// the no-op workload of the Figure 12 scheduling-overhead microbenchmark.
func NoOp() func(int) dataflow.Handler {
	return func(int) dataflow.Handler {
		return dataflow.HandlerFunc(func(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
			return nil
		})
	}
}

// Emit returns a handler factory that forwards every non-empty input batch
// as a sink result stamped with the message's own progress — a regular
// (non-windowed) sink for jobs whose results are per-message rather than
// per-window.
func Emit() func(int) dataflow.Handler {
	return func(int) dataflow.Handler {
		var emit [1]dataflow.Emission
		return dataflow.HandlerFunc(func(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
			b, _ := m.Payload.(*dataflow.Batch)
			if b.Len() == 0 {
				return nil
			}
			emit[0] = dataflow.Emission{Batch: b, P: m.P, T: m.T}
			return emit[:]
		})
	}
}
