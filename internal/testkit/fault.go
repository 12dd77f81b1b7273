package testkit

// Fault injection for the crash-recovery test suites: a handler wrapper
// that panics on the Nth invocation (driving the engine's quarantine
// path), and checkpoint-file corruptors (torn writes, bit rot) that the
// restore path must reject instead of resurrecting a half-written job.

import (
	"os"
	"sync/atomic"
	"testing"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/snap"
)

// PanicOnNth wraps a stage's handler constructor so the Nth OnMessage
// invocation (1-based, counted across every instance the constructor
// builds) panics; all other invocations pass through to the inner
// handler. When the inner handler implements dataflow.Snapshotter the
// wrapper forwards it, so checkpointing a not-yet-failed job still
// captures the real state.
func PanicOnNth(newHandler func(int) dataflow.Handler, n int64) func(int) dataflow.Handler {
	var calls atomic.Int64
	return func(inst int) dataflow.Handler {
		inner := newHandler(inst)
		fh := &faultHandler{inner: inner, calls: &calls, n: n}
		if s, ok := inner.(dataflow.Snapshotter); ok {
			return &faultSnapshotter{faultHandler: fh, s: s}
		}
		return fh
	}
}

type faultHandler struct {
	inner dataflow.Handler
	calls *atomic.Int64
	n     int64
}

func (h *faultHandler) OnMessage(ctx *dataflow.Context, m *core.Message) []dataflow.Emission {
	if h.calls.Add(1) == h.n {
		panic("testkit: injected handler fault")
	}
	return h.inner.OnMessage(ctx, m)
}

type faultSnapshotter struct {
	*faultHandler
	s dataflow.Snapshotter
}

func (h *faultSnapshotter) SnapshotState(w *snap.Writer, f *progress.Frontier) {
	h.s.SnapshotState(w, f)
}

func (h *faultSnapshotter) RestoreState(r *snap.Reader, f *progress.Frontier) error {
	return h.s.RestoreState(r, f)
}

// TruncateFile cuts the file at path down to n bytes — a torn write, as
// left by a crash mid-checkpoint. Restoring from it must fail cleanly.
func TruncateFile(t testing.TB, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

// FlipByte XORs the byte at off in the file at path — bit rot in an
// otherwise well-formed checkpoint, which the CRC trailer must catch.
func FlipByte(t testing.TB, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
