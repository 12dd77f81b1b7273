package server_test

import (
	"bytes"
	"errors"
	"net"
	"runtime/debug"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/client"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/server"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/wire"
)

const testWin = 50 * vtime.Millisecond

func testLoad(windows int) testkit.Workload {
	return testkit.Workload{Seed: 7, Sources: 2, Windows: windows, Tuples: 10, Keys: 10, Win: testWin}
}

// serve builds an engine + server pair on a loopback listener.
func serve(t *testing.T, ecfg runtime.Config, scfg server.Config) (*runtime.Engine, *server.Server, string) {
	t.Helper()
	e := runtime.New(ecfg)
	s := server.New(e, scfg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Shutdown(2 * time.Second)
		e.Stop()
	})
	return e, s, addr.String()
}

// TestServeLoopbackEndToEnd replays the canonical seeded workload through
// a real socket and checks the full ledger reconciles: every tuple sent
// is acked, flushed, and none refused.
func TestServeLoopbackEndToEnd(t *testing.T) {
	e, s, addr := serve(t, runtime.Config{Workers: 2}, server.Config{})
	if _, err := e.AddJob(testkit.AggSpec("j", 2, 2, testWin, 500*vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wl := testLoad(10)
	for w := 1; w <= wl.Windows; w++ {
		for src := 0; src < wl.Sources; src++ {
			if err := c.IngestBatch("j", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for src := 0; src < wl.Sources; src++ {
		if err := c.Advance("j", src, wl.Progress(wl.Windows+1)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Flush(5 * time.Second) {
		t.Fatalf("client did not settle: %+v, err %v", c.Stats(), c.Err())
	}
	testkit.DrainOrFail(t, e, 5*time.Second)

	if got := e.Recorder().Job("j").Count(); got < 8 {
		t.Errorf("outputs = %d, want >= 8", got)
	}
	want := int64(wl.Windows * wl.Sources * wl.Tuples)
	cs := c.Stats()
	if cs.SentEvents != want || cs.AckedEvents != want || cs.NackedEvents != 0 {
		t.Errorf("client ledger: sent %d acked %d nacked %d, want %d/%d/0",
			cs.SentEvents, cs.AckedEvents, cs.NackedEvents, want, want)
	}
	ss := s.Stats()
	if ss.Events != want || ss.FlushedEvents != want || ss.NackedEvents != 0 || ss.BufferedEvents != 0 {
		t.Errorf("server ledger: decoded %d flushed %d nacked %d buffered %d, want %d/%d/0/0",
			ss.Events, ss.FlushedEvents, ss.NackedEvents, ss.BufferedEvents, want, want)
	}
	if ss.Flushes <= 0 || ss.Flushes >= ss.Frames {
		t.Errorf("coalescing inactive: %d flushes for %d frames", ss.Flushes, ss.Frames)
	}
}

// TestCreditWindowFromBudget pins the credit derivation: a job with a
// pending budget grants budget/stage0 frames of credit; one without gets
// the configured default.
func TestCreditWindowFromBudget(t *testing.T) {
	e, _, addr := serve(t, runtime.Config{Workers: 1}, server.Config{})
	spec := testkit.AggSpec("budgeted", 2, 2, testWin, 500*vtime.Millisecond)
	spec.MaxPending = 40
	if _, err := e.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddJob(testkit.AggSpec("unbounded", 2, 2, testWin, 500*vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Advance("budgeted", 0, testWin); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("unbounded", 0, testWin); err != nil {
		t.Fatal(err)
	}
	if got := c.Window("budgeted", 0); got != 20 {
		t.Errorf("budgeted window = %d, want 40/2 = 20", got)
	}
	if got := c.Window("unbounded", 0); got != server.DefaultWindow {
		t.Errorf("unbounded window = %d, want default %d", got, server.DefaultWindow)
	}
}

// TestBindRefused pins typed bind failures: unknown jobs and out-of-range
// sources are refused at Bind with ErrBindRefused, not torn down.
func TestBindRefused(t *testing.T) {
	e, _, addr := serve(t, runtime.Config{Workers: 1}, server.Config{})
	if _, err := e.AddJob(testkit.AggSpec("j", 2, 2, testWin, 500*vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Advance("nope", 0, testWin); !errors.Is(err, client.ErrBindRefused) {
		t.Errorf("unknown job bind error = %v, want ErrBindRefused", err)
	}
	if err := c.Advance("j", 7, testWin); !errors.Is(err, client.ErrBindRefused) {
		t.Errorf("bad source bind error = %v, want ErrBindRefused", err)
	}
	// The connection survives refusals: a valid stream still works.
	if err := c.Advance("j", 0, testWin); err != nil {
		t.Errorf("valid bind after refusals: %v", err)
	}
}

// TestOverloadNacksReconcile drives a job past its pending budget on a
// stopped engine (nothing drains, so refusals are deterministic) and
// reconciles all three ledgers: client nacks == server nacks == the
// job's per-source Rejected counts, with conservation at every tier.
func TestOverloadNacksReconcile(t *testing.T) {
	e, s, addr := serve(t, runtime.Config{Workers: 1}, server.Config{})
	spec := testkit.AggSpec("j", 2, 2, testWin, 500*vtime.Millisecond)
	spec.MaxPending = 8
	if _, err := e.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	// Engine deliberately NOT started: admitted flushes pile up as queued
	// messages until the budget refuses the rest.
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wl := testLoad(12)
	for w := 1; w <= wl.Windows; w++ {
		// Retry through the client's own flow control (credit exhaustion
		// and Nack backoff both surface as ErrOverloaded locally) so every
		// window reaches the wire and gets a server verdict.
		for attempt := 0; ; attempt++ {
			err := c.TryIngestBatch("j", 0, wl.Batch(0, w), wl.Progress(w))
			if err == nil {
				break
			}
			if !errors.Is(err, runtime.ErrOverloaded) {
				t.Fatalf("window %d: %v, want ErrOverloaded-wrapped refusal", w, err)
			}
			if attempt > 5000 {
				t.Fatalf("window %d never admitted to the wire: %v", w, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if !c.Flush(5 * time.Second) {
		t.Fatalf("client did not settle: %+v, err %v", c.Stats(), c.Err())
	}
	cs := c.Stats()
	if cs.NackedFrames == 0 {
		t.Fatalf("no wire nacks: stats %+v", cs)
	}
	if cs.NackedByCode[wire.NackJobOverloaded] != cs.NackedFrames {
		t.Errorf("nack codes %v, want all %d frames NackJobOverloaded", cs.NackedByCode, cs.NackedFrames)
	}
	if cs.SentEvents != cs.AckedEvents+cs.NackedEvents {
		t.Errorf("client conservation: sent %d != acked %d + nacked %d",
			cs.SentEvents, cs.AckedEvents, cs.NackedEvents)
	}
	ss := s.Stats()
	if ss.NackedFlushes != cs.NackedFrames || ss.NackedEvents != cs.NackedEvents {
		t.Errorf("server nacks (%d flushes, %d events) != client nacks (%d, %d)",
			ss.NackedFlushes, ss.NackedEvents, cs.NackedFrames, cs.NackedEvents)
	}
	per, err := e.PerSource("j")
	if err != nil {
		t.Fatal(err)
	}
	if per[0].Rejected != ss.NackedFlushes {
		t.Errorf("per-source Rejected = %d, want %d (one per refused flush)",
			per[0].Rejected, ss.NackedFlushes)
	}
	// Bounded pending: the queued backlog never exceeded the job budget.
	if q := e.Pending(); int64(q) > 8 {
		t.Errorf("pending = %d, exceeds MaxPending 8", q)
	}
}

// TestPausedJobNack pins the pause mapping: flushes against a paused job
// come back NackPaused, and TryIngestBatch surfaces ErrJobPaused during
// the retry-after backoff.
func TestPausedJobNack(t *testing.T) {
	e, _, addr := serve(t, runtime.Config{Workers: 1}, server.Config{})
	if _, err := e.AddJob(testkit.AggSpec("j", 2, 2, testWin, 500*vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wl := testLoad(1)
	// Bind first (a paused job still answers Bind), then pause.
	if err := c.IngestBatch("j", 0, wl.Batch(0, 1), wl.Progress(1)); err != nil {
		t.Fatal(err)
	}
	if !c.Flush(5 * time.Second) {
		t.Fatal("pre-pause send did not settle")
	}
	if err := e.PauseJob("j"); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestBatch("j", 0, wl.Batch(0, 1), wl.Progress(2)); err != nil {
		t.Fatal(err)
	}
	if !c.Flush(5 * time.Second) {
		t.Fatal("paused send did not settle")
	}
	cs := c.Stats()
	if cs.NackedByCode[wire.NackPaused] == 0 {
		t.Fatalf("no NackPaused recorded: %+v", cs)
	}
	err = c.TryIngestBatch("j", 0, wl.Batch(0, 1), wl.Progress(3))
	if !errors.Is(err, runtime.ErrJobPaused) {
		t.Errorf("TryIngestBatch during paused backoff = %v, want ErrJobPaused", err)
	}
}

// TestReservedProgressNacked: an Advance frame carrying progress.Unset —
// the frontiers' not-yet-reported marker — is nacked, and the job goes on
// closing every window the stream's later frames complete.
func TestReservedProgressNacked(t *testing.T) {
	e, _, addr := serve(t, runtime.Config{Workers: 2}, server.Config{})
	if _, err := e.AddJob(testkit.AggSpec("j", 2, 2, testWin, 500*vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Advance("j", 0, progress.Unset); err != nil {
		t.Fatal(err)
	}
	if !c.Flush(5 * time.Second) {
		t.Fatalf("reserved advance did not settle: %+v, err %v", c.Stats(), c.Err())
	}
	if n := c.Stats().NackedByCode[wire.NackInternal]; n != 1 {
		t.Fatalf("reserved advance: %d NackInternal, want 1", n)
	}
	wl := testLoad(10)
	for w := 1; w <= wl.Windows; w++ {
		for src := 0; src < wl.Sources; src++ {
			if err := c.IngestBatch("j", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for src := 0; src < wl.Sources; src++ {
		if err := c.Advance("j", src, wl.Progress(wl.Windows+1)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Flush(5 * time.Second) {
		t.Fatalf("client did not settle: %+v, err %v", c.Stats(), c.Err())
	}
	testkit.DrainOrFail(t, e, 5*time.Second)
	if e.JobPaused("j") {
		t.Error("job was quarantined")
	}
	if got := e.Recorder().Job("j").Count(); got < 8 {
		t.Errorf("outputs = %d after the reserved advance, want >= 8", got)
	}
}

// TestRegressingAdvanceNacked: an Advance frame below the progress its
// stream already reported is nacked (NackInternal), and the job goes on
// closing every window the stream's later frames complete. The server
// hands a frame's own progress to ingest, so accepting it would regress
// the stage-0 frontiers and quarantine the job.
func TestRegressingAdvanceNacked(t *testing.T) {
	e, _, addr := serve(t, runtime.Config{Workers: 2}, server.Config{})
	if _, err := e.AddJob(testkit.AggSpec("j", 2, 2, testWin, 500*vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wl := testLoad(10)
	send := func(from, to int) {
		t.Helper()
		for w := from; w <= to; w++ {
			for src := 0; src < wl.Sources; src++ {
				if err := c.IngestBatch("j", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !c.Flush(5 * time.Second) {
			t.Fatalf("client did not settle: %+v, err %v", c.Stats(), c.Err())
		}
	}
	send(1, 3)
	if err := c.Advance("j", 0, wl.Progress(1)); err != nil {
		t.Fatal(err)
	}
	send(4, wl.Windows)
	if n := c.Stats().NackedByCode[wire.NackInternal]; n != 1 {
		t.Fatalf("regressing advance: %d NackInternal, want 1", n)
	}
	for src := 0; src < wl.Sources; src++ {
		if err := c.Advance("j", src, wl.Progress(wl.Windows+1)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Flush(5 * time.Second) {
		t.Fatalf("client did not settle: %+v, err %v", c.Stats(), c.Err())
	}
	testkit.DrainOrFail(t, e, 5*time.Second)
	if e.JobFailed("j") || e.HandlerPanics() != 0 {
		t.Fatal("job was quarantined")
	}
	if got := e.Recorder().Job("j").Count(); got < 8 {
		t.Errorf("outputs = %d after the regressing advance, want >= 8", got)
	}
}

// rawConn is a test peer speaking raw wire frames, for fault injection
// below the client library's good manners.
type rawConn struct {
	nc net.Conn
	w  *wire.Writer
	r  *wire.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	rc := &rawConn{nc: nc, w: wire.NewWriter(nc), r: wire.NewReader(nc, 0)}
	if err := rc.w.Preamble(); err != nil {
		t.Fatal(err)
	}
	if err := rc.r.Preamble(); err != nil {
		t.Fatal(err)
	}
	return rc
}

// expectCredit reads frames until the stream's Credit grant arrives.
func (rc *rawConn) expectCredit(t *testing.T, stream uint32) uint32 {
	t.Helper()
	for {
		typ, err := rc.r.Next()
		if err != nil {
			t.Fatalf("waiting for credit: %v", err)
		}
		if typ != wire.FrameCredit {
			t.Fatalf("expected credit, got frame type %d", typ)
		}
		id, window, _, code, msg := rc.r.U32(), rc.r.U32(), rc.r.Slack(), rc.r.U8(), rc.r.String()
		if err := rc.r.Done(); err != nil {
			t.Fatal(err)
		}
		if id != stream {
			continue
		}
		if code != 0 {
			t.Fatalf("bind refused: code %d %q", code, msg)
		}
		return window
	}
}

// expectAck reads one frame, which must be an Ack.
func (rc *rawConn) expectAck(t *testing.T) (stream uint32, through uint64) {
	t.Helper()
	typ, err := rc.r.Next()
	if err != nil || typ != wire.FrameAck {
		t.Fatalf("expected ack, got frame type %d err %v", typ, err)
	}
	stream, through = rc.r.U32(), rc.r.U64()
	if err := rc.r.Done(); err != nil {
		t.Fatal(err)
	}
	return stream, through
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// dialBound binds stream 1 of a fresh job with an hour's target over a raw
// connection.
func dialBound(t *testing.T) (*runtime.Engine, *server.Server, *rawConn) {
	t.Helper()
	e, s, addr := serve(t, runtime.Config{Workers: 1}, server.Config{})
	if _, err := e.AddJob(testkit.AggSpec("j", 2, 2, testWin, vtime.Hour)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	rc := dialRaw(t, addr)
	if err := rc.w.Bind(1, 0, "j"); err != nil {
		t.Fatal(err)
	}
	rc.expectCredit(t, 1)
	return e, s, rc
}

// bindOne binds stream 1 (dialBound) and sends it one frame, which moves
// the stream into window 1 and so is flushed and acked at once. With an
// hour of slack, the stream's later frames in that window close nothing.
func bindOne(t *testing.T) (*runtime.Engine, *server.Server, *rawConn, testkit.Workload) {
	t.Helper()
	e, s, rc := dialBound(t)
	wl := testLoad(1)
	if err := rc.w.Events(1, 1, wl.Progress(1), wl.Batch(0, 1)); err != nil {
		t.Fatal(err)
	}
	// Take the ack off the socket: closing with it unread would reset the
	// connection instead of ending it cleanly.
	if id, through := rc.expectAck(t); id != 1 || through != 1 {
		t.Fatalf("ack (%d,%d), want (1,1)", id, through)
	}
	return e, s, rc, wl
}

// TestProtocolErrorDiscardsBuffered pins the no-partial-ingest guarantee:
// a valid frame that arrived in the same read as a corrupt one is still
// buffered when framing is lost — the corrupt frame was whole, so the
// server did not wait before decoding it — and dies with the connection:
// nothing read alongside broken framing reaches the engine.
func TestProtocolErrorDiscardsBuffered(t *testing.T) {
	e, s, rc, wl := bindOne(t)
	testkit.DrainOrFail(t, e, 5*time.Second)
	created := e.Created()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for seq := uint64(2); seq <= 3; seq++ {
		if err := w.Events(1, seq, wl.Progress(1), wl.Batch(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	frames := buf.Bytes()
	frames[len(frames)-1] ^= 0xff // the second frame's CRC
	if _, err := rc.nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "protocol teardown", func() bool { return s.Stats().ProtocolErrors == 1 })
	ss := s.Stats()
	if ss.BufferedEvents != 0 || ss.Events != 2*int64(wl.Tuples) {
		t.Errorf("after teardown: %d events decoded, %d buffered; want %d, 0",
			ss.Events, ss.BufferedEvents, 2*wl.Tuples)
	}
	if ss.FlushedEvents != int64(wl.Tuples) || e.Created() != created {
		t.Errorf("partial ingest after torn framing: flushed %d (want %d), engine created %d (want %d)",
			ss.FlushedEvents, wl.Tuples, e.Created(), created)
	}
}

// TestCleanEOFFlushesBuffered pins the complement: an abrupt but
// framing-intact close (EOF at a frame boundary) ingests everything that
// was sent — every one of those frames passed its CRC.
func TestCleanEOFFlushesBuffered(t *testing.T) {
	e, s, rc, wl := bindOne(t)
	for seq := uint64(2); seq <= 3; seq++ {
		if err := rc.w.Events(1, seq, wl.Progress(1), wl.Batch(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Close the sending half only: the verdicts for frames 2 and 3 may come
	// back after the close, and arriving at a fully closed socket they
	// would reset the connection instead of letting it end cleanly.
	if err := rc.nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "EOF flush", func() bool { return s.Stats().FlushedEvents == 3*int64(wl.Tuples) })
	testkit.DrainOrFail(t, e, 5*time.Second)
	if ss := s.Stats(); ss.ProtocolErrors != 0 || ss.BufferedEvents != 0 {
		t.Errorf("clean EOF: %d protocol errors, %d events buffered; want 0, 0", ss.ProtocolErrors, ss.BufferedEvents)
	}
}

// TestStalledReadHoldsNothing: frames that arrived whole are flushed and
// acked before the server waits on the rest of a frame still in transit,
// however much slack their job has (an hour here) — stalled after half of
// a small frame, or 40 KiB into a 64 KiB one, larger than the read buffer
// can ever hold whole. Finishing the stalled frame then works as usual.
func TestStalledReadHoldsNothing(t *testing.T) {
	const big = (64<<10 - 34) / 24 // a 64 KiB Events frame: 34 bytes of framing and head, 24 per tuple
	for _, tc := range []struct {
		name    string
		tuples  int
		stallAt int // bytes of the stalled frame written first; 0 = half
	}{{"half a small frame", 10, 0}, {"40 KiB of 64 KiB", big, 40 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(testkit.LeakCheck(t)) // runs after serve's cleanup
			_, s, rc := dialBound(t)
			// Progress 0 closes nothing: only the wait edge flushes these.
			wl := testLoad(1)
			var buf bytes.Buffer
			w := wire.NewWriter(&buf)
			for seq := uint64(1); seq <= 3; seq++ {
				if err := w.Events(1, seq, 0, wl.Batch(0, 1)); err != nil {
					t.Fatal(err)
				}
			}
			whole := buf.Len()
			stalled := testkit.Workload{Seed: 3, Sources: 1, Windows: 1, Tuples: tc.tuples, Keys: 8, Win: testWin}
			if err := w.Events(1, 4, 0, stalled.Batch(0, 1)); err != nil {
				t.Fatal(err)
			}
			cut := whole + tc.stallAt
			if tc.stallAt == 0 {
				cut = whole + (buf.Len()-whole)/2
			}
			if _, err := rc.nc.Write(buf.Bytes()[:cut]); err != nil {
				t.Fatal(err)
			}
			// The complete frames are acked within a second (a read past
			// the deadline fails the test), whatever their job's slack.
			rc.nc.SetReadDeadline(time.Now().Add(time.Second))
			for through := uint64(0); through < 3; {
				_, through = rc.expectAck(t)
			}
			if ss := s.Stats(); ss.BufferedEvents != 0 || ss.FlushedEvents != 3*int64(wl.Tuples) {
				t.Fatalf("while stalled: %d events buffered, %d flushed; want 0, %d",
					ss.BufferedEvents, ss.FlushedEvents, 3*wl.Tuples)
			}
			rc.nc.SetReadDeadline(time.Time{})
			if _, err := rc.nc.Write(buf.Bytes()[cut:]); err != nil {
				t.Fatal(err)
			}
			if id, through := rc.expectAck(t); id != 1 || through != 4 {
				t.Fatalf("stalled frame: ack (%d,%d), want (1,4)", id, through)
			}
			if ss := s.Stats(); ss.BufferedEvents != 0 || ss.FlushedEvents != int64(3*wl.Tuples+tc.tuples) {
				t.Errorf("after the stalled frame: %d events buffered, %d flushed; want 0, %d",
					ss.BufferedEvents, ss.FlushedEvents, 3*wl.Tuples+tc.tuples)
			}
		})
	}
}

// TestCreditWindowBlocksAndRecovers pins the flow-control loop: with acks
// withheld (an hour of slack, frames that close no window, held in the
// client's write buffer), TryIngestBatch refuses at exactly the credit
// window and IngestBatch blocks — and the blocked send returns in about a
// round trip: the client pushes out what it holds before it waits, then
// writes nothing more, so the server's socket drains and it flushes the
// whole window at once.
func TestCreditWindowBlocksAndRecovers(t *testing.T) {
	e, s, addr := serve(t, runtime.Config{Workers: 1}, server.Config{})
	spec := testkit.AggSpec("j", 2, 2, testWin, vtime.Hour)
	spec.MaxPending = 8 // stage-0 parallelism 2 → window 4
	if _, err := e.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	e.Start()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wl := testLoad(1)
	// The first frame enters window 1 and is flushed and acked at once.
	if err := c.IngestBatch("j", 0, wl.Batch(0, 1), wl.Progress(1)); err != nil {
		t.Fatal(err)
	}
	if !c.Flush(5 * time.Second) {
		t.Fatalf("did not settle: %+v", c.Stats())
	}
	window := c.Window("j", 0)
	if window != 4 {
		t.Fatalf("window = %d, want 4", window)
	}
	// The next ones stay in window 1: nothing flushes them, nothing acks.
	for i := 1; i <= window; i++ {
		if err := c.TryIngestBatch("j", 0, wl.Batch(0, 1), wl.Progress(1)); err != nil {
			t.Fatalf("send %d/%d refused early: %v", i, window, err)
		}
	}
	// Window full, nothing acked yet: the non-blocking path must refuse...
	if err := c.TryIngestBatch("j", 0, wl.Batch(0, 1), wl.Progress(1)); !errors.Is(err, runtime.ErrOverloaded) {
		t.Errorf("TryIngestBatch with window full = %v, want ErrOverloaded", err)
	}
	// ...and the blocking path waits only for one round trip — not for a
	// hold bound, which here is minutes away.
	start := time.Now()
	if err := c.IngestBatch("j", 0, wl.Batch(0, 1), wl.Progress(1)); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("blocking send took %v — waited for something other than a round trip", waited)
	}
	if ss := s.Stats(); ss.Flushes != 2 || ss.FlushedEvents != int64((1+window)*wl.Tuples) {
		t.Errorf("after the blocked send: %d flushes of %d events, want 2 (first frame, full window) of %d",
			ss.Flushes, ss.FlushedEvents, (1+window)*wl.Tuples)
	}
	if !c.Flush(5 * time.Second) {
		t.Fatalf("did not settle: %+v", c.Stats())
	}
	testkit.DrainOrFail(t, e, 5*time.Second)
}

// TestAllocsServerSteadyStateDecode is the decode-path half of the alloc
// gate: one steady-state Events frame costs the server zero allocations —
// frames decode into leased pooled batches, coalesce, and the flush
// verdicts travel back without any per-frame garbage. The engine side is
// pinned by TestAllocsEngineSteadyState; here the engine never runs, so
// once the job's budget is full every flush is refused before message
// creation, isolating decode + coalesce + flush + Nack + pool recycle.
func TestAllocsServerSteadyStateDecode(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	const frames, tuples = 64, 16
	e, _, addr := serve(t, runtime.Config{Workers: 1}, server.Config{})
	// The first flush fills the budget (one message per stage-0 instance);
	// every later one is refused with ErrJobOverloaded, a bare sentinel.
	// Every frame announces the same progress, so after the first none
	// closes a window: only the coalesce cap and the server's socket waits
	// flush.
	spec := testkit.AggSpec("j", 2, 2, testWin, vtime.Hour)
	spec.MaxPending = 2
	if _, err := e.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, addr)
	if err := rc.w.Bind(1, 0, "j"); err != nil {
		t.Fatal(err)
	}
	rc.expectCredit(t, 1)
	wl := testkit.Workload{Seed: 3, Sources: 1, Windows: 1, Tuples: tuples, Keys: 8, Win: testWin}
	b := wl.Batch(0, 1)
	seq := uint64(0)
	cycle := func() {
		for i := 0; i < frames; i++ {
			seq++
			if err := rc.w.Events(1, seq, wl.Progress(1), b); err != nil {
				t.Fatal(err)
			}
		}
		// Flushes follow the server's read bursts and the 64-tuple cap;
		// the full budget refuses them, the leases recycle, Nacks return
		// (the very first flush is admitted and acked). Reading verdicts
		// through the cycle's last frame closes the loop without backlog.
		for through := uint64(0); through < seq; {
			typ, err := rc.r.Next()
			if err != nil || (typ != wire.FrameNack && typ != wire.FrameAck) {
				t.Fatalf("expected a verdict, got type %d err %v", typ, err)
			}
			rc.r.U32()
			through = rc.r.U64()
			if typ == wire.FrameNack {
				rc.r.U8()
				rc.r.Dur()
			}
			if err := rc.r.Done(); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 20; i++ {
		cycle() // warm pools, grow buffers, fault in TCP paths
	}
	perCycle := testing.AllocsPerRun(40, cycle)
	perFrame := perCycle / frames
	t.Logf("%.2f allocs per cycle (%d frames) = %.4f allocs/frame", perCycle, frames, perFrame)
	if perFrame > 0.25 {
		t.Errorf("server decode path allocates %.4f per frame (%.1f per %d-frame cycle); want ~0",
			perFrame, perCycle, frames)
	}
}
