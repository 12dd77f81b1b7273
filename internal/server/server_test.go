package server_test

import (
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
	e, s, addr := serve(t, runtime.Config{Workers: 2},
		server.Config{FlushEvents: 16})
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
	e, s, addr := serve(t, runtime.Config{Workers: 1}, server.Config{FlushEvents: 1})
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
	e, _, addr := serve(t, runtime.Config{Workers: 1}, server.Config{FlushEvents: 1})
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
	e, _, addr := serve(t, runtime.Config{Workers: 2}, server.Config{FlushEvents: 16})
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
	e, _, addr := serve(t, runtime.Config{Workers: 2}, server.Config{FlushEvents: 16})
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

// parkOne binds stream 1 of a fresh long-target job over a raw connection
// and leaves one frame parked in its coalesce buffer: the first frame moves
// the stream into window 1, so it is flushed at once; the second stays in
// that window, and with an hour of slack nothing but the peer will move it.
func parkOne(t *testing.T, scfg server.Config) (*runtime.Engine, *server.Server, *rawConn, testkit.Workload) {
	t.Helper()
	e, s, addr := serve(t, runtime.Config{Workers: 1}, scfg)
	if _, err := e.AddJob(testkit.AggSpec("j", 2, 2, testWin, vtime.Hour)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	rc := dialRaw(t, addr)
	if err := rc.w.Bind(1, 0, "j"); err != nil {
		t.Fatal(err)
	}
	rc.expectCredit(t, 1)
	wl := testLoad(1)
	for seq := uint64(1); seq <= 2; seq++ {
		if err := rc.w.Events(1, seq, wl.Progress(1), wl.Batch(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "one frame flushed, one buffered", func() bool {
		ss := s.Stats()
		return ss.FlushedEvents == int64(wl.Tuples) && ss.BufferedEvents == int64(wl.Tuples)
	})
	// Take the first frame's ack off the socket: closing with it unread
	// would reset the connection instead of ending it cleanly.
	if id, through := rc.expectAck(t); id != 1 || through != 1 {
		t.Fatalf("ack (%d,%d), want (1,1)", id, through)
	}
	return e, s, rc, wl
}

// TestProtocolErrorDiscardsBuffered pins the no-partial-ingest guarantee:
// events buffered behind an unflushed coalesce window die with the
// connection when framing is lost — nothing half-verified reaches the
// engine.
func TestProtocolErrorDiscardsBuffered(t *testing.T) {
	e, s, rc, wl := parkOne(t, server.Config{FlushEvents: 1 << 20})
	testkit.DrainOrFail(t, e, 5*time.Second)
	created := e.Created()
	// Garbage after a valid frame: framing is lost, the connection must
	// tear down and the buffered batch must never be ingested.
	if _, err := rc.nc.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "protocol teardown", func() bool { return s.Stats().ProtocolErrors == 1 })
	ss := s.Stats()
	if ss.BufferedEvents != 0 {
		t.Errorf("buffered events after teardown = %d, want 0", ss.BufferedEvents)
	}
	if ss.FlushedEvents != int64(wl.Tuples) || e.Created() != created {
		t.Errorf("partial ingest after torn framing: flushed %d (want %d), engine created %d (want %d)",
			ss.FlushedEvents, wl.Tuples, e.Created(), created)
	}
	if n := s.TimersArmed(); n != 0 {
		t.Errorf("%d hold timers armed after teardown", n)
	}
}

// TestCleanEOFFlushesBuffered pins the complement: an abrupt but
// framing-intact close (EOF at a frame boundary) flushes what was
// buffered — every one of those frames passed its CRC.
func TestCleanEOFFlushesBuffered(t *testing.T) {
	e, s, rc, wl := parkOne(t, server.Config{FlushEvents: 1 << 20})
	rc.nc.Close()
	waitFor(t, "EOF flush", func() bool { return s.Stats().FlushedEvents == 2*int64(wl.Tuples) })
	testkit.DrainOrFail(t, e, 5*time.Second)
	if s.Stats().ProtocolErrors != 0 {
		t.Errorf("clean EOF counted as protocol error")
	}
}

// TestCreditWindowBlocksAndRecovers pins the flow-control loop: with acks
// withheld (a huge coalesce size, an hour of slack, frames that close no
// window), TryIngestBatch refuses at exactly the credit window and
// IngestBatch blocks — and the server, seeing its buffer hold everything
// the client may send, flushes without waiting for any hold bound, so the
// blocked send returns in about a round trip.
func TestCreditWindowBlocksAndRecovers(t *testing.T) {
	e, s, addr := serve(t, runtime.Config{Workers: 1}, server.Config{FlushEvents: 1 << 20})
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
	// ...and the blocking path waits only for the server to notice that its
	// buffer holds the whole credit window — not for a hold bound, which
	// here is seven minutes away.
	start := time.Now()
	if err := c.IngestBatch("j", 0, wl.Batch(0, 1), wl.Progress(1)); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("blocking send took %v — waited for something other than the credit-window flush", waited)
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

// TestHoldBoundPerStream pins the slack-derived hold: two streams of one
// connection whose jobs have different latency targets are each flushed
// when their own bound (an eighth of the target) runs out, the tighter
// one first, by one timer that is armed for the earliest deadline only
// and not at all once nothing is buffered.
func TestHoldBoundPerStream(t *testing.T) {
	t.Cleanup(testkit.LeakCheck(t))                                        // runs after serve's cleanup: no timer goroutine outlives the server
	const tight, loose = 160 * vtime.Millisecond, 1600 * vtime.Millisecond // hold 20 ms / 200 ms
	e, s, addr := serve(t, runtime.Config{Workers: 1}, server.Config{FlushEvents: 1 << 20})
	for name, l := range map[string]vtime.Duration{"tight": tight, "loose": loose} {
		if _, err := e.AddJob(testkit.AggSpec(name, 1, 1, testWin, l)); err != nil {
			t.Fatal(err)
		}
	}
	e.Start()
	rc := dialRaw(t, addr)
	for id, job := range map[uint32]string{1: "loose", 2: "tight"} {
		if err := rc.w.Bind(id, 0, job); err != nil {
			t.Fatal(err)
		}
		rc.expectCredit(t, id)
	}
	if n := s.TimersArmed(); n != 0 {
		t.Fatalf("%d timers armed on an idle bound connection", n)
	}
	// Progress 0 closes nothing: both frames are held, the loose one first.
	wl := testLoad(1)
	start := time.Now()
	for _, id := range []uint32{1, 2} {
		if err := rc.w.Events(id, 1, 0, wl.Batch(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both buffered", func() bool { return s.Stats().BufferedEvents == 2*int64(wl.Tuples) })
	if n := s.TimersArmed(); n != 1 {
		t.Fatalf("%d timers armed with two buffers on hold, want 1", n)
	}
	for i, want := range []struct {
		stream uint32
		hold   time.Duration
	}{{2, vtime.Std(tight) / 8}, {1, vtime.Std(loose) / 8}} {
		id, through := rc.expectAck(t)
		if id != want.stream || through != 1 {
			t.Fatalf("verdict %d: ack (%d,%d), want stream %d", i, id, through, want.stream)
		}
		if held := time.Since(start); held < want.hold {
			t.Errorf("stream %d flushed after %v, before its hold bound %v", id, held, want.hold)
		}
		if got := s.Stats().Flushes; got != int64(i+1) {
			t.Errorf("%d flushes after verdict %d: the timer fired for more than the due stream", got, i)
		}
		if n := s.TimersArmed(); n != 1-i {
			t.Errorf("%d timers armed after verdict %d, want %d", n, i, 1-i)
		}
	}
	// Nothing buffered: nothing armed, and nothing fires again.
	time.Sleep(vtime.Std(tight) / 4)
	if ss := s.Stats(); ss.Flushes != 2 || s.TimersArmed() != 0 {
		t.Errorf("idle connection: %d flushes, %d timers armed; want 2, 0", ss.Flushes, s.TimersArmed())
	}
}

// TestAllocsServerSteadyStateDecode is the decode-path half of the alloc
// gate (ISSUE 10): one steady-state Events frame costs the server zero
// allocations — frames decode into leased pooled batches, coalesce, and
// the flush verdict travels back without any per-frame garbage. The
// engine side is pinned by TestAllocsEngineSteadyState; here the job is
// paused so every flush is refused before message creation, isolating
// decode + coalesce + flush + Nack + pool recycle.
func TestAllocsServerSteadyStateDecode(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	const frames, tuples = 64, 16
	e, _, addr := serve(t, runtime.Config{Workers: 1},
		server.Config{FlushEvents: frames * tuples})
	// An hour of slack: every cycle's buffer is on hold with the timer
	// armed, and only the coalesce size ever flushes it.
	if _, err := e.AddJob(testkit.AggSpec("j", 2, 2, testWin, vtime.Hour)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	rc := dialRaw(t, addr)
	if err := rc.w.Bind(1, 0, "j"); err != nil {
		t.Fatal(err)
	}
	rc.expectCredit(t, 1)
	if err := e.PauseJob("j"); err != nil {
		t.Fatal(err)
	}
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
		// The coalesce buffer hits FlushEvents on the last frame; the
		// paused job refuses the flush, the lease recycles, one Nack
		// returns. Reading it closes the loop without backlog.
		typ, err := rc.r.Next()
		if err != nil || typ != wire.FrameNack {
			t.Fatalf("expected nack, got type %d err %v", typ, err)
		}
		rc.r.U32()
		rc.r.U64()
		rc.r.U8()
		rc.r.Dur()
		if err := rc.r.Done(); err != nil {
			t.Fatal(err)
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
