package client

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/wire"
)

const slide = 10 * vtime.Millisecond

// frame is one client frame as the scripted peer read it.
type frame struct {
	typ    byte
	stream uint32
	seq    uint64
	p      vtime.Time
	n      int
	at     time.Time
}

// peer is a scripted server over net.Pipe speaking internal/wire directly.
// It answers every Bind with the same grant and a Goodbye with a Goodbye,
// and hands every other frame to the test, which writes the verdicts.
type peer struct {
	nc     net.Conn
	grant  wire.Slack
	window uint32
	frames chan frame

	mu sync.Mutex // serializes w between the reader's replies and the test's
	w  *wire.Writer
}

// countConn counts the client's writes: net.Pipe is unbuffered, so one
// Write is one hand-over to the peer — what a syscall is on a socket.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// dialPipe connects a Client to a scripted peer granting (window, grant).
func dialPipe(t *testing.T, window uint32, grant wire.Slack) (*Client, *peer, *countConn) {
	t.Helper()
	cn, pn := net.Pipe()
	p := &peer{nc: pn, grant: grant, window: window, frames: make(chan frame, 1<<16), w: wire.NewWriter(pn)}
	go p.run()
	cc := &countConn{Conn: cn}
	c, err := start(cc, Options{BindTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); pn.Close() })
	return c, p, cc
}

func (p *peer) run() {
	defer close(p.frames)
	r := wire.NewReader(p.nc, 0)
	if r.Preamble() != nil {
		return
	}
	p.mu.Lock()
	err := p.w.Preamble()
	p.mu.Unlock()
	if err != nil {
		return
	}
	scratch := dataflow.NewBatch(16)
	for {
		typ, err := r.Next()
		if err != nil {
			return
		}
		f := frame{typ: typ, at: time.Now()}
		switch typ {
		case wire.FrameBind:
			id := r.U32()
			r.U32()
			_ = r.String()
			p.mu.Lock()
			p.w.Credit(id, p.window, p.grant, 0, "")
			p.mu.Unlock()
			continue
		case wire.FrameEvents:
			h, err := r.EventsHead()
			if err != nil {
				return
			}
			scratch.Times, scratch.Keys, scratch.Vals = scratch.Times[:0], scratch.Keys[:0], scratch.Vals[:0]
			if r.EventsInto(h, scratch) != nil {
				return
			}
			f.stream, f.seq, f.p, f.n = h.Stream, h.Seq, h.Progress, h.Count
		case wire.FrameAdvance:
			f.stream, f.seq, f.p = r.U32(), r.U64(), r.Time()
		case wire.FrameGoodbye:
			p.mu.Lock()
			p.w.Goodbye()
			p.mu.Unlock()
			return
		}
		if r.Done() != nil {
			return
		}
		p.frames <- f
	}
}

func (p *peer) ack(stream uint32, through uint64) {
	p.mu.Lock()
	p.w.Ack(stream, through)
	p.mu.Unlock()
}

func (p *peer) nack(stream uint32, through uint64, code uint8, retry vtime.Duration) {
	p.mu.Lock()
	p.w.Nack(stream, through, code, retry)
	p.mu.Unlock()
}

// next returns the next frame, which must arrive within d.
func (p *peer) next(t *testing.T, d time.Duration) frame {
	t.Helper()
	select {
	case f, ok := <-p.frames:
		if !ok {
			t.Fatal("peer: connection ended")
		}
		return f
	case <-time.After(d):
		t.Fatalf("peer: no frame within %v", d)
	}
	panic("unreachable")
}

// none asserts that no frame arrives for d.
func (p *peer) none(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case f, ok := <-p.frames:
		if ok {
			t.Fatalf("peer: frame type %d seq %d arrived, expected it to be held", f.typ, f.seq)
		}
	case <-time.After(d):
	}
}

// armed reports whether the hold timer is armed.
func (c *Client) armed() bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.timer.armed()
}

func batch(n int, at vtime.Time) *dataflow.Batch {
	b := dataflow.NewBatch(n)
	for i := 0; i < n; i++ {
		b.Append(at, int64(i), 1)
	}
	return b
}

// TestFrontierFramesNeedNoTimer: with an hour of slack the hold timer is
// out of the picture for the length of the test, so whatever reaches the
// peer was pushed by the send itself — every Advance, and every Events
// frame that enters a later window. A frame that stays inside the window
// waits, and leaves in the same write as the next frontier frame.
func TestFrontierFramesNeedNoTimer(t *testing.T) {
	c, p, cc := dialPipe(t, 64, wire.Slack{Latency: vtime.Hour, Slide: slide})
	if err := c.Advance("j", 0, 0); err != nil {
		t.Fatal(err)
	}
	if f := p.next(t, 2*time.Second); f.typ != wire.FrameAdvance || f.seq != 1 {
		t.Fatalf("got %+v, want the advance", f)
	}
	if err := c.IngestBatch("j", 0, batch(3, slide), slide); err != nil { // window 0 -> 1
		t.Fatal(err)
	}
	if f := p.next(t, 2*time.Second); f.typ != wire.FrameEvents || f.seq != 2 || f.n != 3 {
		t.Fatalf("got %+v, want the window-entering events frame", f)
	}
	if c.armed() {
		t.Fatal("timer armed with an empty write buffer")
	}
	before := cc.writes.Load()
	for i := 0; i < 3; i++ { // inside window 1
		if err := c.IngestBatch("j", 0, batch(2, slide+1), slide+vtime.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.none(t, 30*time.Millisecond)
	if !c.armed() {
		t.Fatal("timer not armed with frames on hold")
	}
	if err := c.Advance("j", 0, slide+5); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(3); seq <= 6; seq++ {
		if f := p.next(t, 2*time.Second); f.seq != seq {
			t.Fatalf("got seq %d, want %d: frames reordered", f.seq, seq)
		}
	}
	if w := cc.writes.Load() - before; w != 1 {
		t.Errorf("held frames and the frontier frame behind them took %d writes, want 1", w)
	}
	if c.armed() {
		t.Error("timer still armed after the frontier frame emptied the buffer")
	}
}

// TestHoldBoundOneWrite: frames that close nothing leave when the oldest
// of them has waited the client's share of its stream's hold bound — half
// of it, a sixteenth of the latency target; no sooner, not much later —
// and all in one write.
func TestHoldBoundOneWrite(t *testing.T) {
	const latency = 800 * vtime.Millisecond
	hold := wire.Slack{Latency: latency}.Hold() / 2
	c, p, cc := dialPipe(t, 64, wire.Slack{Latency: latency, Slide: slide})
	if err := c.Advance("j", 0, 0); err != nil {
		t.Fatal(err)
	}
	p.next(t, 2*time.Second)
	before := cc.writes.Load()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := c.IngestBatch("j", 0, batch(4, 1), 1); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(2); seq <= 6; seq++ {
		f := p.next(t, hold+2*time.Second)
		if f.seq != seq {
			t.Fatalf("got seq %d, want %d", f.seq, seq)
		}
		if held := f.at.Sub(start); held < hold {
			t.Errorf("frame %d left after %v, before the hold bound %v", seq, held, hold)
		}
	}
	if w := cc.writes.Load() - before; w != 1 {
		t.Errorf("5 held frames took %d writes, want 1", w)
	}
	if c.armed() {
		t.Error("timer still armed after it fired")
	}
	// S = 0: no frame closes a window, the hold bound is the whole policy.
	c0, p0, _ := dialPipe(t, 64, wire.Slack{Latency: latency})
	start = time.Now()
	if err := c0.IngestBatch("j", 0, batch(1, 5*slide), 5*slide); err != nil {
		t.Fatal(err)
	}
	if f := p0.next(t, hold+2*time.Second); f.at.Sub(start) < hold {
		t.Errorf("unwindowed stream's frame left after %v, before the hold bound %v", f.at.Sub(start), hold)
	}
}

// TestIdleAndCloseLeaveNothing: a bound, idle connection has no timer
// armed; Close disarms one that is, and no goroutine outlives it.
func TestIdleAndCloseLeaveNothing(t *testing.T) {
	defer testkit.LeakCheck(t)()
	cn, pn := net.Pipe()
	p := &peer{nc: pn, grant: wire.Slack{Latency: vtime.Hour, Slide: slide}, window: 8,
		frames: make(chan frame, 16), w: wire.NewWriter(pn)}
	go p.run()
	c, err := start(cn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("j", 0, 0); err != nil {
		t.Fatal(err)
	}
	p.next(t, 2*time.Second)
	if c.armed() {
		t.Error("timer armed on an idle bound connection")
	}
	if err := c.IngestBatch("j", 0, batch(1, 1), 1); err != nil {
		t.Fatal(err)
	}
	if !c.armed() {
		t.Error("timer not armed with a frame on hold")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.armed() {
		t.Error("timer armed after Close")
	}
	// Close pushed the held frame out ahead of its Goodbye.
	if f := p.next(t, 2*time.Second); f.seq != 2 {
		t.Errorf("held frame lost at Close: got %+v", f)
	}
	pn.Close()
}

// TestFlushAsksTheServer: Flush pushes what is held, follows it with a
// Flush frame, and returns only once the verdicts are in.
func TestFlushAsksTheServer(t *testing.T) {
	c, p, _ := dialPipe(t, 64, wire.Slack{Latency: vtime.Hour, Slide: slide})
	if err := c.IngestBatch("j", 0, batch(2, 1), 1); err != nil { // closes nothing: held
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() { done <- c.Flush(5 * time.Second) }()
	if f := p.next(t, 2*time.Second); f.typ != wire.FrameEvents || f.seq != 1 {
		t.Fatalf("got %+v, want the held events frame", f)
	}
	if f := p.next(t, 2*time.Second); f.typ != wire.FrameFlush {
		t.Fatalf("got frame type %d, want Flush", f.typ)
	}
	select {
	case <-done:
		t.Fatal("Flush returned before the verdict")
	case <-time.After(20 * time.Millisecond):
	}
	p.ack(1, 1)
	select {
	case ok := <-done:
		if !ok {
			t.Error("Flush reported unsettled after the ack")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Flush did not return after the ack")
	}
	if st := c.Stats(); st.SentFrames != 1 || st.AckedFrames != 1 || st.AckedEvents != 2 {
		t.Errorf("ledger %+v, want 1 frame of 2 events sent and acked", st)
	}
}

// TestNackBackoffTypedErrors: a Nack settles its frames as refused and
// opens a retry-after backoff, during which TryIngestBatch refuses with
// the engine's own sentinel for the Nack's code and IngestBatch waits; a
// full credit window refuses with ErrOverloaded.
func TestNackBackoffTypedErrors(t *testing.T) {
	c, p, _ := dialPipe(t, 2, wire.Slack{Latency: vtime.Hour, Slide: slide})
	prog := vtime.Time(0)
	send := func(try bool) error { // every frame enters a new window, so none is held
		prog += slide
		if try {
			return c.TryIngestBatch("j", 0, batch(1, prog), prog)
		}
		return c.IngestBatch("j", 0, batch(1, prog), prog)
	}
	for _, tc := range []struct {
		code uint8
		want error
	}{
		{wire.NackJobOverloaded, runtime.ErrJobOverloaded},
		{wire.NackOverloaded, runtime.ErrOverloaded},
		{wire.NackPaused, runtime.ErrJobPaused},
	} {
		if err := send(true); err != nil {
			t.Fatalf("code %d: send refused: %v", tc.code, err)
		}
		f := p.next(t, 2*time.Second)
		const retry = 150 * vtime.Millisecond
		nackedAt := time.Now()
		p.nack(f.stream, f.seq, tc.code, retry)
		if !c.Flush(2 * time.Second) {
			t.Fatalf("code %d: nack did not settle", tc.code)
		}
		p.next(t, 2*time.Second) // the Flush frame
		if err := send(true); !errors.Is(err, tc.want) {
			t.Errorf("code %d: TryIngestBatch in backoff = %v, want %v", tc.code, err, tc.want)
		}
		if err := send(false); err != nil {
			t.Fatalf("code %d: blocking send: %v", tc.code, err)
		}
		if waited := time.Since(nackedAt); waited < vtime.Std(retry) {
			t.Errorf("code %d: blocking send went out %v after the nack, inside the %v backoff", tc.code, waited, vtime.Std(retry))
		}
		f = p.next(t, 2*time.Second)
		p.ack(f.stream, f.seq)
		if !c.Flush(2 * time.Second) {
			t.Fatalf("code %d: ack did not settle", tc.code)
		}
		p.next(t, 2*time.Second) // the Flush frame
	}
	st := c.Stats()
	if st.NackedFrames != 3 || st.AckedFrames != 3 || st.SentFrames != 6 ||
		st.NackedByCode[wire.NackJobOverloaded] != 1 || st.NackedByCode[wire.NackOverloaded] != 1 || st.NackedByCode[wire.NackPaused] != 1 {
		t.Errorf("ledger %+v", st)
	}
	// Window 2: the third unsettled send is refused locally — and since the
	// two before it close nothing and are still held, the refusal pushes
	// them out: their acks are what reopens the window.
	for i := 0; i < 2; i++ {
		if err := c.TryIngestBatch("j", 0, batch(1, prog), prog); err != nil {
			t.Fatal(err)
		}
	}
	p.none(t, 20*time.Millisecond)
	if err := c.TryIngestBatch("j", 0, batch(1, prog), prog); !errors.Is(err, runtime.ErrOverloaded) {
		t.Errorf("TryIngestBatch with the credit window full = %v, want ErrOverloaded", err)
	}
	for i := 0; i < 2; i++ {
		p.next(t, 2*time.Second)
	}
}

// TestLedgerSurvivesPeerReset: the peer dies in the middle of a frame. The
// connection is poisoned with a typed error, later sends are refused and
// not counted, and what was settled before stays settled: sent == acked +
// nacked, frames and events.
func TestLedgerSurvivesPeerReset(t *testing.T) {
	c, p, _ := dialPipe(t, 64, wire.Slack{Latency: vtime.Hour, Slide: slide})
	for i := 1; i <= 6; i++ {
		if err := c.IngestBatch("j", 0, batch(3, vtime.Time(i)*slide), vtime.Time(i)*slide); err != nil {
			t.Fatal(err)
		}
		p.next(t, 2*time.Second)
	}
	// Acks 1-4, a nack for 5-6, then an ack torn in the middle, then gone.
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Ack(1, 4)
	w.Nack(1, 6, wire.NackOverloaded, 0)
	whole := buf.Len()
	w.Ack(1, 7)
	p.mu.Lock()
	p.nc.Write(buf.Bytes()[:whole+(buf.Len()-whole)/2])
	p.nc.Close()
	p.mu.Unlock()

	deadline := time.Now().Add(2 * time.Second)
	for c.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := c.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("connection error = %v, want ErrClosed", err)
	}
	if err := c.IngestBatch("j", 0, batch(3, 7*slide), 7*slide); !errors.Is(err, ErrClosed) {
		t.Errorf("send on a dead connection = %v, want ErrClosed", err)
	}
	if err := c.TryIngestBatch("j", 0, batch(3, 7*slide), 7*slide); !errors.Is(err, ErrClosed) {
		t.Errorf("try-send on a dead connection = %v, want ErrClosed", err)
	}
	st := c.Stats()
	if st.SentFrames != 6 || st.AckedFrames != 4 || st.NackedFrames != 2 ||
		st.SentFrames != st.AckedFrames+st.NackedFrames || st.SentEvents != st.AckedEvents+st.NackedEvents {
		t.Errorf("ledger after reset %+v: want 6 sent = 4 acked + 2 nacked", st)
	}
	if !c.Flush(time.Second) {
		t.Error("Flush reports unsettled frames though every sent frame has its verdict")
	}
}

// TestInflightRingBounded: the in-flight ledger is a ring of window
// entries. A stream that is never fully settled when an Ack lands — the
// Ack always one frame behind — must not grow it, however long it runs,
// and must still reconcile.
func TestInflightRingBounded(t *testing.T) {
	const window, sends = 4, 1_000_000
	c := &Client{}
	c.cond = sync.NewCond(&c.mu)
	st := &cstream{window: window, inflight: make([]int, window)}
	var events int64
	for i := 1; i <= sends; i++ {
		if st.pending() >= window {
			t.Fatalf("send %d: %d pending with the ack one behind", i, st.pending())
		}
		n := i % 7
		if seq := st.push(n); seq != uint64(i) {
			t.Fatalf("send %d got seq %d", i, seq)
		}
		events += int64(n)
		c.settle(st, uint64(i-1), i%1000 == 0, wire.NackOverloaded)
		if st.pending() != 1 {
			t.Fatalf("send %d: %d pending after acking through %d", i, st.pending(), i-1)
		}
	}
	if cap(st.inflight) > window {
		t.Errorf("ledger grew to %d entries, window is %d", cap(st.inflight), window)
	}
	c.settle(st, sends, false, 0)
	if st.pending() != 0 || c.ackedFrames+c.nackedFrames != sends || c.ackedEvents+c.nackedEvents != events {
		t.Errorf("ledger does not reconcile: pending %d, frames %d+%d of %d, events %d+%d of %d",
			st.pending(), c.ackedFrames, c.nackedFrames, sends, c.ackedEvents, c.nackedEvents, events)
	}
	// A stale or repeated verdict settles nothing twice.
	c.settle(st, sends, true, wire.NackOverloaded)
	if c.ackedFrames+c.nackedFrames != sends {
		t.Errorf("repeated verdict counted: %d frames settled of %d", c.ackedFrames+c.nackedFrames, sends)
	}
}

// TestCreditWindowClamped: a Credit cannot make the client allocate an
// arbitrary ring; it uses at most maxWindow frames of whatever is granted.
func TestCreditWindowClamped(t *testing.T) {
	c, p, _ := dialPipe(t, 1<<31, wire.Slack{Latency: vtime.Hour})
	if err := c.Advance("j", 0, 0); err != nil {
		t.Fatal(err)
	}
	p.next(t, 2*time.Second)
	if got := c.Window("j", 0); got != maxWindow {
		t.Errorf("window = %d after a grant of 2^31, want the cap %d", got, maxWindow)
	}
}

// TestHoldTimer pins the client's timer: it fires once, for the earliest
// deadline armed, a later one never postpones it, and disarmed it does not
// fire at all.
func TestHoldTimer(t *testing.T) {
	fired := make(chan time.Time, 4)
	h := holdTimer{expired: func() { fired <- time.Now() }}
	if h.armed() {
		t.Fatal("armed before arm")
	}
	start := time.Now()
	h.arm(start.Add(time.Hour))
	h.arm(start.Add(20 * time.Millisecond)) // earlier: re-arms
	h.arm(start.Add(time.Minute))           // later: ignored
	select {
	case at := <-fired:
		if d := at.Sub(start); d < 20*time.Millisecond {
			t.Errorf("fired after %v, before the 20 ms deadline", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("did not fire for the earliest deadline")
	}
	// One-shot: the owner's callback disarms or re-arms; nothing repeats.
	h.disarm()
	h.arm(time.Now().Add(10 * time.Millisecond))
	h.disarm()
	select {
	case <-fired:
		t.Error("fired after disarm")
	case <-time.After(50 * time.Millisecond):
	}
	if h.armed() {
		t.Error("armed after disarm")
	}
}
