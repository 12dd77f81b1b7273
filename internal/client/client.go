// Package client is the producer side of the networked ingest tier: a
// wire-protocol connection to an internal/server, exposing the engine's
// ingest surface — blocking IngestBatch, non-blocking TryIngestBatch,
// data-less Advance — over a socket, with credit-based flow control.
//
// Semantics mirror cameo.Engine as closely as the wire allows. The one
// structural difference is that admission verdicts are asynchronous:
// a send is pipelined (the call returns once the frame is written, not
// once the engine rules on it), and the server's cumulative Ack/Nack
// frames settle each send later. Flow control is therefore what the
// caller observes synchronously: IngestBatch blocks while the stream's
// credit window is full or a Nack's retry-after backoff is in force;
// TryIngestBatch returns an error wrapping runtime.ErrOverloaded (or
// ErrJobPaused, per the last Nack's code) in those states instead of
// blocking. Refused frames are counted per stream and surface in Stats —
// reconciling exactly with the server's ledger and the engine's
// per-source Rejected counts, which the equivalence tests pin.
//
// Streams are lazy: the first send on a (job, source) pair Binds it and
// waits for the server's Credit grant, which carries the stream's credit
// window and its wire.Slack — the job's latency target and first window
// slide. The Slack decides when a written frame leaves the write buffer: a
// frontier-advancing frame (every Advance, and every Events frame that
// moves the stream into a later window) goes to the socket at once, taking
// everything written before it along; any other frame may share a write
// with its successors for at most half the stream's hold bound, which one
// one-shot timer — armed only while the buffer is non-empty — enforces.
// One Client is safe for concurrent use; sends are serialized on the
// connection's single writer.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/wire"
)

// Options parameterizes Dial. Zero values select defaults.
type Options struct {
	// MaxFrame bounds one received frame's body (default wire.DefaultMaxFrame).
	MaxFrame int
	// DialTimeout bounds the TCP connect (default 5s).
	DialTimeout time.Duration
	// BindTimeout bounds the wait for a stream's Credit grant (default 5s).
	BindTimeout time.Duration
}

const defaultTimeout = 5 * time.Second

// maxWindow caps the credit window the client will use, whatever a Credit
// grants: the in-flight ring is allocated at that size.
const maxWindow = 1 << 16

// ErrBindRefused is wrapped by errors a refused Bind produces (unknown
// job, bad source, too many streams).
var ErrBindRefused = errors.New("client: bind refused")

// ErrClosed is wrapped by errors returned after the connection is closed
// or poisoned by a protocol failure.
var ErrClosed = errors.New("client: connection closed")

// Stats is a snapshot of the client's send/settle ledger. At quiescence
// (Flush returned true) conservation holds per frame and per tuple:
// Sent == Acked + Nacked.
type Stats struct {
	// SentFrames and SentEvents count Events/Advance frames written and
	// the tuples they carried.
	SentFrames, SentEvents int64
	// AckedFrames and AckedEvents count frames (and their tuples) the
	// server admitted into the engine.
	AckedFrames, AckedEvents int64
	// NackedFrames and NackedEvents count frames (and their tuples) the
	// server refused; NackedByCode breaks the frames down by wire Nack
	// code (index == code).
	NackedFrames, NackedEvents int64
	NackedByCode               [8]int64
}

type streamKey struct {
	job string
	src int
}

type cstream struct {
	id      uint32
	window  int
	slack   wire.Slack
	bound   bool
	refused string

	progress vtime.Time // highest progress announced so far
	nextSeq  uint64
	// inflight is a ring of window tuple counts, one per unsettled send,
	// oldest at head; their sequence numbers are the count consecutive ones
	// ending at nextSeq. Sized at Credit, it never grows: a send waits
	// while count == window.
	inflight    []int
	head, count int

	backoffUntil time.Time
	backoffCode  uint8
}

func (st *cstream) pending() int { return st.count }

// push records one unsettled send of n tuples and returns its sequence
// number. The caller holds the client's mu and has seen pending() < window.
func (st *cstream) push(n int) uint64 {
	st.inflight[(st.head+st.count)%len(st.inflight)] = n
	st.count++
	st.nextSeq++
	return st.nextSeq
}

// Client is one wire-protocol connection.
type Client struct {
	opts Options
	nc   net.Conn

	// The writer stack pipelines sends: frames accumulate in bw and hit
	// the socket in one syscall per flush instead of one per frame. A
	// frontier-advancing frame flushes as soon as it is written, a send
	// flushes before it waits (credit window full, Nack backoff, bind
	// credit), Flush/Close flush eagerly, and the hold timer bounds how
	// long anything else may sit buffered, so no frame is ever stranded
	// behind a caller that stopped sending.
	wmu   sync.Mutex // serializes the writer and the timer; sends take wmu then mu
	bw    *bufio.Writer
	w     *wire.Writer
	timer holdTimer // flushes bw; armed only while bw holds frames

	mu      sync.Mutex // guards everything below; the reader takes only mu
	cond    *sync.Cond
	streams map[streamKey]*cstream
	byID    map[uint32]*cstream
	nextID  uint32
	readErr error // sticky: connection poisoned
	closing bool

	sentFrames, sentEvents     int64
	ackedFrames, ackedEvents   int64
	nackedFrames, nackedEvents int64
	nackedByCode               [8]int64

	readerDone chan struct{}
}

// Dial connects to a server, exchanges preambles, and starts the
// acknowledgement reader.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = defaultTimeout
	}
	nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	return start(nc, opts)
}

// start runs the protocol over an established connection.
func start(nc net.Conn, opts Options) (*Client, error) {
	if opts.BindTimeout <= 0 {
		opts.BindTimeout = defaultTimeout
	}
	bw := bufio.NewWriterSize(nc, 16<<10)
	c := &Client{
		opts:       opts,
		nc:         nc,
		bw:         bw,
		w:          wire.NewWriter(bw),
		streams:    make(map[streamKey]*cstream),
		byID:       make(map[uint32]*cstream),
		readerDone: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.timer.expired = c.holdExpired
	err := c.w.Preamble()
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// flushWire pushes buffered frames to the socket and disarms the hold
// timer. Caller holds wmu.
func (c *Client) flushWire() error {
	c.timer.disarm()
	if err := c.bw.Flush(); err != nil {
		err = fmt.Errorf("%w: %v", ErrClosed, err)
		c.fail(err)
		return err
	}
	return nil
}

// holdExpired is the timer callback: the oldest buffered frame has used up
// its stream's hold bound.
func (c *Client) holdExpired() {
	c.wmu.Lock()
	c.flushWire() // best-effort; sender paths surface errors
	c.wmu.Unlock()
}

// fail poisons the connection: every in-flight and future call errors.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// settle pops every inflight send with seq <= through off one stream's
// ring, crediting it as acked or nacked. Caller holds c.mu.
func (c *Client) settle(st *cstream, through uint64, nacked bool, code uint8) {
	for ; st.count > 0 && st.nextSeq-uint64(st.count) < through; st.count-- {
		n := int64(st.inflight[st.head])
		st.head = (st.head + 1) % len(st.inflight)
		if nacked {
			c.nackedFrames++
			c.nackedEvents += n
			c.nackedByCode[code%8]++
		} else {
			c.ackedFrames++
			c.ackedEvents += n
		}
	}
	c.cond.Broadcast()
}

func (c *Client) readLoop() {
	defer close(c.readerDone)
	r := wire.NewReader(c.nc, c.opts.MaxFrame)
	if err := r.Preamble(); err != nil {
		c.fail(err)
		return
	}
	for {
		typ, err := r.Next()
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		switch typ {
		case wire.FrameCredit:
			id, window, sl, code, msg := r.U32(), r.U32(), r.Slack(), r.U8(), r.String()
			if err := r.Done(); err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			if st := c.byID[id]; st != nil && !st.bound {
				if code != 0 {
					st.refused = msg
					if st.refused == "" {
						st.refused = "refused"
					}
				} else {
					// Using less credit than granted is always safe, and
					// bounds what a peer's Credit can make us allocate.
					st.window = int(min(window, maxWindow))
					st.inflight = make([]int, st.window)
					st.slack = sl
					st.bound = true
				}
			}
			c.cond.Broadcast()
			c.mu.Unlock()
		case wire.FrameAck:
			id, through := r.U32(), r.U64()
			if err := r.Done(); err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			if st := c.byID[id]; st != nil {
				c.settle(st, through, false, 0)
			}
			c.mu.Unlock()
		case wire.FrameNack:
			id, through, code, retry := r.U32(), r.U64(), r.U8(), r.Dur()
			if err := r.Done(); err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			if st := c.byID[id]; st != nil {
				c.settle(st, through, true, code)
				if retry > 0 {
					st.backoffUntil = time.Now().Add(vtime.Std(retry))
					st.backoffCode = code
				}
			}
			c.mu.Unlock()
		case wire.FrameGoodbye:
			if err := r.Done(); err != nil {
				c.fail(err)
				return
			}
			c.fail(fmt.Errorf("%w: server said goodbye", ErrClosed))
			return
		default:
			c.fail(fmt.Errorf("%w: unexpected frame type %d from server", wire.ErrMalformed, typ))
			return
		}
	}
}

// waitLocked blocks on the condition variable with a wakeup no later
// than deadline. Caller holds c.mu; returns with it held.
func (c *Client) waitLocked(deadline time.Time) {
	d := time.Until(deadline)
	if d <= 0 {
		d = time.Millisecond
	}
	t := time.AfterFunc(d, c.cond.Broadcast)
	c.cond.Wait()
	t.Stop()
}

// stream returns the bound stream for (job, src), lazily Binding it.
// Caller holds wmu; the Credit wait holds only mu.
func (c *Client) stream(job string, src int) (*cstream, error) {
	k := streamKey{job, src}
	c.mu.Lock()
	st := c.streams[k]
	if st == nil {
		c.nextID++
		st = &cstream{id: c.nextID}
		c.streams[k] = st
		c.byID[st.id] = st
		c.mu.Unlock()
		if err := c.w.Bind(st.id, src, job); err != nil {
			c.fail(err)
			return nil, fmt.Errorf("%w: %v", ErrClosed, err)
		}
		// The Credit wait below makes no progress until the server sees
		// this Bind — push it out immediately.
		if err := c.flushWire(); err != nil {
			return nil, err
		}
		c.mu.Lock()
	}
	deadline := time.Now().Add(c.opts.BindTimeout)
	for !st.bound && st.refused == "" && c.readErr == nil {
		if time.Now().After(deadline) {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: no credit for %s/%d within %v",
				ErrBindRefused, job, src, c.opts.BindTimeout)
		}
		c.waitLocked(deadline)
	}
	switch {
	case st.refused != "":
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%d: %s", ErrBindRefused, job, src, st.refused)
	case c.readErr != nil:
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Unlock()
	return st, nil
}

// overloadErr maps the stream's last Nack code to the engine error the
// in-process TryIngestBatch would have returned.
func overloadErr(code uint8, what string) error {
	switch code {
	case wire.NackPaused:
		return fmt.Errorf("client: %s: %w", what, runtime.ErrJobPaused)
	case wire.NackJobOverloaded:
		return fmt.Errorf("client: %s: %w", what, runtime.ErrJobOverloaded)
	default:
		return fmt.Errorf("client: %s: %w", what, runtime.ErrOverloaded)
	}
}

// send is the shared ingest path. Blocking mode waits out a full credit
// window and any Nack backoff; try mode converts both to typed errors.
func (c *Client) send(job string, src int, b *dataflow.Batch, p vtime.Time, try bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	st, err := c.stream(job, src)
	if err != nil {
		return err
	}
	c.mu.Lock()
	var now time.Time
	for {
		if c.readErr != nil || c.closing {
			err := c.readErr
			c.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return err
		}
		now = time.Now()
		if now.Before(st.backoffUntil) {
			if try {
				code := st.backoffCode
				c.mu.Unlock()
				return overloadErr(code, "in retry-after backoff")
			}
			deadline := st.backoffUntil
			// Flush before waiting: earlier frames still sitting in the
			// write buffer are what the acks we wait on would settle.
			c.mu.Unlock()
			c.flushWire()
			c.mu.Lock()
			c.waitLocked(deadline)
			continue
		}
		if st.pending() >= st.window {
			// Flush before refusing or waiting: frames of a spent window
			// still in the write buffer are what the acks that reopen it
			// would settle — holding them is pure stall.
			c.mu.Unlock()
			c.flushWire()
			if try {
				return overloadErr(wire.NackOverloaded, "credit window full")
			}
			c.mu.Lock()
			if st.pending() >= st.window && c.readErr == nil && !c.closing {
				c.waitLocked(time.Now().Add(time.Second))
			}
			continue
		}
		break
	}
	n := 0
	if b != nil {
		n = b.Len()
	}
	seq := st.push(n)
	// An Advance always moves the frontier; an Events frame does when it
	// enters a later window than the stream's progress so far.
	frontier := b == nil || st.slack.Advances(st.progress, p)
	if p > st.progress {
		st.progress = p
	}
	c.sentFrames++
	c.sentEvents += int64(n)
	c.mu.Unlock()
	if b != nil {
		err = c.w.Events(st.id, seq, p, b)
	} else {
		err = c.w.Advance(st.id, seq, p)
	}
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	if frontier {
		// It closes a window: on its way now, and everything written
		// before it with it.
		return c.flushWire()
	}
	// Nothing downstream can fire on it before the next frontier frame,
	// which will push it out; until then it may wait for company — for
	// half its stream's hold bound. This is the edge's only hold: the
	// server coalesces what one read delivers and flushes it before it
	// waits on the socket again, so what leaves here in one write is
	// what the server can merge into one ingest.
	c.timer.arm(now.Add(st.slack.Hold() / 2))
	return nil
}

// IngestBatch offers a batch on one source channel, blocking while the
// stream's credit window is full or a Nack backoff is in force. The
// batch is read, not consumed — the caller may reuse it after the call
// returns. A nil (or empty) batch is a pure watermark, like
// cameo.Engine.AdvanceProgress.
func (c *Client) IngestBatch(job string, src int, b *dataflow.Batch, progress vtime.Time) error {
	if b != nil && b.Len() == 0 {
		b = nil
	}
	return c.send(job, src, b, progress, false)
}

// TryIngestBatch is the non-blocking variant: when the credit window is
// full or a Nack backoff is in force it refuses immediately with an
// error wrapping runtime.ErrOverloaded / ErrJobOverloaded / ErrJobPaused
// (matching the in-process TryIngestBatch contract), sending nothing.
func (c *Client) TryIngestBatch(job string, src int, b *dataflow.Batch, progress vtime.Time) error {
	if b != nil && b.Len() == 0 {
		b = nil
	}
	return c.send(job, src, b, progress, true)
}

// Advance sends a data-less watermark on one source channel.
func (c *Client) Advance(job string, src int, progress vtime.Time) error {
	return c.send(job, src, nil, progress, false)
}

// Window reports the credit window granted to a bound (job, source)
// stream, or 0 if it is not bound.
func (c *Client) Window(job string, src int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.streams[streamKey{job, src}]; st != nil && st.bound {
		return st.window
	}
	return 0
}

// Flush waits until every sent frame is settled (acked or nacked) or the
// timeout expires, reporting whether all settled. It pushes out what the
// write buffer holds, with a Flush frame behind it; the server settles
// every stream of the connection before it waits on the socket again, so
// in health a settle costs one round trip however long the streams' hold
// bounds are.
func (c *Client) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	c.wmu.Lock()
	c.w.Flush()
	c.flushWire() // surfaces a failed write: bufio errors are sticky
	c.wmu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		pending := 0
		for _, st := range c.streams {
			pending += st.pending()
		}
		if pending == 0 {
			return true
		}
		if c.readErr != nil || time.Now().After(deadline) {
			return false
		}
		c.waitLocked(deadline)
	}
}

// Stats returns a snapshot of the send/settle ledger.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		SentFrames:   c.sentFrames,
		SentEvents:   c.sentEvents,
		AckedFrames:  c.ackedFrames,
		AckedEvents:  c.ackedEvents,
		NackedFrames: c.nackedFrames,
		NackedEvents: c.nackedEvents,
		NackedByCode: c.nackedByCode,
	}
}

// Err reports the sticky connection error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// Close announces Goodbye, waits briefly for the server's reply, and
// closes the connection. Call Flush first for a clean settle.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return nil
	}
	c.closing = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wmu.Lock()
	c.w.Goodbye()
	c.flushWire()
	c.wmu.Unlock()
	select {
	case <-c.readerDone:
	case <-time.After(time.Second):
	}
	return c.nc.Close()
}
