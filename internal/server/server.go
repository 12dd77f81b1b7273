// Package server is the engine side of the networked ingest tier: a TCP
// listener speaking the internal/wire protocol, turning each connection's
// frame stream into pooled, coalesced TryIngest calls against one
// runtime.Engine.
//
// The design goal is that the steady-state cost of a frame is its decode,
// nothing else: one reader goroutine per connection decodes Events frames
// straight into a batch leased from the engine's batch pool (no
// per-frame allocation — the alloc gate pins it), and consecutive frames
// on one stream coalesce into that batch until a flush fires, so the
// engine sees connection-scale batches rather than wire-scale ones.
//
// Flushes follow what the frame can trigger and what the socket has
// delivered, never a clock. A frontier-advancing frame — one that moves its
// stream into a later window of the job's first windowed stage (wire.Slack,
// read from the job at Bind and granted in Credit) — is the only kind that
// makes that stage emit output, so it is never held: whatever is buffered
// is flushed under its own, older progress, then the frame follows at
// once. A coalesced batch therefore never straddles a window end, and
// never announces progress past its oldest event's window. Every other
// frame waits only for company already read: the buffer is flushed when it
// reaches dataflow.MaxCoalesce tuples, the engine's own merge cap, or when
// the read loop is about to wait — the moment its read buffer holds no
// whole next frame, every held batch and every buffered verdict goes out.
// A client that has spent its credit window stops writing, so the socket
// drains and that edge flushes; nothing waits behind a read that can block.
//
// Flow control is credit-based and admission-derived: a stream's Bind is
// answered with a credit window sized from its job's pending-message
// budget (budget / stage-0 parallelism, clamped), so a well-behaved
// client can never have more unacknowledged frames in flight than its
// tenant's share of the engine's admission budget. When the admission
// layer refuses a coalesced flush, the refusal maps to a typed Nack
// (overloaded / job-overloaded / paused) carrying a retry-after hint, and
// the leased batch returns to the pool — the wire tier never sheds
// silently and never double-ingests.
//
// Framing errors are terminal: a torn, corrupted, or malformed frame
// tears the connection down, returning any buffered batches to the pool
// un-ingested. Everything admitted into the engine came from a frame that
// passed its CRC.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/wire"
)

// Defaults for Config's zero values.
const (
	// DefaultWindow is the credit window for jobs without a pending
	// budget to derive one from.
	DefaultWindow = 256
	// DefaultMaxStreams bounds the streams one connection may bind.
	DefaultMaxStreams = 1024
	// maxWindow caps the budget-derived credit window.
	maxWindow = 1024
)

// Config parameterizes a Server.
type Config struct {
	// MaxFrame bounds one wire frame's body (default wire.DefaultMaxFrame).
	MaxFrame int
	// Window is the credit window granted to streams whose job has no
	// pending budget (default DefaultWindow).
	Window int
	// MaxStreams bounds the streams one connection may bind (default
	// DefaultMaxStreams).
	MaxStreams int
}

func (c Config) withDefaults() Config {
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = DefaultMaxStreams
	}
	return c
}

// WireStats is a snapshot of the server's wire-level ledger. The
// reconciliation invariant the tests pin: every tuple that arrived in a
// valid Events frame is either flushed into the engine (FlushedEvents,
// where it is counted by the job's PerSource Accepted) or refused with a
// Nack (NackedEvents, matching PerSource Rejected refusals one flush at a
// time) or still buffered (BufferedEvents) — never silently dropped.
type WireStats struct {
	// Conns is the number of connections accepted so far.
	Conns int64
	// Frames counts valid frames decoded; Events counts tuples decoded
	// from Events frames.
	Frames, Events int64
	// Flushes counts TryIngest attempts; FlushedEvents the tuples they
	// admitted. NackedFlushes counts refused attempts (each one Nack
	// frame and one per-source Rejected count); NackedEvents the tuples
	// refused with them.
	Flushes, FlushedEvents, NackedFlushes, NackedEvents int64
	// BufferedEvents is the current coalesce backlog across all streams:
	// non-zero only while a reader still has a whole frame to process.
	BufferedEvents int64
	// ProtocolErrors counts connections torn down for framing errors.
	ProtocolErrors int64
}

// Server accepts wire-protocol connections and feeds one runtime.Engine.
type Server struct {
	eng *runtime.Engine
	cfg Config

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup

	conntotal, frames, events                           atomic.Int64
	flushes, flushedEvents, nackedFlushes, nackedEvents atomic.Int64
	buffered, protoErrs                                 atomic.Int64
}

// New returns a Server feeding eng. Call Listen to start accepting.
func New(eng *runtime.Engine, cfg Config) *Server {
	return &Server{eng: eng, cfg: cfg.withDefaults(), conns: make(map[*conn]struct{})}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts the accept loop in
// the background, returning the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// Stats returns a snapshot of the wire-level ledger.
func (s *Server) Stats() WireStats {
	return WireStats{
		Conns:          s.conntotal.Load(),
		Frames:         s.frames.Load(),
		Events:         s.events.Load(),
		Flushes:        s.flushes.Load(),
		FlushedEvents:  s.flushedEvents.Load(),
		NackedFlushes:  s.nackedFlushes.Load(),
		NackedEvents:   s.nackedEvents.Load(),
		BufferedEvents: s.buffered.Load(),
		ProtocolErrors: s.protoErrs.Load(),
	}
}

// Shutdown stops accepting, flushes every connection's buffered batches
// into the engine, announces Goodbye, and closes all connections. It
// waits up to timeout for connection goroutines to exit and reports
// whether they all did. The engine itself is left running — drain and
// stop it separately.
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.shutdown()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReaderSize(nc, 32<<10)
		bw := bufio.NewWriterSize(nc, 16<<10)
		c := &conn{
			s:       s,
			nc:      nc,
			br:      br,
			r:       wire.NewReader(br, s.cfg.MaxFrame),
			bw:      bw,
			w:       wire.NewWriter(bw),
			streams: make(map[uint32]*stream),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.conntotal.Add(1)
		s.wg.Add(1)
		go c.run()
	}
}

// stream is one bound (job, source) ingest stream and its coalesce state.
type stream struct {
	id    uint32
	job   string
	src   int
	slack wire.Slack

	progress vtime.Time      // highest progress announced so far
	pend     *dataflow.Batch // leased coalesce buffer, nil when empty
	pendSeq  uint64          // highest buffered frame sequence
}

type conn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader // reader-goroutine only
	r  *wire.Reader

	// Acks, Nacks, and Credit grants accumulate in bw and are flushed
	// whenever the read loop is about to wait — while a client streams
	// flat out, its acks batch into connection-scale writes; the moment
	// the pipe idles, everything pending goes out.
	wmu sync.Mutex // serializes w, bw, and their underlying writes
	bw  *bufio.Writer
	w   *wire.Writer

	mu      sync.Mutex // guards streams and their buffers
	streams map[uint32]*stream
}

func (c *conn) run() {
	defer c.s.wg.Done()
	defer c.finish()
	c.wmu.Lock()
	err := c.w.Preamble()
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		return
	}
	if err := c.r.Preamble(); err != nil {
		c.s.protoErrs.Add(1)
		return
	}
	for {
		// The wait edge: unless a whole next frame is already read, the
		// next read may block, and a replying peer may be waiting on
		// what is held before it sends anything further.
		if !c.frameBuffered() {
			c.flushAll()
			c.flushWire()
		}
		typ, err := c.r.Next()
		if err != nil {
			// A clean EOF at a frame boundary finds nothing buffered: the
			// wait edge flushed it. Any other error is lost framing — drop
			// the buffers un-ingested.
			if !errors.Is(err, io.EOF) {
				c.s.protoErrs.Add(1)
			}
			c.discardAll()
			return
		}
		var herr error
		switch typ {
		case wire.FrameBind:
			herr = c.handleBind()
		case wire.FrameEvents:
			herr = c.handleEvents()
		case wire.FrameAdvance:
			herr = c.handleAdvance()
		case wire.FrameFlush:
			herr = c.r.Done() // the wait edge settles every stream
		case wire.FrameGoodbye:
			if herr = c.r.Done(); herr == nil {
				c.flushAll()
				c.wmu.Lock()
				c.w.Goodbye()
				c.wmu.Unlock()
				return
			}
		default:
			// Server-bound directions never carry Credit/Ack/Nack.
			herr = fmt.Errorf("%w: unexpected frame type %d from client", wire.ErrMalformed, typ)
		}
		if herr != nil {
			c.s.protoErrs.Add(1)
			c.discardAll()
			return
		}
		c.s.frames.Add(1)
	}
}

// flushWire pushes buffered replies to the socket.
func (c *conn) flushWire() {
	c.wmu.Lock()
	if c.bw.Buffered() > 0 {
		c.bw.Flush() // best-effort: a dead conn surfaces on the read side
	}
	c.wmu.Unlock()
}

// frameBuffered reports whether the read buffer holds one whole next frame
// — length, body, CRC — so decoding it cannot block. A frame larger than
// the read buffer never does.
func (c *conn) frameBuffered() bool {
	n := c.br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := c.br.Peek(4)
	return int64(binary.LittleEndian.Uint32(hdr))+8 <= int64(n)
}

// finish closes the connection and unregisters it. The reader has emptied
// every buffer on its way out.
func (c *conn) finish() {
	c.flushWire()
	c.nc.Close()
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
}

// shutdown is the server-initiated close: flush, say Goodbye, close.
func (c *conn) shutdown() {
	c.flushAll()
	c.wmu.Lock()
	c.w.Goodbye()
	c.bw.Flush()
	c.wmu.Unlock()
	c.nc.Close() // unblocks the reader; finish() completes teardown
}

func (c *conn) handleBind() error {
	id := c.r.U32()
	src := int(c.r.U32())
	job := c.r.String()
	if err := c.r.Done(); err != nil {
		return err
	}
	refuse := func(msg string) error {
		c.wmu.Lock()
		defer c.wmu.Unlock()
		return c.w.Credit(id, 0, wire.Slack{}, wire.NackBadStream, msg)
	}
	sources, stage0, err := c.s.eng.JobShape(job)
	if err != nil {
		return refuse(fmt.Sprintf("unknown job %q", job))
	}
	if src < 0 || src >= sources {
		return refuse(fmt.Sprintf("source %d out of range for job %q (%d sources)", src, job, sources))
	}
	c.mu.Lock()
	if _, dup := c.streams[id]; dup {
		c.mu.Unlock()
		return refuse(fmt.Sprintf("stream %d already bound", id))
	}
	if len(c.streams) >= c.s.cfg.MaxStreams {
		c.mu.Unlock()
		return refuse("too many streams on connection")
	}
	window := c.s.cfg.Window
	if budget, err := c.s.eng.JobBudget(job); err == nil && budget > 0 && stage0 > 0 {
		// The tenant's share of its own admission budget: with window
		// frames unacknowledged, a full coalesce flush cannot exceed the
		// job's pending allowance per stage-0 operator.
		w := budget / int64(stage0)
		if w < 1 {
			w = 1
		}
		if w > maxWindow {
			w = maxWindow
		}
		window = int(w)
	}
	// The stream's scheduling context, read once: what the engine derives
	// priorities from, the wire tier derives flushes from.
	var sl wire.Slack
	sl.Latency, sl.Slide, _ = c.s.eng.JobSlack(job)
	c.streams[id] = &stream{id: id, job: job, src: src, slack: sl}
	c.mu.Unlock()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.Credit(id, uint32(window), sl, 0, "")
}

func (c *conn) handleEvents() error {
	h, err := c.r.EventsHead()
	if err != nil {
		return err
	}
	c.mu.Lock()
	st := c.streams[h.Stream]
	if st == nil {
		// Structurally valid frame on an unbound stream: decode (the frame
		// boundary must be consumed) into a scratch lease, refuse, carry on.
		b := c.s.eng.LeaseBatch(h.Count)
		err := c.r.EventsInto(h, b)
		c.s.eng.ReturnBatch(b)
		c.mu.Unlock()
		if err != nil {
			return err
		}
		c.wmu.Lock()
		defer c.wmu.Unlock()
		return c.w.Nack(h.Stream, h.Seq, wire.NackBadStream, 0)
	}
	frontier := st.slack.Advances(st.progress, h.Progress)
	if frontier {
		// What is buffered belongs to the window this frame closes: it goes
		// in first, under the progress it was sent with.
		c.flushLocked(st)
	}
	if st.pend == nil {
		st.pend = c.s.eng.LeaseBatch(max(h.Count, dataflow.MaxCoalesce))
	}
	if err := c.r.EventsInto(h, st.pend); err != nil {
		// Partially appended columns die with the connection: the buffer
		// goes back to the pool in discardAll, never into the engine.
		c.mu.Unlock()
		return err
	}
	st.pendSeq = h.Seq
	if h.Progress > st.progress {
		st.progress = h.Progress
	}
	c.s.events.Add(int64(h.Count))
	c.s.buffered.Add(int64(h.Count))
	if frontier || st.pend.Len() >= dataflow.MaxCoalesce {
		// Window-closing or full: waiting longer buys nothing.
		c.flushLocked(st)
	}
	c.mu.Unlock()
	return nil
}

func (c *conn) handleAdvance() error {
	id := c.r.U32()
	seq := c.r.U64()
	p := c.r.Time()
	if err := c.r.Done(); err != nil {
		return err
	}
	c.mu.Lock()
	st := c.streams[id]
	if st == nil {
		c.mu.Unlock()
		c.wmu.Lock()
		defer c.wmu.Unlock()
		return c.w.Nack(id, seq, wire.NackBadStream, 0)
	}
	// Flush buffered events first so the watermark cannot overtake them.
	c.flushLocked(st)
	if p > st.progress {
		st.progress = p
	}
	job, src, hold := st.job, st.src, st.slack.Hold()
	c.mu.Unlock()
	// Watermarks are exempt from admission budgets; only a paused job
	// refuses one.
	err := c.s.eng.Ingest(job, src, nil, p)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err != nil {
		code, retry := nackFor(err, hold)
		return c.w.Nack(id, seq, code, retry)
	}
	return c.w.Ack(id, seq)
}

// flushLocked hands st's coalesced batch to the engine and reports the
// outcome on the wire: one Ack or one Nack covering every buffered frame
// cumulatively. Caller holds c.mu.
func (c *conn) flushLocked(st *stream) {
	b := st.pend
	if b == nil {
		return
	}
	n := b.Len()
	seq := st.pendSeq
	st.pend = nil
	c.s.flushes.Add(1)
	c.s.buffered.Add(int64(-n))
	err := c.s.eng.TryIngest(st.job, st.src, b, st.progress)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err == nil {
		c.s.flushedEvents.Add(int64(n))
		c.w.Ack(st.id, seq)
		return
	}
	// Refused batches are never consumed by the engine: reclaim the lease
	// and tell the client exactly which frames to retry.
	c.s.eng.ReturnBatch(b)
	c.s.nackedFlushes.Add(1)
	c.s.nackedEvents.Add(int64(n))
	code, retry := nackFor(err, st.slack.Hold())
	c.w.Nack(st.id, seq, code, retry)
}

// nackFor maps an admission refusal to its wire code and retry-after
// hint: the stream's hold bound (wire.Slack.Hold), twice the longest the
// client lets a retried frame wait for company anyway. ErrJobOverloaded
// wraps ErrOverloaded, so it must match first.
func nackFor(err error, hold time.Duration) (uint8, vtime.Duration) {
	overloadRetry := vtime.FromStd(hold)
	switch {
	case errors.Is(err, runtime.ErrJobPaused):
		return wire.NackPaused, 5 * overloadRetry
	case errors.Is(err, runtime.ErrJobOverloaded):
		return wire.NackJobOverloaded, overloadRetry
	case errors.Is(err, runtime.ErrOverloaded):
		return wire.NackOverloaded, overloadRetry
	default:
		return wire.NackInternal, overloadRetry
	}
}

// flushAll flushes every stream's buffered batch (orderly close).
func (c *conn) flushAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.streams {
		c.flushLocked(st)
	}
}

// discardAll returns every buffered batch to the pool un-ingested
// (framing lost — nothing unverified may reach the engine).
func (c *conn) discardAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.streams {
		if st.pend != nil {
			c.s.buffered.Add(int64(-st.pend.Len()))
			c.s.eng.ReturnBatch(st.pend)
			st.pend = nil
		}
	}
}
