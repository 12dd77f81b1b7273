package cameo

// The public serving tier: Engine.Serve puts the engine behind the
// streaming wire protocol of internal/wire, and Dial gives remote
// sources a client whose IngestBatch / TryIngestBatch / AdvanceProgress
// mirror the Engine methods of the same names — same signatures, same
// sentinel errors, same backpressure semantics — except the batch
// crosses a TCP connection, gets coalesced server-side into pool-leased
// batches — only with what the socket has already delivered, and never
// across the end of a query's window — and is flow-controlled by
// per-tenant credit windows derived from each query's MaxPending budget.
// cmd/cameo-serve is the standalone binary form; examples/serving is the
// two-tenant loopback quickstart.

import (
	"fmt"
	"time"

	"github.com/cameo-stream/cameo/internal/client"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/server"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// ServeConfig tunes the wire listener. The zero value is production
// defaults: 1 MiB frame bound, credit window 256 for unbudgeted jobs.
// Coalescing is not configured: consecutive frames of one (job, source)
// stream that arrived in the same socket read merge into one ingest of at
// most 64 tuples, a frame that closes a window is never held, and
// whatever is buffered goes into the engine before the server waits on
// the socket again.
type ServeConfig struct {
	// MaxFrame bounds one frame's body in bytes.
	MaxFrame int
	// Window is the credit window (unacked frames in flight per stream)
	// granted to jobs without a MaxPending budget; budgeted jobs get
	// MaxPending divided by their stage-0 parallelism instead.
	Window int
	// MaxStreams bounds how many streams one connection may bind.
	MaxStreams int
}

// WireStats is a snapshot of a Server's tuple ledger. Conservation
// invariant: Events == FlushedEvents + NackedEvents + BufferedEvents —
// every decoded tuple is admitted, refused with a Nack, or still
// coalescing; none are silently dropped.
type WireStats struct {
	Conns          int64 // connections accepted
	Frames         int64 // valid frames decoded
	Events         int64 // tuples decoded from Events frames
	Flushes        int64 // ingest attempts (coalesced batches)
	FlushedEvents  int64 // tuples admitted into the engine
	NackedFlushes  int64 // ingest attempts refused by admission
	NackedEvents   int64 // tuples refused with those Nacks
	BufferedEvents int64 // tuples coalescing: non-zero only while a reader still has a whole frame to process
	ProtocolErrors int64 // connections torn down for framing errors
}

// Server is a live wire listener in front of an Engine.
type Server struct {
	inner *server.Server
	addr  string
}

// Serve starts accepting wire-protocol connections for this engine on
// addr (e.g. ":9070" or "127.0.0.1:0"; the chosen port is in Addr).
// The engine must already have its queries submitted — a client Dial
// binds streams by query name — and should be Started; frames arriving
// before Start are admitted into the pending queues and execute once
// the workers run.
func (e *Engine) Serve(addr string, cfg ServeConfig) (*Server, error) {
	s := server.New(e.inner, server.Config{
		MaxFrame:   cfg.MaxFrame,
		Window:     cfg.Window,
		MaxStreams: cfg.MaxStreams,
	})
	a, err := s.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("cameo: serve %s: %w", addr, err)
	}
	return &Server{inner: s, addr: a.String()}, nil
}

// Addr is the listener's resolved address ("127.0.0.1:43817").
func (s *Server) Addr() string { return s.addr }

// WireStats snapshots the server's tuple ledger.
func (s *Server) WireStats() WireStats {
	st := s.inner.Stats()
	return WireStats{
		Conns:          st.Conns,
		Frames:         st.Frames,
		Events:         st.Events,
		Flushes:        st.Flushes,
		FlushedEvents:  st.FlushedEvents,
		NackedFlushes:  st.NackedFlushes,
		NackedEvents:   st.NackedEvents,
		BufferedEvents: st.BufferedEvents,
		ProtocolErrors: st.ProtocolErrors,
	}
}

// Shutdown stops accepting, flushes every connection's coalesce
// buffers into the engine, says Goodbye, and waits for the reader
// goroutines; it does not stop the engine (drain and Stop that
// separately). Returns false if connections did not wind down in time.
func (s *Server) Shutdown(timeout time.Duration) bool {
	return s.inner.Shutdown(timeout)
}

// DialOptions tunes a Client connection. The zero value uses 5s dial
// and bind timeouts and the default frame bound.
type DialOptions struct {
	MaxFrame    int
	DialTimeout time.Duration
	BindTimeout time.Duration
}

// ClientStats is a snapshot of a Client's frame/tuple ledger. Once
// Flush returns true, SentFrames == AckedFrames + NackedFrames (and
// likewise for events): every frame the client ever sent has a verdict.
type ClientStats struct {
	SentFrames   int64
	SentEvents   int64
	AckedFrames  int64
	AckedEvents  int64
	NackedFrames int64
	NackedEvents int64
}

// Client is a wire-protocol connection to a served Engine. It mirrors
// the Engine's ingest API: IngestBatch blocks on the stream's credit
// window and Nack retry-after backoff (wire backpressure), while
// TryIngestBatch refuses immediately with the same sentinel errors the
// local engine would return — ErrOverloaded, ErrJobOverloaded,
// ErrJobPaused — so source code is oblivious to which side of the
// socket the engine is on.
//
// A Client is safe for concurrent use. Acknowledgement is asynchronous:
// a nil return means the batch is on the wire inside the credit window,
// not yet that admission accepted it; call Flush to settle the tail and
// Stats to reconcile.
type Client struct {
	inner *client.Client
}

// Dial connects to a served Engine.
func Dial(addr string, opts DialOptions) (*Client, error) {
	c, err := client.Dial(addr, client.Options{
		MaxFrame:    opts.MaxFrame,
		DialTimeout: opts.DialTimeout,
		BindTimeout: opts.BindTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("cameo: dial %s: %w", addr, err)
	}
	return &Client{inner: c}, nil
}

// renderWireBatch converts public events into a columnar wire batch.
// (Client-side there is no engine pool to lease from; the wire writer
// reads the batch without consuming it, so this one allocation per call
// is the client's cost — the server side decodes into pooled batches.)
func renderWireBatch(events []Event) *dataflow.Batch {
	b := dataflow.NewBatch(len(events))
	for _, ev := range events {
		b.Append(vtime.FromStd(ev.Time), ev.Key, ev.Value)
	}
	return b
}

// IngestBatch sends one batch for (job, source), blocking while the
// stream's credit window is full or a Nack's retry-after backoff is in
// force — the remote form of OverloadBackpressure. Empty batches
// advance progress like Engine.IngestBatch.
func (c *Client) IngestBatch(job string, source int, events []Event, progress time.Duration) error {
	if len(events) == 0 {
		return c.inner.Advance(job, source, vtime.FromStd(progress))
	}
	return c.inner.IngestBatch(job, source, renderWireBatch(events), vtime.FromStd(progress))
}

// TryIngestBatch is the non-blocking form: a full credit window or an
// active retry-after backoff refuses immediately with ErrOverloaded /
// ErrJobOverloaded / ErrJobPaused (errors.Is-compatible), mirroring
// Engine.TryIngestBatch's admission verdicts.
func (c *Client) TryIngestBatch(job string, source int, events []Event, progress time.Duration) error {
	if len(events) == 0 {
		return c.inner.Advance(job, source, vtime.FromStd(progress))
	}
	return c.inner.TryIngestBatch(job, source, renderWireBatch(events), vtime.FromStd(progress))
}

// AdvanceProgress sends a data-free progress advance (watermark) for
// (job, source), exactly like Engine.AdvanceProgress.
func (c *Client) AdvanceProgress(job string, source int, progress time.Duration) error {
	return c.inner.Advance(job, source, vtime.FromStd(progress))
}

// Flush asks the server to flush this connection's coalesce buffers now
// and blocks until every in-flight frame has been acked or nacked (or
// timeout elapses; returns false then) — one round trip in health. After
// a true return the Stats ledger is settled.
func (c *Client) Flush(timeout time.Duration) bool { return c.inner.Flush(timeout) }

// Stats snapshots the client's send/ack/nack ledger.
func (c *Client) Stats() ClientStats {
	st := c.inner.Stats()
	return ClientStats{
		SentFrames:   st.SentFrames,
		SentEvents:   st.SentEvents,
		AckedFrames:  st.AckedFrames,
		AckedEvents:  st.AckedEvents,
		NackedFrames: st.NackedFrames,
		NackedEvents: st.NackedEvents,
	}
}

// Err reports the connection's terminal error, if it has failed.
func (c *Client) Err() error { return c.inner.Err() }

// Close says Goodbye and closes the connection. In-flight frames the
// server already decoded are still flushed server-side.
func (c *Client) Close() error { return c.inner.Close() }
