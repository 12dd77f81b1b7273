// Package wire is the streaming frame codec of the networked ingest tier:
// a length-prefixed, CRC-framed binary protocol over a byte stream,
// carrying per-tenant event batches, progress advances, and flow-control
// frames between internal/client and internal/server.
//
// Frame bodies are encoded and decoded by internal/snap's header-less
// Writer and Reader — fixed-width little-endian scalars, length-prefixed
// strings, a sticky-error reader — and this package adds the framing: a
// magic/version preamble, a length prefix and a CRC32 trailer per frame.
// A frame's bytes are a pure function of the values written, and a torn,
// truncated, or bit-flipped frame is rejected as a typed error before any
// of it reaches the engine. Decode errors are terminal for the stream:
// the first failure poisons every subsequent read (the transport has lost
// framing; the only safe response is connection teardown).
//
// Stream layout:
//
//	preamble: magic u32 ("CAMW") | version u32        (once per direction)
//	frame:    len u32 | body (len bytes) | crc32(body) u32
//	body:     type u8 | payload
//
// Frame payloads (all scalars little-endian):
//
//	Bind    c→s  stream u32 | source u32 | job string     (open a stream)
//	Events  c→s  stream u32 | seq u64 | progress i64 |
//	             flags u8 | count u32 | times i64×count |
//	             [keys i64×count] | [vals f64×count]
//	Advance c→s  stream u32 | seq u64 | progress i64      (watermark)
//	Credit  s→c  stream u32 | window u32 | latency i64 | slide i64 |
//	             code u8 | msg string                     (bind answer)
//	Ack     s→c  stream u32 | through u64                 (cumulative)
//	Nack    s→c  stream u32 | through u64 | code u8 | retry_after i64
//	Goodbye  ↔   (empty)
//	Flush   c→s  (empty)                (flush every stream, send verdicts)
//
// The Writer assembles each frame in one reused buffer and hands it to the
// underlying io.Writer as a single Write; the Reader decodes into one
// reused buffer sized by the configured frame limit. Neither allocates on
// the steady-state Events path.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// Magic identifies the Cameo wire protocol ("CAMW" little-endian).
const Magic uint32 = 0x574d4143

// Version is the current protocol version. Readers refuse peers speaking a
// different version at the preamble, before any frame is interpreted.
// Version 2 widened Credit with the stream's Slack and added Flush.
const Version uint32 = 2

// DefaultMaxFrame bounds one frame's body (type byte + payload): 1 MiB
// holds a ~43k-tuple fully-columnar batch, far beyond any sane coalesce
// window, while keeping a hostile or corrupted length prefix from
// committing the reader to an arbitrary allocation.
const DefaultMaxFrame = 1 << 20

// Frame types. The numeric values are wire format — never renumber.
const (
	// FrameBind opens a client stream: (stream id, source, job name).
	// The server answers with a Credit frame carrying the stream's
	// flow-control window (or a refusal code).
	FrameBind byte = 1
	// FrameEvents carries one columnar event batch on a bound stream.
	FrameEvents byte = 2
	// FrameAdvance is a data-less watermark: progress only.
	FrameAdvance byte = 3
	// FrameCredit is the server's bind acknowledgement: the stream's
	// credit window (max unacknowledged frames) and its Slack, or a
	// refusal.
	FrameCredit byte = 4
	// FrameAck cumulatively acknowledges every frame up to a sequence
	// number: the events were admitted into the engine.
	FrameAck byte = 5
	// FrameNack cumulatively rejects every unacknowledged frame up to a
	// sequence number — the admission layer refused the coalesced batch —
	// with a reason code and a retry-after hint in microseconds.
	FrameNack byte = 6
	// FrameGoodbye announces an orderly close in either direction.
	FrameGoodbye byte = 7
	// FrameFlush asks the server to flush every stream of the connection
	// now and write the verdicts: an explicit settle costs one round trip
	// whatever the streams' slack.
	FrameFlush byte = 8
)

// frameTypeMax is the highest assigned frame type; Next rejects anything
// above it up front so an unknown type is a typed error, not a payload
// misinterpretation.
const frameTypeMax = FrameFlush

// Events flags (bitmask).
const (
	// FlagKeys marks the keys column present.
	FlagKeys uint8 = 1 << 0
	// FlagVals marks the vals column present.
	FlagVals uint8 = 1 << 1
)

// Nack reason codes. The numeric values are wire format — never renumber.
const (
	// NackOverloaded: the engine-wide pending budget refused the batch.
	NackOverloaded uint8 = 1
	// NackJobOverloaded: the stream's own job budget refused the batch.
	NackJobOverloaded uint8 = 2
	// NackPaused: the job is paused or quarantined.
	NackPaused uint8 = 3
	// NackBadStream: the frame referenced a stream that was never bound.
	NackBadStream uint8 = 4
	// NackInternal: the engine refused the batch for another reason.
	NackInternal uint8 = 5
)

// Typed stream errors. All decode failures wrap one of these, so callers
// dispatch with errors.Is and surface the category in teardown logs.
var (
	// ErrBadMagic: the peer's preamble is not the Cameo wire protocol.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrBadVersion: the peer speaks an unsupported protocol version.
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	// ErrFrameTooLarge: a length prefix exceeded the configured frame
	// limit — hostile input or lost framing; tear the connection down.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrChecksum: the frame body does not match its CRC32 trailer.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrTruncated: the stream ended mid-frame (torn write, dropped peer).
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrUnknownFrame: an unassigned frame type byte.
	ErrUnknownFrame = errors.New("wire: unknown frame type")
	// ErrMalformed: a structurally invalid payload (bad count, trailing
	// bytes, column length mismatch, a value running past the frame).
	ErrMalformed = errors.New("wire: malformed frame")
)

// Writer assembles and emits frames. Each frame is built in one reused
// buffer — length prefix, body, CRC trailer — and written with a single
// Write call, so a frame is never interleaved with another writer's bytes
// as long as callers serialize access (the Writer itself is not
// synchronized). The steady-state Events path does not allocate once the
// buffer has grown to the workload's frame size.
type Writer struct {
	w   io.Writer
	enc *snap.Writer
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, enc: snap.NewBodyWriter()}
}

// Preamble emits the magic/version header. Each direction sends it once,
// immediately after connecting.
func (w *Writer) Preamble() error {
	w.enc.Reset()
	w.enc.U32(Magic)
	w.enc.U32(Version)
	_, err := w.w.Write(w.enc.Body())
	return err
}

// begin starts a frame — length placeholder plus the type byte — and
// returns the encoder for its payload.
func (w *Writer) begin(typ byte) *snap.Writer {
	w.enc.Reset()
	w.enc.U32(0)
	w.enc.U8(typ)
	return w.enc
}

// finish stamps the length prefix, appends the CRC32 trailer, and writes
// the whole frame in one call.
func (w *Writer) finish() error {
	frame := w.enc.Body()
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	w.enc.U32(crc32.ChecksumIEEE(frame[4:]))
	_, err := w.w.Write(w.enc.Body())
	return err
}

// Bind emits a stream-open request: the client-chosen stream id, the job's
// source channel, and the job name. Sent once per stream; afterwards
// Events frames carry only the compact id, keeping job-name strings (and
// their per-frame allocation) off the hot path.
func (w *Writer) Bind(stream uint32, source int, job string) error {
	e := w.begin(FrameBind)
	e.U32(stream)
	e.U32(uint32(source))
	e.String(job)
	return w.finish()
}

// Events emits one event batch on a bound stream. The batch is read, not
// consumed: the caller still owns b afterwards. Column presence is
// encoded in flags; absent columns decode as zeros.
func (w *Writer) Events(stream uint32, seq uint64, progress vtime.Time, b *dataflow.Batch) error {
	e := w.begin(FrameEvents)
	e.U32(stream)
	e.U64(seq)
	e.Time(progress)
	var flags uint8
	if b.Keys != nil {
		flags |= FlagKeys
	}
	if b.Vals != nil {
		flags |= FlagVals
	}
	e.U8(flags)
	e.U32(uint32(b.Len()))
	for _, t := range b.Times {
		e.Time(t)
	}
	for _, k := range b.Keys {
		e.I64(k)
	}
	for _, v := range b.Vals {
		e.F64(v)
	}
	return w.finish()
}

// Advance emits a data-less watermark on a bound stream.
func (w *Writer) Advance(stream uint32, seq uint64, progress vtime.Time) error {
	e := w.begin(FrameAdvance)
	e.U32(stream)
	e.U64(seq)
	e.Time(progress)
	return w.finish()
}

// Credit emits the server's bind answer: the stream's credit window (the
// number of frames the client may have unacknowledged) and its Slack. A
// non-zero code refuses the bind; msg carries the human-readable reason.
func (w *Writer) Credit(stream, window uint32, sl Slack, code uint8, msg string) error {
	e := w.begin(FrameCredit)
	e.U32(stream)
	e.U32(window)
	e.Dur(sl.Latency)
	e.Dur(sl.Slide)
	e.U8(code)
	e.String(msg)
	return w.finish()
}

// Ack cumulatively acknowledges every frame on the stream with sequence
// number <= through.
func (w *Writer) Ack(stream uint32, through uint64) error {
	e := w.begin(FrameAck)
	e.U32(stream)
	e.U64(through)
	return w.finish()
}

// Nack cumulatively rejects every unacknowledged frame with sequence
// number <= through: the admission layer refused the coalesced events.
// retryAfter is the server's backoff hint.
func (w *Writer) Nack(stream uint32, through uint64, code uint8, retryAfter vtime.Duration) error {
	e := w.begin(FrameNack)
	e.U32(stream)
	e.U64(through)
	e.U8(code)
	e.Dur(retryAfter)
	return w.finish()
}

// Goodbye announces an orderly close.
func (w *Writer) Goodbye() error {
	w.begin(FrameGoodbye)
	return w.finish()
}

// Flush asks the server to flush every stream of this connection now.
func (w *Writer) Flush() error {
	w.begin(FrameFlush)
	return w.finish()
}

// Reader decodes a frame stream. Its getters (U8, U32, U64, I64, F64,
// Time, Dur, String) are snap's, reading the current frame's payload. The
// first failure — a short read, a bad checksum, an unknown type, a
// malformed payload — is sticky: every subsequent call returns the same
// error, so connection code can decode a whole frame and check once.
// Reads reuse one internal buffer; views into it are valid only until the
// next call to Next.
type Reader struct {
	snap.Reader // the current frame's payload, past the type byte
	r           io.Reader
	max         int
	hdr         [8]byte
	buf         []byte // current frame: body ++ crc trailer
}

// NewReader returns a Reader over r refusing frames larger than maxFrame
// (0 selects DefaultMaxFrame).
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{Reader: *snap.NewBodyReader(nil, ErrMalformed), r: r, max: maxFrame}
}

// Preamble reads and validates the peer's magic/version header.
func (r *Reader) Preamble() error {
	if err := r.Err(); err != nil {
		return err
	}
	if _, err := io.ReadFull(r.r, r.hdr[:8]); err != nil {
		return r.Fail(fmt.Errorf("%w: reading preamble: %v", ErrTruncated, err))
	}
	if m := binary.LittleEndian.Uint32(r.hdr[:4]); m != Magic {
		return r.Fail(fmt.Errorf("%w: %08x", ErrBadMagic, m))
	}
	if v := binary.LittleEndian.Uint32(r.hdr[4:8]); v != Version {
		return r.Fail(fmt.Errorf("%w: %d (want %d)", ErrBadVersion, v, Version))
	}
	return nil
}

// Next reads one frame envelope — length, body, CRC — validates it, and
// returns the frame type, positioning the getters at the start of the
// payload. A clean end of stream between frames returns io.EOF
// unwrapped; an end mid-frame is ErrTruncated. The previous frame's
// payload views are invalidated.
func (r *Reader) Next() (byte, error) {
	if err := r.Err(); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(r.r, r.hdr[:4]); err != nil {
		if err == io.EOF {
			return 0, r.Fail(io.EOF)
		}
		return 0, r.Fail(fmt.Errorf("%w: reading frame header: %v", ErrTruncated, err))
	}
	n := int(binary.LittleEndian.Uint32(r.hdr[:4]))
	if n < 1 {
		return 0, r.Fail(fmt.Errorf("%w: zero-length frame", ErrMalformed))
	}
	if n > r.max {
		return 0, r.Fail(fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, r.max))
	}
	if cap(r.buf) < n+4 {
		r.buf = make([]byte, n+4)
	}
	r.buf = r.buf[:n+4]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return 0, r.Fail(fmt.Errorf("%w: reading %d-byte frame: %v", ErrTruncated, n, err))
	}
	body := r.buf[:n]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(r.buf[n:]); got != want {
		return 0, r.Fail(fmt.Errorf("%w: %08x != %08x", ErrChecksum, got, want))
	}
	typ := body[0]
	if typ == 0 || typ > frameTypeMax {
		return 0, r.Fail(fmt.Errorf("%w: %d", ErrUnknownFrame, typ))
	}
	r.Reset(body[1:])
	return typ, nil
}

// Done checks that the current frame was fully consumed — trailing bytes
// mean the payload's structure disagreed with its length, which is as
// disqualifying as a short one — and returns the sticky error either way.
func (r *Reader) Done() error {
	if n := r.Remaining(); n != 0 && r.Err() == nil {
		return r.Fail(fmt.Errorf("%w: %d trailing bytes", ErrMalformed, n))
	}
	return r.Err()
}

// Slack reads a Credit frame's scheduling context.
func (r *Reader) Slack() Slack { return Slack{Latency: r.Dur(), Slide: r.Dur()} }

// EventsHead is the fixed-size prefix of an Events frame.
type EventsHead struct {
	Stream   uint32
	Seq      uint64
	Progress vtime.Time
	Flags    uint8
	Count    int
}

// EventsHead decodes an Events payload's header and validates the column
// geometry: the declared tuple count and column flags must account for the
// frame's remaining bytes exactly, so a hostile count can never over-read,
// under-read, or commit the caller to an oversized append.
func (r *Reader) EventsHead() (EventsHead, error) {
	h := EventsHead{Stream: r.U32(), Seq: r.U64(), Progress: r.Time(), Flags: r.U8()}
	count := r.U32()
	if err := r.Err(); err != nil {
		return h, err
	}
	width := 8 // times
	if h.Flags&FlagKeys != 0 {
		width += 8
	}
	if h.Flags&FlagVals != 0 {
		width += 8
	}
	if h.Flags&^(FlagKeys|FlagVals) != 0 {
		return h, r.Fail(fmt.Errorf("%w: unknown events flags %#x", ErrMalformed, h.Flags))
	}
	if int64(count)*int64(width) != int64(r.Remaining()) {
		return h, r.Fail(fmt.Errorf("%w: %d tuples × %d bytes != %d remaining",
			ErrMalformed, count, width, r.Remaining()))
	}
	h.Count = int(count)
	return h, nil
}

// EventsInto appends the current Events frame's columns into b (which must
// have room semantics of a fresh or pooled batch: columns are appended,
// not replaced). Absent columns decode as zeros so the batch stays fully
// columnar — the engine's pooled batches always carry all three columns.
// Call after EventsHead; allocation-free once b's columns have capacity.
func (r *Reader) EventsInto(h EventsHead, b *dataflow.Batch) error {
	times := r.Take(8*h.Count, "times column")
	if times == nil {
		return r.Err()
	}
	for i := 0; i < h.Count; i++ {
		b.Times = append(b.Times, vtime.Time(binary.LittleEndian.Uint64(times[8*i:])))
	}
	if h.Flags&FlagKeys != 0 {
		keys := r.Take(8*h.Count, "keys column")
		if keys == nil {
			return r.Err()
		}
		for i := 0; i < h.Count; i++ {
			b.Keys = append(b.Keys, int64(binary.LittleEndian.Uint64(keys[8*i:])))
		}
	} else {
		for i := 0; i < h.Count; i++ {
			b.Keys = append(b.Keys, 0)
		}
	}
	if h.Flags&FlagVals != 0 {
		vals := r.Take(8*h.Count, "vals column")
		if vals == nil {
			return r.Err()
		}
		for i := 0; i < h.Count; i++ {
			b.Vals = append(b.Vals, math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:])))
		}
	} else {
		for i := 0; i < h.Count; i++ {
			b.Vals = append(b.Vals, 0)
		}
	}
	return r.Done()
}
