// Package wire is the streaming frame codec of the networked ingest tier:
// a length-prefixed, CRC-framed binary protocol over a byte stream,
// carrying per-tenant event batches, progress advances, and flow-control
// frames between internal/client and internal/server.
//
// It deliberately mirrors the internal/snap encoding idiom — fixed-width
// little-endian scalars, length-prefixed strings, a magic/version
// preamble, a CRC32 trailer per frame, and a sticky-error reader — so a
// frame's bytes are a pure function of the values written and a torn,
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
	// bytes, column length mismatch).
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
	buf []byte
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 512)}
}

// Preamble emits the magic/version header. Each direction sends it once,
// immediately after connecting.
func (w *Writer) Preamble() error {
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, Magic)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, Version)
	_, err := w.w.Write(w.buf)
	return err
}

// begin starts a frame: length placeholder plus the type byte.
func (w *Writer) begin(typ byte) {
	w.buf = append(w.buf[:0], 0, 0, 0, 0, typ)
}

// finish stamps the length prefix, appends the CRC32 trailer, and writes
// the whole frame in one call.
func (w *Writer) finish() error {
	body := w.buf[4:]
	binary.LittleEndian.PutUint32(w.buf[:4], uint32(len(body)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(body))
	_, err := w.w.Write(w.buf)
	return err
}

func (w *Writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *Writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bind emits a stream-open request: the client-chosen stream id, the job's
// source channel, and the job name. Sent once per stream; afterwards
// Events frames carry only the compact id, keeping job-name strings (and
// their per-frame allocation) off the hot path.
func (w *Writer) Bind(stream uint32, source int, job string) error {
	w.begin(FrameBind)
	w.u32(stream)
	w.u32(uint32(source))
	w.str(job)
	return w.finish()
}

// Events emits one event batch on a bound stream. The batch is read, not
// consumed: the caller still owns b afterwards. Column presence is
// encoded in flags; absent columns decode as zeros.
func (w *Writer) Events(stream uint32, seq uint64, progress vtime.Time, b *dataflow.Batch) error {
	w.begin(FrameEvents)
	w.u32(stream)
	w.u64(seq)
	w.i64(int64(progress))
	var flags uint8
	if b.Keys != nil {
		flags |= FlagKeys
	}
	if b.Vals != nil {
		flags |= FlagVals
	}
	w.u8(flags)
	n := b.Len()
	w.u32(uint32(n))
	for _, t := range b.Times {
		w.i64(int64(t))
	}
	if b.Keys != nil {
		for _, k := range b.Keys {
			w.i64(k)
		}
	}
	if b.Vals != nil {
		for _, v := range b.Vals {
			w.u64(math.Float64bits(v))
		}
	}
	return w.finish()
}

// Advance emits a data-less watermark on a bound stream.
func (w *Writer) Advance(stream uint32, seq uint64, progress vtime.Time) error {
	w.begin(FrameAdvance)
	w.u32(stream)
	w.u64(seq)
	w.i64(int64(progress))
	return w.finish()
}

// Credit emits the server's bind answer: the stream's credit window (the
// number of frames the client may have unacknowledged) and its Slack. A
// non-zero code refuses the bind; msg carries the human-readable reason.
func (w *Writer) Credit(stream, window uint32, sl Slack, code uint8, msg string) error {
	w.begin(FrameCredit)
	w.u32(stream)
	w.u32(window)
	w.i64(int64(sl.Latency))
	w.i64(int64(sl.Slide))
	w.u8(code)
	w.str(msg)
	return w.finish()
}

// Ack cumulatively acknowledges every frame on the stream with sequence
// number <= through.
func (w *Writer) Ack(stream uint32, through uint64) error {
	w.begin(FrameAck)
	w.u32(stream)
	w.u64(through)
	return w.finish()
}

// Nack cumulatively rejects every unacknowledged frame with sequence
// number <= through: the admission layer refused the coalesced events.
// retryAfter is the server's backoff hint.
func (w *Writer) Nack(stream uint32, through uint64, code uint8, retryAfter vtime.Duration) error {
	w.begin(FrameNack)
	w.u32(stream)
	w.u64(through)
	w.u8(code)
	w.i64(int64(retryAfter))
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

// Reader decodes a frame stream. The first failure — a short read, a bad
// checksum, an unknown type, a malformed payload — is sticky: every
// subsequent call returns the same error, so connection code can decode a
// whole frame with the snap-style typed getters and check once. Reads
// reuse one internal buffer; the getters return views into it that are
// valid only until the next call to Next.
type Reader struct {
	r    io.Reader
	max  int
	hdr  [8]byte
	buf  []byte // current frame: body ++ crc trailer
	body []byte // current frame body, past the type byte
	pos  int
	err  error
}

// NewReader returns a Reader over r refusing frames larger than maxFrame
// (0 selects DefaultMaxFrame).
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{r: r, max: maxFrame}
}

// Err returns the sticky stream error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

// Preamble reads and validates the peer's magic/version header.
func (r *Reader) Preamble() error {
	if r.err != nil {
		return r.err
	}
	if _, err := io.ReadFull(r.r, r.hdr[:8]); err != nil {
		return r.fail(fmt.Errorf("%w: reading preamble: %v", ErrTruncated, err))
	}
	if m := binary.LittleEndian.Uint32(r.hdr[:4]); m != Magic {
		return r.fail(fmt.Errorf("%w: %08x", ErrBadMagic, m))
	}
	if v := binary.LittleEndian.Uint32(r.hdr[4:8]); v != Version {
		return r.fail(fmt.Errorf("%w: %d (want %d)", ErrBadVersion, v, Version))
	}
	return nil
}

// Next reads one frame envelope — length, body, CRC — validates it, and
// returns the frame type, positioning the typed getters at the start of
// the payload. A clean end of stream between frames returns io.EOF
// unwrapped; an end mid-frame is ErrTruncated. The previous frame's
// payload views are invalidated.
func (r *Reader) Next() (byte, error) {
	if r.err != nil {
		return 0, r.err
	}
	if _, err := io.ReadFull(r.r, r.hdr[:4]); err != nil {
		if err == io.EOF {
			r.err = io.EOF
			return 0, io.EOF
		}
		return 0, r.fail(fmt.Errorf("%w: reading frame header: %v", ErrTruncated, err))
	}
	n := int(binary.LittleEndian.Uint32(r.hdr[:4]))
	if n < 1 {
		return 0, r.fail(fmt.Errorf("%w: zero-length frame", ErrMalformed))
	}
	if n > r.max {
		return 0, r.fail(fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, r.max))
	}
	if cap(r.buf) < n+4 {
		r.buf = make([]byte, n+4)
	}
	r.buf = r.buf[:n+4]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return 0, r.fail(fmt.Errorf("%w: reading %d-byte frame: %v", ErrTruncated, n, err))
	}
	body := r.buf[:n]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(r.buf[n:]); got != want {
		return 0, r.fail(fmt.Errorf("%w: %08x != %08x", ErrChecksum, got, want))
	}
	typ := body[0]
	if typ == 0 || typ > frameTypeMax {
		return 0, r.fail(fmt.Errorf("%w: %d", ErrUnknownFrame, typ))
	}
	r.body = body[1:]
	r.pos = 0
	return typ, nil
}

// Remaining reports the undecoded bytes left in the current frame.
func (r *Reader) Remaining() int { return len(r.body) - r.pos }

// Done checks that the current frame was fully consumed — trailing bytes
// mean the payload's structure disagreed with its length, which is as
// disqualifying as a short one — and returns the sticky error either way.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.body) {
		return r.fail(fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.body)-r.pos))
	}
	return nil
}

func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.body) {
		r.fail(fmt.Errorf("%w: short %s at offset %d", ErrMalformed, what, r.pos))
		return nil
	}
	b := r.body[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads one byte of the current frame.
func (r *Reader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Time reads a vtime.Time.
func (r *Reader) Time() vtime.Time { return vtime.Time(r.I64()) }

// Dur reads a vtime.Duration.
func (r *Reader) Dur() vtime.Duration { return vtime.Duration(r.I64()) }

// Slack reads a Credit frame's scheduling context.
func (r *Reader) Slack() Slack { return Slack{Latency: r.Dur(), Slide: r.Dur()} }

// String reads a length-prefixed string. It allocates; strings appear only
// on control frames (Bind, Credit), never the Events hot path.
func (r *Reader) String() string {
	n := int(r.U32())
	if r.err != nil {
		return ""
	}
	if n > r.Remaining() {
		r.fail(fmt.Errorf("%w: string length %d exceeds frame", ErrMalformed, n))
		return ""
	}
	return string(r.take(n, "string"))
}

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
	if r.err != nil {
		return h, r.err
	}
	width := 8 // times
	if h.Flags&FlagKeys != 0 {
		width += 8
	}
	if h.Flags&FlagVals != 0 {
		width += 8
	}
	if h.Flags&^(FlagKeys|FlagVals) != 0 {
		return h, r.fail(fmt.Errorf("%w: unknown events flags %#x", ErrMalformed, h.Flags))
	}
	if int64(count)*int64(width) != int64(r.Remaining()) {
		return h, r.fail(fmt.Errorf("%w: %d tuples × %d bytes != %d remaining",
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
	times := r.take(8*h.Count, "times column")
	if times == nil {
		return r.err
	}
	for i := 0; i < h.Count; i++ {
		b.Times = append(b.Times, vtime.Time(binary.LittleEndian.Uint64(times[8*i:])))
	}
	if h.Flags&FlagKeys != 0 {
		keys := r.take(8*h.Count, "keys column")
		if keys == nil {
			return r.err
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
		vals := r.take(8*h.Count, "vals column")
		if vals == nil {
			return r.err
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
