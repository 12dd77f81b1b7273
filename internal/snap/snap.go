// Package snap is the repo's one deterministic binary codec: fixed-width
// little-endian scalars and length-prefixed strings, so encoded bytes are
// a pure function of the values written (no maps, no reflection, no
// varints whose width depends on history).
//
// Snapshots (operator state, job checkpoints) wrap the body in a magic/
// version header and a CRC32 trailer, so torn or truncated files are
// rejected up front instead of half-restoring state. internal/wire encodes
// and decodes its frame bodies with the same Writer and Reader, header-less
// (NewBodyWriter, NewBodyReader), and does its own framing around them.
//
// Writers append; Readers carry a sticky error: the first failed read
// poisons every subsequent one, so decode code can read an entire section
// and check r.Err() once.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/cameo-stream/cameo/internal/vtime"
)

// Magic identifies a Cameo snapshot ("CAMS" little-endian).
const Magic uint32 = 0x534d4143

// Version is the current encoding version. Readers refuse snapshots with a
// different version — forward compatibility is handled by the caller
// keeping old decoders around, not by skipping unknown fields.
const Version uint32 = 1

// trailerLen is the CRC32 suffix length.
const trailerLen = 4

// headerLen is magic + version.
const headerLen = 8

// Writer accumulates an encoding. Use NewWriter for a snapshot or
// NewBodyWriter for a header-less body.
type Writer struct {
	buf    []byte
	header bool
}

// NewWriter returns a snapshot writer with the magic/version header
// stamped.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 512), header: true}
	w.Reset()
	return w
}

// NewBodyWriter returns a writer that stamps no header: its Body is
// exactly the values written.
func NewBodyWriter() *Writer { return &Writer{buf: make([]byte, 0, 512)} }

// Reset truncates the writer back to a fresh header (none for a body
// writer), reusing the buffer, so a writer kept across checkpoints or wire
// frames does not reallocate in steady state.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	if w.header {
		w.U32(Magic)
		w.U32(Version)
	}
}

// Body returns the bytes written since Reset, header included and no
// trailer. It does not copy: the slice is valid until the next write.
func (w *Writer) Body() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Time appends a vtime.Time.
func (w *Writer) Time(v vtime.Time) { w.I64(int64(v)) }

// Dur appends a vtime.Duration.
func (w *Writer) Dur(v vtime.Duration) { w.I64(int64(v)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes seals the snapshot: it returns the header+body with the CRC32
// trailer appended. The writer may keep being used afterwards only via
// Reset (Bytes does not copy; the caller owns persisting the result before
// the next Reset).
func (w *Writer) Bytes() []byte {
	sum := crc32.ChecksumIEEE(w.buf)
	return binary.LittleEndian.AppendUint32(w.buf, sum)
}

// errShort is wrapped by the error of a read past the end of a snapshot.
var errShort = errors.New("snap: truncated")

// Reader decodes an encoding produced by Writer. Reads never panic — the
// first failure sets a sticky error and every subsequent read returns
// zero values.
type Reader struct {
	buf   []byte
	pos   int
	err   error
	short error // wrapped by a short read's error
}

// NewReader validates data's envelope (length, magic, version, CRC32) and
// returns a reader positioned after the header. A torn, truncated, or
// corrupted snapshot fails here, before any state is touched.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("snap: truncated snapshot (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("snap: checksum mismatch (%08x != %08x): torn or corrupted snapshot", got, want)
	}
	if magic := binary.LittleEndian.Uint32(body); magic != Magic {
		return nil, fmt.Errorf("snap: bad magic %08x", magic)
	}
	if ver := binary.LittleEndian.Uint32(body[4:]); ver != Version {
		return nil, fmt.Errorf("snap: unsupported snapshot version %d (want %d)", ver, Version)
	}
	return &Reader{buf: body, pos: headerLen, short: errShort}, nil
}

// NewBodyReader returns a reader over a header-less body, with no envelope
// to check. A read past the end of the body fails with an error wrapping
// short, so a caller can report it in its own error vocabulary.
func NewBodyReader(body []byte, short error) *Reader {
	return &Reader{buf: body, short: short}
}

// Reset points the reader at a new header-less body and clears its error.
func (r *Reader) Reset(body []byte) {
	r.buf, r.pos, r.err = body, 0, nil
}

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Fail records err as the sticky error unless one is already set, and
// returns the sticky error.
func (r *Reader) Fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

// Take returns the next n bytes, a view into the body, or nil (with the
// sticky error set) if fewer than n are left; what names the value in the
// error.
func (r *Reader) Take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.pos {
		r.Fail(fmt.Errorf("%w: short %s at offset %d", r.short, what, r.pos))
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.Take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.Take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.Take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Time reads a vtime.Time.
func (r *Reader) Time() vtime.Time { return vtime.Time(r.I64()) }

// Dur reads a vtime.Duration.
func (r *Reader) Dur() vtime.Duration { return vtime.Duration(r.I64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	return string(r.Take(int(r.U32()), "string"))
}
