package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime/debug"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// stream renders one complete conversation — preamble plus every frame
// type — and returns the raw bytes; the fault-injection tests mutilate
// copies of it.
func stream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Preamble(); err != nil {
		t.Fatal(err)
	}
	b := dataflow.NewBatch(3)
	b.Append(100, 7, 1.5)
	b.Append(200, -3, 2.5)
	b.Append(300, 9, -0.25)
	steps := []error{
		w.Bind(1, 0, "tenant-a"),
		w.Credit(1, 64, Slack{Latency: 50 * vtime.Millisecond, Slide: 10 * vtime.Millisecond}, 0, ""),
		w.Events(1, 1, 350, b),
		w.Advance(1, 2, 400),
		w.Ack(1, 2),
		w.Nack(1, 3, NackOverloaded, 5*vtime.Millisecond),
		w.Flush(),
		w.Goodbye(),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := stream(t)
	r := NewReader(bytes.NewReader(data), 0)
	if err := r.Preamble(); err != nil {
		t.Fatal(err)
	}

	typ, err := r.Next()
	if err != nil || typ != FrameBind {
		t.Fatalf("frame 1: type %d err %v", typ, err)
	}
	if s, src, job := r.U32(), r.U32(), r.String(); s != 1 || src != 0 || job != "tenant-a" {
		t.Fatalf("bind decoded (%d,%d,%q)", s, src, job)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	typ, err = r.Next()
	if err != nil || typ != FrameCredit {
		t.Fatalf("frame 2: type %d err %v", typ, err)
	}
	if s, win, sl, code, msg := r.U32(), r.U32(), r.Slack(), r.U8(), r.String(); s != 1 || win != 64 ||
		sl != (Slack{Latency: 50 * vtime.Millisecond, Slide: 10 * vtime.Millisecond}) || code != 0 || msg != "" {
		t.Fatalf("credit decoded (%d,%d,%+v,%d,%q)", s, win, sl, code, msg)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	typ, err = r.Next()
	if err != nil || typ != FrameEvents {
		t.Fatalf("frame 3: type %d err %v", typ, err)
	}
	h, err := r.EventsHead()
	if err != nil {
		t.Fatal(err)
	}
	if h.Stream != 1 || h.Seq != 1 || h.Progress != 350 || h.Count != 3 {
		t.Fatalf("events head %+v", h)
	}
	got := dataflow.NewBatch(h.Count)
	if err := r.EventsInto(h, got); err != nil {
		t.Fatal(err)
	}
	wantT := []vtime.Time{100, 200, 300}
	wantK := []int64{7, -3, 9}
	wantV := []float64{1.5, 2.5, -0.25}
	for i := 0; i < 3; i++ {
		if got.Times[i] != wantT[i] || got.Keys[i] != wantK[i] || got.Vals[i] != wantV[i] {
			t.Fatalf("tuple %d: (%d,%d,%g)", i, got.Times[i], got.Keys[i], got.Vals[i])
		}
	}

	typ, err = r.Next()
	if err != nil || typ != FrameAdvance {
		t.Fatalf("frame 4: type %d err %v", typ, err)
	}
	if s, seq, p := r.U32(), r.U64(), r.Time(); s != 1 || seq != 2 || p != 400 {
		t.Fatalf("advance decoded (%d,%d,%d)", s, seq, p)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	typ, err = r.Next()
	if err != nil || typ != FrameAck {
		t.Fatalf("frame 5: type %d err %v", typ, err)
	}
	if s, through := r.U32(), r.U64(); s != 1 || through != 2 {
		t.Fatalf("ack decoded (%d,%d)", s, through)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	typ, err = r.Next()
	if err != nil || typ != FrameNack {
		t.Fatalf("frame 6: type %d err %v", typ, err)
	}
	if s, through, code, after := r.U32(), r.U64(), r.U8(), r.Dur(); s != 1 || through != 3 ||
		code != NackOverloaded || after != 5*vtime.Millisecond {
		t.Fatalf("nack decoded (%d,%d,%d,%d)", s, through, code, after)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	typ, err = r.Next()
	if err != nil || typ != FrameFlush {
		t.Fatalf("frame 7: type %d err %v", typ, err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	typ, err = r.Next()
	if err != nil || typ != FrameGoodbye {
		t.Fatalf("frame 8: type %d err %v", typ, err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after goodbye: %v (want io.EOF)", err)
	}
}

// TestKeylessValuelessEvents pins the column-flags path: absent columns
// decode as zeros, keeping decoded batches fully columnar.
func TestKeylessValuelessEvents(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	b := &dataflow.Batch{Times: []vtime.Time{10, 20}}
	if err := w.Events(3, 9, 25, b); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), 0)
	typ, err := r.Next()
	if err != nil || typ != FrameEvents {
		t.Fatalf("type %d err %v", typ, err)
	}
	h, err := r.EventsHead()
	if err != nil {
		t.Fatal(err)
	}
	if h.Flags != 0 || h.Count != 2 {
		t.Fatalf("head %+v", h)
	}
	got := dataflow.NewBatch(2)
	if err := r.EventsInto(h, got); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Keys[1] != 0 || got.Vals[1] != 0 {
		t.Fatalf("decoded %+v", got)
	}
}

// preambleLen positions the fault injectors past the 8-byte preamble.
const preambleLen = 8

// TestTornFrames truncates the stream at every possible byte offset: each
// prefix must decode to some frames followed by exactly one typed error
// (or clean EOF at a frame boundary) — never a panic, never a
// misinterpreted partial frame.
func TestTornFrames(t *testing.T) {
	data := stream(t)
	for cut := 0; cut < len(data); cut++ {
		r := NewReader(bytes.NewReader(data[:cut]), 0)
		if cut < preambleLen {
			if err := r.Preamble(); !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: preamble err %v", cut, err)
			}
			continue
		}
		if err := r.Preamble(); err != nil {
			t.Fatalf("cut %d: preamble err %v", cut, err)
		}
		for {
			typ, err := r.Next()
			if err == io.EOF {
				break // clean frame boundary
			}
			if err != nil {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("cut %d: err %v (want ErrTruncated)", cut, err)
				}
				break
			}
			_ = typ
			// Skip the payload without interpreting it; Done flags frames
			// the envelope accepted but the cursor did not consume.
			r.Take(r.Remaining(), "payload")
			if err := r.Done(); err != nil {
				t.Fatalf("cut %d: done err %v", cut, err)
			}
		}
		// The reader must be poisoned or at EOF — and stay that way.
		if _, err := r.Next(); err == nil {
			t.Fatalf("cut %d: reader not sticky after stream end", cut)
		}
	}
}

// TestBitFlips XORs every byte of the stream in turn (the FlipByte idiom
// applied to a wire stream): each corruption must surface as a typed error
// — almost always ErrChecksum, ErrBadMagic/ErrBadVersion in the preamble,
// or a length-prefix error — and never decode silently as valid data with
// different bytes.
func TestBitFlips(t *testing.T) {
	data := stream(t)
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		r := NewReader(bytes.NewReader(mut), 0)
		err := r.Preamble()
		if off < preambleLen {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) {
				t.Fatalf("off %d: preamble err %v", off, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("off %d: preamble err %v", off, err)
		}
		sawError := false
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				// Typed, by construction: every failure path wraps a
				// package sentinel. Pin it anyway.
				if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrTruncated) &&
					!errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrMalformed) &&
					!errors.Is(err, ErrUnknownFrame) {
					t.Fatalf("off %d: untyped err %v", off, err)
				}
				sawError = true
				break
			}
			r.Take(r.Remaining(), "payload")
			if err := r.Done(); err != nil {
				t.Fatalf("off %d: done err %v", off, err)
			}
		}
		if !sawError {
			t.Fatalf("off %d: corrupted stream decoded cleanly", off)
		}
	}
}

// TestOversizedLength pins the frame-size guard: a length prefix past the
// limit is ErrFrameTooLarge before any allocation or read of the body.
func TestOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Preamble(); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30) // 1 GiB claim
	buf.Write(hdr[:])

	r := NewReader(bytes.NewReader(buf.Bytes()), 1<<16)
	if err := r.Preamble(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err %v (want ErrFrameTooLarge)", err)
	}
	// Sticky: the stream is dead.
	if _, err := r.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("sticky err %v", err)
	}
}

// TestUnknownFrameType pins the type guard: an unassigned type byte under
// a valid envelope (length and CRC correct) is ErrUnknownFrame.
func TestUnknownFrameType(t *testing.T) {
	for _, typ := range []byte{0, frameTypeMax + 1, 0x7f, 0xff} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Preamble(); err != nil {
			t.Fatal(err)
		}
		w.begin(typ)
		w.enc.U32(42)
		if err := w.finish(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(bytes.NewReader(buf.Bytes()), 0)
		if err := r.Preamble(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); !errors.Is(err, ErrUnknownFrame) {
			t.Fatalf("type %d: err %v (want ErrUnknownFrame)", typ, err)
		}
	}
}

// TestEventsCountMismatch pins the column-geometry check: a declared tuple
// count that disagrees with the frame length is ErrMalformed — a hostile
// count can never commit the decoder to an over-read or a huge append.
func TestEventsCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.begin(FrameEvents)
	w.enc.U32(1) // stream
	w.enc.U64(1) // seq
	w.enc.I64(0) // progress
	w.enc.U8(FlagKeys | FlagVals)
	w.enc.U32(1 << 30) // tuple count wildly beyond the payload
	w.enc.I64(123)     // one lonely "time"
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), 0)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.EventsHead(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err %v (want ErrMalformed)", err)
	}
}

// TestTrailingBytes pins Done: payload bytes the decoder did not consume
// are ErrMalformed, not silently ignored.
func TestTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.begin(FrameAck)
	w.enc.U32(1)
	w.enc.U64(9)
	w.enc.U64(0xdead) // 8 bytes past the Ack payload
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), 0)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if s, through := r.U32(), r.U64(); s != 1 || through != 9 {
		t.Fatalf("ack decoded (%d,%d)", s, through)
	}
	if err := r.Done(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("done err %v (want ErrMalformed)", err)
	}
}

// TestBadPreamble pins the magic/version guards.
func TestBadPreamble(t *testing.T) {
	good := stream(t)

	wrongMagic := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(wrongMagic[:4], 0x12345678)
	r := NewReader(bytes.NewReader(wrongMagic), 0)
	if err := r.Preamble(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err %v (want ErrBadMagic)", err)
	}

	// A newer peer and a version-1 peer (narrow Credit, no Flush) alike are
	// refused before any frame is interpreted.
	for _, v := range []uint32{Version + 1, 1} {
		wrongVer := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(wrongVer[4:8], v)
		r = NewReader(bytes.NewReader(wrongVer), 0)
		if err := r.Preamble(); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: err %v (want ErrBadVersion)", v, err)
		}
		if _, err := r.Next(); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: frame read after a refused preamble: %v", v, err)
		}
	}
}

// TestCreditAndFlushPayloads pins the two frames version 2 changed: Credit
// round-trips a grant and a refusal, a version-1 Credit (no Slack) and one
// cut inside the Slack are ErrMalformed, and Flush carries no payload.
func TestCreditAndFlushPayloads(t *testing.T) {
	next := func(t *testing.T, frame func(w *Writer)) *Reader {
		t.Helper()
		var buf bytes.Buffer
		w := NewWriter(&buf)
		frame(w)
		if err := w.finish(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(bytes.NewReader(buf.Bytes()), 0)
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	credit := func(r *Reader) (uint32, uint32, Slack, uint8, string, error) {
		id, win, sl, code, msg := r.U32(), r.U32(), r.Slack(), r.U8(), r.String()
		return id, win, sl, code, msg, r.Done()
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	grant := Slack{Latency: 5 * vtime.Second, Slide: 0}
	if err := w.Credit(7, 1024, grant, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Credit(8, 0, Slack{}, NackBadStream, "unknown job \"x\""); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), 0)
	for i, want := range []struct {
		id, win uint32
		sl      Slack
		code    uint8
		msg     string
	}{{7, 1024, grant, 0, ""}, {8, 0, Slack{}, NackBadStream, "unknown job \"x\""}} {
		if typ, err := r.Next(); err != nil || typ != FrameCredit {
			t.Fatalf("credit %d: type %d err %v", i, typ, err)
		}
		id, win, sl, code, msg, err := credit(r)
		if err != nil || id != want.id || win != want.win || sl != want.sl || code != want.code || msg != want.msg {
			t.Fatalf("credit %d decoded (%d,%d,%+v,%d,%q) err %v", i, id, win, sl, code, msg, err)
		}
	}

	v1 := next(t, func(w *Writer) { // stream | window | code | msg, as version 1 sent it
		w.begin(FrameCredit)
		w.enc.U32(1)
		w.enc.U32(64)
		w.enc.U8(0)
		w.enc.String("")
	})
	if _, _, _, _, _, err := credit(v1); !errors.Is(err, ErrMalformed) {
		t.Errorf("version-1 credit: err %v (want ErrMalformed)", err)
	}
	short := next(t, func(w *Writer) { // cut inside the Slack
		w.begin(FrameCredit)
		w.enc.U32(1)
		w.enc.U32(64)
		w.enc.I64(int64(vtime.Second))
		w.enc.U32(0)
	})
	if _, _, _, _, _, err := credit(short); !errors.Is(err, ErrMalformed) {
		t.Errorf("short credit: err %v (want ErrMalformed)", err)
	}
	padded := next(t, func(w *Writer) {
		w.begin(FrameFlush)
		w.enc.U8(1)
	})
	if err := padded.Done(); !errors.Is(err, ErrMalformed) {
		t.Errorf("flush with a payload: err %v (want ErrMalformed)", err)
	}
}

// TestSlack pins what both ends derive from a grant: which frames advance
// the frontier, and how long the others may be held.
func TestSlack(t *testing.T) {
	windowed := Slack{Latency: 80 * vtime.Millisecond, Slide: 10 * vtime.Millisecond}
	for _, tc := range []struct {
		prev, p vtime.Time
		want    bool
	}{
		{0, 0, false},
		{0, 9_999, false},
		{0, 10_000, true}, // reaches the end of window 0
		{9_999, 10_000, true},
		{10_000, 19_999, false},
		{10_000, 45_000, true},  // several windows at once
		{45_000, 40_000, false}, // late frame: closes nothing
	} {
		if got := windowed.Advances(tc.prev, tc.p); got != tc.want {
			t.Errorf("S=10ms: Advances(%d, %d) = %v, want %v", tc.prev, tc.p, got, tc.want)
		}
	}
	if (Slack{Latency: vtime.Second}).Advances(0, vtime.Hour) {
		t.Error("S=0: an unwindowed stream has no frontier frames")
	}
	if got := windowed.Hold(); got != 10*time.Millisecond {
		t.Errorf("Hold() = %v, want an eighth of 80 ms", got)
	}
}

// TestAllocsCodecRoundTrip pins the wire layer's own contribution to the ingest
// hot path at zero: one steady-state Events encode→decode round trip —
// reused writer, reused reader buffer, pooled-capacity destination batch —
// allocates nothing.
func TestAllocsCodecRoundTrip(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const tuples = 64
	src := dataflow.NewBatch(tuples)
	for i := 0; i < tuples; i++ {
		src.Append(vtime.Time(i*100), int64(i%16), float64(i))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	dst := dataflow.NewBatch(tuples)
	var rd bytes.Reader
	r := NewReader(&rd, 0)
	cycle := func() {
		buf.Reset()
		if err := w.Events(1, 1, vtime.Time(tuples*100), src); err != nil {
			t.Fatal(err)
		}
		rd.Reset(buf.Bytes())
		typ, err := r.Next()
		if err != nil || typ != FrameEvents {
			t.Fatalf("type %d err %v", typ, err)
		}
		h, err := r.EventsHead()
		if err != nil {
			t.Fatal(err)
		}
		dst.Times = dst.Times[:0]
		dst.Keys = dst.Keys[:0]
		dst.Vals = dst.Vals[:0]
		if err := r.EventsInto(h, dst); err != nil {
			t.Fatal(err)
		}
		if dst.Len() != tuples {
			t.Fatalf("decoded %d tuples", dst.Len())
		}
	}
	cycle() // warm the buffers
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Errorf("events encode→decode round trip allocates %.1f times (want 0)", allocs)
	}
}
