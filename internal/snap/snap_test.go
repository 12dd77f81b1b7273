package snap

import (
	"bytes"
	"errors"
	"testing"

	"github.com/cameo-stream/cameo/internal/vtime"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(1 << 60)
	w.I64(-42)
	w.F64(3.5)
	w.Time(vtime.Time(123456))
	w.Dur(vtime.Duration(-9))
	w.String("hello")
	w.String("")
	data := w.Bytes()

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U8(); got != 7 {
		t.Errorf("u8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools wrong")
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("u32 = %x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("u64 = %x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("i64 = %d", got)
	}
	if got := r.F64(); got != 3.5 {
		t.Errorf("f64 = %v", got)
	}
	if got := r.Time(); got != vtime.Time(123456) {
		t.Errorf("time = %v", got)
	}
	if got := r.Dur(); got != vtime.Duration(-9) {
		t.Errorf("dur = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("string = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty string = %q", got)
	}
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes left over", r.Remaining())
	}
}

// TestDeterministic: the encoding of a value sequence is a pure function of
// the values — two writers given the same sequence produce identical bytes.
func TestDeterministic(t *testing.T) {
	build := func() []byte {
		w := NewWriter()
		for i := 0; i < 100; i++ {
			w.I64(int64(i * 31))
			w.F64(float64(i) / 7)
			w.String("op/agg[0]")
		}
		return w.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical writes produced different bytes")
	}
}

func TestReset(t *testing.T) {
	w := NewWriter()
	w.String("first")
	a := append([]byte(nil), w.Bytes()...)
	w.Reset()
	w.String("first")
	if !bytes.Equal(a, w.Bytes()) {
		t.Fatal("Reset did not reproduce an identical snapshot")
	}
}

// TestRejectsCorruption: every torn, truncated, or bit-flipped variant of a
// valid snapshot must fail at NewReader — never half-decode.
func TestRejectsCorruption(t *testing.T) {
	w := NewWriter()
	w.String("job")
	w.I64(99)
	data := w.Bytes()

	// Truncations at every length below the minimum envelope and a sample
	// of torn tails.
	for n := 0; n < len(data); n++ {
		if _, err := NewReader(append([]byte(nil), data[:n]...)); err == nil {
			t.Errorf("accepted truncation to %d/%d bytes", n, len(data))
		}
	}
	// Single-bit flips anywhere must break the checksum (or the header).
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := NewReader(mut); err == nil {
			t.Errorf("accepted bit flip at offset %d", i)
		}
	}
}

// TestStickyError: reads past the end return zero values and keep the first
// error; a huge string length cannot over-read.
func TestStickyError(t *testing.T) {
	w := NewWriter()
	w.U32(5)
	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r.U32()
	if got := r.U64(); got != 0 {
		t.Errorf("over-read returned %d", got)
	}
	if r.Err() == nil {
		t.Fatal("over-read left no error")
	}
	first := r.Err()
	_ = r.String()
	if r.Err() != first {
		t.Fatal("sticky error was replaced")
	}

	w2 := NewWriter()
	w2.U32(1 << 30) // absurd string length prefix
	r2, err := NewReader(w2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if s := r2.String(); s != "" || r2.Err() == nil {
		t.Fatalf("huge length prefix decoded to %q, err %v", s, r2.Err())
	}
}

// TestBody: a body writer stamps no header and a body reader checks no
// envelope — the form internal/wire frames. Reset starts a new body (and
// clears the reader's error), and a short read wraps the sentinel the
// reader was given.
func TestBody(t *testing.T) {
	w := NewBodyWriter()
	w.U32(7)
	w.String("ab")
	if got, want := w.Body(), []byte{7, 0, 0, 0, 2, 0, 0, 0, 'a', 'b'}; !bytes.Equal(got, want) {
		t.Fatalf("body %v, want %v", got, want)
	}
	short := errors.New("short read")
	r := NewBodyReader(w.Body(), short)
	if v, s := r.U32(), r.String(); v != 7 || s != "ab" || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("read %d %q err %v remaining %d", v, s, r.Err(), r.Remaining())
	}
	if r.U8() != 0 || !errors.Is(r.Err(), short) {
		t.Fatalf("read past the end: err %v, want one wrapping the reader's sentinel", r.Err())
	}
	r.Reset([]byte{9})
	if v := r.U8(); v != 9 || r.Err() != nil {
		t.Fatalf("after Reset: read %d err %v", v, r.Err())
	}
	w.Reset()
	if len(w.Body()) != 0 {
		t.Fatalf("body writer Reset left %d bytes", len(w.Body()))
	}
}
