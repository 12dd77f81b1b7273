package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// FuzzWireDecode drives the full decode loop — preamble, envelope, typed
// payload getters, the Events column decoder — over arbitrary bytes. The
// invariant is the codec's safety contract: every input either decodes as
// a sequence of valid frames or fails with one of the package's typed
// errors (or clean io.EOF at a frame boundary); no input may panic, and a
// decoded Events frame's batch must be internally consistent (equal column
// lengths matching the declared count).
func FuzzWireDecode(f *testing.F) {
	// Seed with a valid conversation and targeted mutations of it so the
	// fuzzer starts at the format's cliff edges instead of random noise.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Preamble(); err != nil {
		f.Fatal(err)
	}
	b := dataflow.NewBatch(3)
	b.Append(100, 7, 1.5)
	b.Append(200, -3, 2.5)
	b.Append(300, 9, -0.25)
	for _, err := range []error{
		w.Bind(1, 0, "tenant-a"),
		w.Credit(1, 64, Slack{Latency: 50 * vtime.Millisecond, Slide: 10 * vtime.Millisecond}, 0, ""),
		w.Credit(2, 0, Slack{}, NackBadStream, "unknown job"),
		w.Events(1, 1, 350, b),
		w.Advance(1, 2, 400),
		w.Ack(1, 2),
		w.Nack(1, 3, NackOverloaded, 5*vtime.Millisecond),
		w.Flush(),
		w.Goodbye(),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])           // torn mid-frame
	f.Add(valid[:preambleLen])            // preamble only
	f.Add([]byte{})                       // empty stream
	f.Add([]byte{0x43, 0x41, 0x4d, 0x57}) // half a preamble
	mut := append([]byte(nil), valid...)
	mut[preambleLen+6] ^= 0x40 // corrupt a frame body byte
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), 1<<16)
		if err := r.Preamble(); err != nil {
			requireTyped(t, err)
			return
		}
		for frames := 0; frames < 1024; frames++ {
			typ, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				requireTyped(t, err)
				return
			}
			switch typ {
			case FrameBind:
				r.U32()
				r.U32()
				_ = r.String()
			case FrameEvents:
				h, err := r.EventsHead()
				if err != nil {
					requireTyped(t, err)
					return
				}
				got := dataflow.NewBatch(h.Count)
				if err := r.EventsInto(h, got); err != nil {
					requireTyped(t, err)
					return
				}
				if got.Len() != h.Count || len(got.Keys) != h.Count || len(got.Vals) != h.Count {
					t.Fatalf("decoded batch columns %d/%d/%d, declared %d",
						len(got.Times), len(got.Keys), len(got.Vals), h.Count)
				}
			case FrameAdvance:
				r.U32()
				r.U64()
				r.Time()
			case FrameCredit:
				r.U32()
				r.U32()
				r.Slack()
				r.U8()
				_ = r.String()
			case FrameAck:
				r.U32()
				r.U64()
			case FrameNack:
				r.U32()
				r.U64()
				r.U8()
				r.Dur()
			case FrameGoodbye, FrameFlush:
			default:
				t.Fatalf("Next returned unassigned type %d without error", typ)
			}
			if err := r.Done(); err != nil {
				requireTyped(t, err)
				return
			}
		}
	})
}

func requireTyped(t *testing.T, err error) {
	t.Helper()
	for _, sentinel := range []error{
		ErrBadMagic, ErrBadVersion, ErrFrameTooLarge, ErrChecksum,
		ErrTruncated, ErrUnknownFrame, ErrMalformed,
	} {
		if errors.Is(err, sentinel) {
			return
		}
	}
	t.Fatalf("decode failed with untyped error: %v", err)
}
