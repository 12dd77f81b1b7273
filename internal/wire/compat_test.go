package wire

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// writeFrames writes the stream behind testdata/frames.bin: the preamble,
// then one frame of every type, with Events twice — once with every
// column, once with the times column only.
func writeFrames(w *Writer) error {
	full := dataflow.NewBatch(3)
	full.Append(100, 7, 1.5)
	full.Append(-200, -3, -2.5)
	full.Append(1<<40, 1<<50, 0.125)
	timesOnly := &dataflow.Batch{Times: []vtime.Time{5, 6}}
	for _, err := range []error{
		w.Preamble(),
		w.Bind(1, 2, "tenant-a"),
		w.Events(1, 1, 350, full),
		w.Events(1, 2, 360, timesOnly),
		w.Advance(1, 3, 400),
		w.Credit(1, 64, Slack{Latency: 50 * vtime.Millisecond, Slide: 10 * vtime.Millisecond}, NackPaused, "paused"),
		w.Ack(1, 2),
		w.Nack(1, 3, NackOverloaded, 5*vtime.Millisecond),
		w.Goodbye(),
		w.Flush(),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// reencode decodes the current frame, of type typ, field by field and
// writes the values back through w.
func reencode(r *Reader, w *Writer, typ byte) error {
	var err error
	switch typ {
	case FrameBind:
		stream, src, job := r.U32(), r.U32(), r.String()
		if err = r.Done(); err == nil {
			err = w.Bind(stream, int(src), job)
		}
	case FrameEvents:
		var h EventsHead
		if h, err = r.EventsHead(); err != nil {
			return err
		}
		b := &dataflow.Batch{}
		if err = r.EventsInto(h, b); err != nil {
			return err
		}
		if h.Flags&FlagKeys == 0 {
			b.Keys = nil
		}
		if h.Flags&FlagVals == 0 {
			b.Vals = nil
		}
		err = w.Events(h.Stream, h.Seq, h.Progress, b)
	case FrameAdvance:
		stream, seq, p := r.U32(), r.U64(), r.Time()
		if err = r.Done(); err == nil {
			err = w.Advance(stream, seq, p)
		}
	case FrameCredit:
		stream, window, sl, code, msg := r.U32(), r.U32(), r.Slack(), r.U8(), r.String()
		if err = r.Done(); err == nil {
			err = w.Credit(stream, window, sl, code, msg)
		}
	case FrameAck:
		stream, through := r.U32(), r.U64()
		if err = r.Done(); err == nil {
			err = w.Ack(stream, through)
		}
	case FrameNack:
		stream, through, code, retry := r.U32(), r.U64(), r.U8(), r.Dur()
		if err = r.Done(); err == nil {
			err = w.Nack(stream, through, code, retry)
		}
	case FrameGoodbye:
		if err = r.Done(); err == nil {
			err = w.Goodbye()
		}
	case FrameFlush:
		if err = r.Done(); err == nil {
			err = w.Flush()
		}
	default:
		err = fmt.Errorf("unexpected frame type %d", typ)
	}
	return err
}

// TestFramesCompat pins the wire format across versions: testdata/frames.bin
// was written by an earlier Writer from writeFrames. Today's Writer must
// reproduce it byte for byte, and today's Reader must decode every frame
// into values that write back to the same bytes.
func TestFramesCompat(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "frames.bin"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeFrames(NewWriter(&got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Writer: %d bytes differ from the committed %d-byte stream", got.Len(), len(want))
	}

	r := NewReader(bytes.NewReader(want), 0)
	var back bytes.Buffer
	w := NewWriter(&back)
	if err := r.Preamble(); err != nil {
		t.Fatal(err)
	}
	if err := w.Preamble(); err != nil {
		t.Fatal(err)
	}
	seen := map[byte]bool{}
	for {
		typ, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen[typ] = true
		if err := reencode(r, w, typ); err != nil {
			t.Fatalf("frame type %d: %v", typ, err)
		}
	}
	if len(seen) != int(frameTypeMax) {
		t.Errorf("stream holds %d frame types, want %d", len(seen), frameTypeMax)
	}
	if !bytes.Equal(back.Bytes(), want) {
		t.Fatal("Reader: decoded frames write back to different bytes")
	}
}
