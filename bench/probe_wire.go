package main

import (
	"bytes"
	"io"
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/wire"
)

// probeFrame is the frame the codec probes move: 16 tuples, all columns.
const probeFrame = 16

type countWriter struct{ n int64 }

func (c *countWriter) Write(b []byte) (int, error) { c.n += int64(len(b)); return len(b), nil }

// probeWire: encode one Events frame through Writer into io.Discard, and
// decode it from memory with Reader.Next / EventsHead / EventsInto.
func probeWire(budget time.Duration, add addFunc) error {
	b := dataflow.NewBatch(probeFrame)
	for i := 0; i < probeFrame; i++ {
		b.Append(1_000_000, int64(i), float64(i%9+1))
	}
	w := wire.NewWriter(io.Discard)
	var werr error
	enc := nsPerOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			if err := w.Events(1, uint64(i), 1_000_000, b); err != nil {
				werr = err
			}
		}
	})
	if werr != nil {
		return werr
	}
	add("wire.encode_ns_per_tuple", "ns", enc/probeFrame)

	var cw countWriter
	if err := wire.NewWriter(&cw).Events(1, 1, 1_000_000, b); err != nil {
		return err
	}
	add("wire.bytes_per_tuple", "B", float64(cw.n)/probeFrame)

	// One encoded frame, repeated in a buffer the reader walks.
	var one bytes.Buffer
	if err := wire.NewWriter(&one).Events(1, 1, 1_000_000, b); err != nil {
		return err
	}
	const framesPerBuf = 1024
	buf := bytes.Repeat(one.Bytes(), framesPerBuf)
	into := dataflow.NewBatch(probeFrame)
	var rerr error
	dec := nsPerOp(budget, func(n int) {
		for done := 0; done < n; done += framesPerBuf {
			r := wire.NewReader(bytes.NewReader(buf), 0)
			for i := 0; i < framesPerBuf; i++ {
				if _, err := r.Next(); err != nil {
					rerr = err
					return
				}
				h, err := r.EventsHead()
				if err != nil {
					rerr = err
					return
				}
				into.Times, into.Keys, into.Vals = into.Times[:0], into.Keys[:0], into.Vals[:0]
				if err := r.EventsInto(h, into); err != nil {
					rerr = err
					return
				}
			}
		}
	})
	if rerr != nil {
		return rerr
	}
	sink += int64(into.Len())
	add("wire.decode_ns_per_tuple", "ns", dec/probeFrame)
	return nil
}
