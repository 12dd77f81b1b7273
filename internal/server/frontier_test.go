package server_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/server"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/wire"
)

// flushed is one message as a job's first stage received it: the progress
// TryIngest was handed, and for each tuple the sequence number and the
// announced progress of the frame that carried it (the test writes them
// into the key and time columns).
type flushed struct {
	progress vtime.Time
	seqs     []uint64
	frameP   []vtime.Time
}

// recorder is a one-stage job's handler factory; the job's single operator
// sees every admitted flush exactly as the server formed it.
type recorder struct {
	mu  sync.Mutex
	got []flushed
}

func (r *recorder) spec(name string, slide vtime.Duration) dataflow.JobSpec {
	return dataflow.JobSpec{
		Name: name, Latency: vtime.Hour, Sources: 1,
		Stages: []dataflow.StageSpec{{Name: "rec", Parallelism: 1, Slide: slide,
			NewHandler: func(int) dataflow.Handler { return dataflow.HandlerFunc(r.onMessage) }}},
	}
}

func (r *recorder) onMessage(_ *dataflow.Context, m *core.Message) []dataflow.Emission {
	f := flushed{progress: m.P}
	if b, _ := m.Payload.(*dataflow.Batch); b != nil {
		for i := range b.Times {
			f.seqs = append(f.seqs, uint64(b.Keys[i]))
			f.frameP = append(f.frameP, b.Times[i])
		}
	}
	r.mu.Lock()
	r.got = append(r.got, f)
	r.mu.Unlock()
	return nil
}

// verdict is one Ack or Nack as the peer read it.
type verdict struct {
	through uint64
	nacked  bool
}

// sent is one frame the peer wrote.
type sent struct {
	progress vtime.Time
	tuples   int  // 0 = Advance
	frontier bool // flushed the moment it is read
}

// TestFrontierFlushProperty drives random frame sequences through a real
// connection into recording jobs and checks what the flush rules promise,
// for windowed (S > 0) and unwindowed (S = 0) first stages alike:
//
//	(a) no flushed batch merges frames from two progress windows;
//	(b) the progress handed to TryIngest lies in the window of the batch's
//	    oldest frame;
//	(c) every stream's frames reach the engine in order, in exactly the
//	    groups its cumulative Acks and Nacks name;
//	(d) once the server has caught up, Events == FlushedEvents +
//	    NackedEvents and BufferedEvents == 0: a server waiting on its
//	    socket holds nothing (the jobs' hour of slack would hide any hold);
//	(e) flushes are cut where the rules say: every Advance and every
//	    frontier-advancing Events frame ends a verdict group, and no batch
//	    held dataflow.MaxCoalesce tuples before its last frame was added.
//
// Frames of 70 tuples exceed the coalesce cap, so size flushes run too.
func TestFrontierFlushProperty(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprint("seed", trial), func(t *testing.T) { frontierTrial(t, int64(trial)) })
	}
}

func frontierTrial(t *testing.T, seed int64) {
	const slideOn = 10 * vtime.Millisecond
	rng := rand.New(rand.NewSource(seed))
	slide := vtime.Duration(0)
	if rng.Intn(3) > 0 {
		slide = slideOn
	}
	streams := 1 + rng.Intn(3)

	e, s, addr := serve(t, runtime.Config{Workers: 1}, server.Config{})
	recs := make([]*recorder, streams)
	for i := range recs {
		recs[i] = &recorder{}
		if _, err := e.AddJob(recs[i].spec(fmt.Sprint("j", i), slide)); err != nil {
			t.Fatal(err)
		}
	}
	e.Start()
	rc := dialRaw(t, addr)
	for i := range recs {
		if err := rc.w.Bind(uint32(i), 0, fmt.Sprint("j", i)); err != nil {
			t.Fatal(err)
		}
		rc.expectCredit(t, uint32(i))
	}

	// The peer's reader: every verdict, per stream, in arrival order.
	verdicts := make([][]verdict, streams)
	readerDone := make(chan error, 1)
	go func() {
		for {
			typ, err := rc.r.Next()
			if err != nil {
				readerDone <- err
				return
			}
			switch typ {
			case wire.FrameAck:
				id, through := rc.r.U32(), rc.r.U64()
				verdicts[id] = append(verdicts[id], verdict{through: through})
			case wire.FrameNack:
				id, through := rc.r.U32(), rc.r.U64()
				rc.r.U8()
				rc.r.Dur()
				verdicts[id] = append(verdicts[id], verdict{through: through, nacked: true})
			case wire.FrameGoodbye:
				readerDone <- rc.r.Done()
				return
			default:
				readerDone <- fmt.Errorf("unexpected frame type %d", typ)
				return
			}
			if err := rc.r.Done(); err != nil {
				readerDone <- err
				return
			}
		}
	}()

	// What the peer sent on each stream.
	type model struct {
		progress vtime.Time
		frames   []sent
		paused   bool
	}
	models := make([]model, streams)
	wireFrames := int64(streams) // the Binds
	var decoded int64
	b := dataflow.NewBatch(128)
	for step := 0; step < 120; step++ {
		id := rng.Intn(streams)
		m := &models[id]
		if rng.Intn(25) == 0 {
			// Refusals: a paused job nacks its flushes and its watermarks.
			var err error
			if m.paused = !m.paused; m.paused {
				err = e.PauseJob(fmt.Sprint("j", id))
			} else {
				err = e.ResumeJob(fmt.Sprint("j", id))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		// Progress steps of 0, less than a slide, a slide or more, several.
		p := m.progress + []vtime.Duration{0, 1 + vtime.Duration(rng.Int63n(int64(slideOn-1))),
			slideOn + vtime.Duration(rng.Int63n(int64(slideOn))), 3*slideOn + 7}[rng.Intn(4)]
		fr := sent{progress: p, frontier: true}
		if rng.Intn(8) > 0 {
			fr.tuples = []int{1, 3, 5, 70}[rng.Intn(4)]
			fr.frontier = slide > 0 && p/slide > m.progress/slide
		}
		m.frames = append(m.frames, fr)
		seq := uint64(len(m.frames))
		m.progress = p
		var err error
		if fr.tuples == 0 {
			err = rc.w.Advance(uint32(id), seq, p)
		} else {
			b.Times, b.Keys, b.Vals = b.Times[:0], b.Keys[:0], b.Vals[:0]
			for i := 0; i < fr.tuples; i++ {
				b.Append(p, int64(seq), 1)
			}
			err = rc.w.Events(uint32(id), seq, p, b)
			decoded += int64(fr.tuples)
		}
		if err != nil {
			t.Fatal(err)
		}
		wireFrames++
		if step%4 == 3 {
			// (d): the counters move one after another, so wait for the
			// settled ledger rather than sample it.
			waitFor(t, fmt.Sprintf("step %d: server caught up with nothing buffered", step), func() bool {
				ss := s.Stats()
				return ss.Frames == wireFrames && ss.BufferedEvents == 0 &&
					ss.Events == ss.FlushedEvents+ss.NackedEvents
			})
			if ss := s.Stats(); ss.Events != decoded {
				t.Fatalf("step %d: decoded %d, sent %d", step, ss.Events, decoded)
			}
		}
	}
	for i := range models {
		if models[i].paused {
			if err := e.ResumeJob(fmt.Sprint("j", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Flush settles every stream; Goodbye ends the conversation.
	if err := rc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rc.w.Goodbye(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-readerDone:
		if err != nil {
			t.Fatalf("peer reader: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no Goodbye from the server")
	}
	if !e.Drain(5 * time.Second) {
		t.Fatal("engine did not drain")
	}
	if ss := s.Stats(); ss.BufferedEvents != 0 || ss.Events != ss.FlushedEvents+ss.NackedEvents {
		t.Fatalf("after Flush: %+v", ss)
	}

	for id := range models {
		frames := models[id].frames
		// (c) the verdicts partition the stream's sequence numbers in order.
		groups := map[uint64]uint64{} // first seq of an acked group -> its last
		ends := map[uint64]bool{}     // last seq of every verdict group
		prev := uint64(0)
		for _, v := range verdicts[id] {
			if v.through <= prev {
				t.Fatalf("stream %d: verdict through %d after %d", id, v.through, prev)
			}
			if !v.nacked {
				groups[prev+1] = v.through
			}
			ends[v.through] = true
			prev = v.through
		}
		if prev != uint64(len(frames)) {
			t.Fatalf("stream %d: verdicts cover %d of %d frames", id, prev, len(frames))
		}
		// (e) a frontier frame is never held behind a later one.
		for i, fr := range frames {
			if fr.frontier && !ends[uint64(i+1)] {
				t.Errorf("stream %d: frontier frame %d shares a verdict with a later frame", id, i+1)
			}
		}
		recs[id].mu.Lock()
		got := recs[id].got
		recs[id].mu.Unlock()
		for _, f := range got {
			if len(f.seqs) == 0 {
				continue // a watermark
			}
			first, last := f.seqs[0], f.seqs[len(f.seqs)-1]
			if groups[first] < last {
				t.Errorf("stream %d: batch of frames %d..%d is not one acked group (group ends at %d)",
					id, first, last, groups[first])
			}
			// Frame order and completeness inside the batch.
			at := first
			for n := 0; n < len(f.seqs); at++ {
				for k := 0; k < frames[at-1].tuples; k, n = k+1, n+1 {
					if n >= len(f.seqs) || f.seqs[n] != at {
						t.Fatalf("stream %d: batch %v breaks frame order at tuple %d", id, f.seqs, n)
					}
				}
			}
			delete(groups, first)
			// (e) the size cap: the buffer was short of it before the last frame.
			if before := len(f.seqs) - frames[last-1].tuples; before >= dataflow.MaxCoalesce {
				t.Errorf("stream %d: batch of frames %d..%d held %d tuples before its last frame, cap %d",
					id, first, last, before, dataflow.MaxCoalesce)
			}
			if slide == 0 {
				continue
			}
			// (a) one progress window per batch, (b) announced inside it.
			w := f.frameP[0] / slide
			for _, p := range f.frameP {
				if p/slide != w {
					t.Errorf("stream %d: batch of frames %d..%d merges windows %d and %d", id, first, last, w, p/slide)
					break
				}
			}
			if f.progress/slide != w {
				t.Errorf("stream %d: batch of frames %d..%d (window %d) ingested under progress %v (window %d)",
					id, first, last, w, f.progress, f.progress/slide)
			}
		}
		// Every acked group that carried tuples reached the engine.
		for first, last := range groups {
			for seq := first; seq <= last; seq++ {
				if frames[seq-1].tuples > 0 {
					t.Errorf("stream %d: acked frames %d..%d never reached the job", id, first, last)
					break
				}
			}
		}
	}
}
