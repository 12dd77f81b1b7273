package main

import (
	"errors"
	"syscall"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

// ingester is the part of the ingest API the generators use; *cameo.Engine
// and *cameo.Client both provide it.
type ingester interface {
	IngestBatch(job string, source int, events []cameo.Event, progress time.Duration) error
	TryIngestBatch(job string, source int, events []cameo.Event, progress time.Duration) error
	AdvanceProgress(job string, source int, progress time.Duration) error
}

// generator offers the batches of its streams. The open loop walks the
// pre-rendered schedule tick by tick and never skips or thins it: when the
// system (or the box) stalls it, it sends late and the delay is charged to
// the results, which are timed from when their closing batch was due.
type generator struct {
	p      *plan
	in     ingester
	ops    []op      // open loop: this generator's schedule
	mine   []*stream // closed loop: this generator's streams
	traced bool

	lag      hist // tick due -> generator awake, every tick
	call     hist // time inside IngestBatch / TryIngestBatch that accepted (traced)
	reject   hist // time inside a TryIngestBatch that refused (traced)
	accepts  int64
	rejects  int64
	errs     int64 // ingest calls that failed for any other reason
	firstErr error
}

func (g *generator) now() int64 { return int64(time.Since(g.p.base)) }

// pause sleeps in the kernel. time.Sleep will not do for pacing: a Go timer
// that is the process's next event is waited for in epoll_wait, whose
// timeout has millisecond grain, so a 100 µs sleep takes over a
// millisecond — a whole tick.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early return only makes the caller look at the clock again
}

// How batches are stamped. A batch's events carry the time it is due
// (open loop) or offered (closed loop), and it announces as progress the
// last window end at or before that time: progress moves in whole windows,
// and a batch's events never lie before the progress it announces. The
// engine needs no more — a window closes when progress reaches its end, and
// deadlines round progress up to the next end anyway — and it keeps the
// bench clear of an engine defect: a batch whose ingest call lands after
// the end of the window its progress falls in is queued under its raw
// progress instead of that window end, so it overtakes earlier batches of
// its own channel. With progress finer than a window the frontier then
// panics ("channel progress moved backwards") and the query is
// quarantined; with events stamped before their batch's progress, the
// overtaken batch's tuples arrive after their window has closed and are
// dropped. Stamped this way the overtaking is harmless in process. On the
// wire it is not enough: the server coalesces frames into one batch under
// the latest frame's progress, so a batch that straddles a window end
// carries events older than its progress after all, and when a stall of
// the box has thrown the engine's progress-to-time estimate off, the next
// batch overtakes it, closes the window under it, and the window's sum
// comes out short (4 wrong results in one of some 200 runs). On the wire a
// frame therefore announces the window end before the last one: like a
// watermark that allows one window of lateness. A coalesced batch spans a
// few ms, so none holds an event older than its progress.

// send offers one batch on s: events stamped rel time at, due (or first
// offered) at due. It reports whether the call took the batch; false
// means backpressure refused it.
func (g *generator) send(s *stream, at, due int64, try bool) bool {
	win := int64(g.p.tenants[s.tenant].g.window)
	prog := at / win * win
	if g.p.w.wire {
		// One window behind: see "How batches are stamped".
		prog = max(prog-win, 0)
	}
	b := s.ring[s.next]
	evT := g.p.t0 + time.Duration(at)
	for i := range b {
		b[i].Time = evT
	}
	var start, end int64
	if g.traced {
		start = g.now()
	}
	var err error
	if try {
		err = g.in.TryIngestBatch(s.job, s.source, b, g.p.t0+time.Duration(prog))
	} else {
		err = g.in.IngestBatch(s.job, s.source, b, g.p.t0+time.Duration(prog))
	}
	if g.traced {
		end = g.now()
	}
	if try && errors.Is(err, cameo.ErrOverloaded) {
		// Nothing was taken; the caller offers the same batch again. A
		// refusal is not a failure and the batch is not yet booked.
		g.rejects++
		if g.traced {
			g.reject.add(end - start)
		}
		return false
	}
	if g.traced {
		g.call.add(end - start)
	}
	g.accepts++
	g.fail(err)
	s.book(win, at, len(b), s.ringSum[s.next], err == nil)
	if err == nil {
		s.announce(win, prog, due, start, end)
	}
	s.next = (s.next + 1) % ringSize
	return true
}

func (g *generator) fail(err error) {
	if err == nil {
		return
	}
	g.errs++
	if g.firstErr == nil {
		g.firstErr = err
	}
}

// advance announces progress without data.
func (g *generator) advance(s *stream, prog, due int64) {
	var start, end int64
	if g.traced {
		start = g.now()
	}
	err := g.in.AdvanceProgress(s.job, s.source, g.p.t0+time.Duration(prog))
	if g.traced {
		end = g.now()
	}
	g.fail(err)
	if err == nil {
		s.announce(int64(g.p.tenants[s.tenant].g.window), prog, due, start, end)
	}
}

// runOpen walks the schedule tick by tick.
func (g *generator) runOpen() {
	for i := 0; i < len(g.ops); {
		k := g.ops[i].tick
		due := int64(k) * int64(tick)
		for d := due - g.now(); d > 0; d = due - g.now() {
			pause(time.Duration(d))
		}
		g.lag.add(g.now() - due)
		for ; i < len(g.ops) && g.ops[i].tick == k; i++ {
			o := g.ops[i]
			s := g.p.streams[o.stream]
			if o.frames == 0 {
				g.advance(s, due, due)
			}
			for f := int32(0); f < o.frames; f++ {
				g.send(s, due, due, false)
			}
		}
	}
}

// retryBackoff is how long a closed-loop generator sleeps after a refusal
// before offering the same batch again.
const retryBackoff = 100 * time.Microsecond

// runClosed offers batches round-robin over its streams as fast as they
// are admitted, stamped with the current time at the engine clock's µs
// grain; a refused batch is offered again unchanged, and its first offer
// is when it counts as due.
func (g *generator) runClosed() {
	const us = int64(time.Microsecond)
	for d := -g.now(); d > 0; d = -g.now() {
		pause(time.Duration(d))
	}
loop:
	for {
		for _, s := range g.mine {
			now := g.now()
			if now >= g.p.total {
				break loop
			}
			for !g.send(s, now/us*us, now, true) {
				pause(retryBackoff)
			}
		}
	}
	for _, s := range g.mine {
		g.advance(s, g.p.total, g.p.total)
	}
}
