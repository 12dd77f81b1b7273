package main

import (
	"fmt"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

// generators is fixed: all load comes from two goroutines (and, on the
// wire, two connections), so the generator's share of a 2-vCPU box is the
// same on every workload.
const generators = 2

// spikeGrain is the step in which a seed places a group's spikes inside
// their period. It is a multiple of every workload's shortest window and
// of every batch period: with finer placement mt_spike's lat_p99_ms fell
// into two classes by seed (4.3 and 6.9 ms), depending on whether the
// ticks with two bulk batches coincided with the 20 ms window ends.
const spikeGrain = 20 * time.Millisecond

// ringSize is the number of distinct pre-rendered batches a stream cycles
// through; keys and values differ per seed, the cycle length does not.
const ringSize = 8

// All plan times are nanoseconds relative to plan.t0 on the engine clock
// (and to plan.base on the wall clock, which is the same instant).

// stream is one (tenant, source) channel and its ledger. Only the owning
// generator touches it during the run.
type stream struct {
	tenant, source, gen int
	job                 string
	ring                [][]cameo.Event
	ringSum             []int64
	next                int
	progress            int64 // last progress announced

	// Per planned window: tuples offered, tuples whose ingest call returned
	// nil, and the value sum of the latter.
	offered, admitted []int32
	sum               []int64
	// The batch whose progress first reached the window's end: when it was
	// due (open loop) or first offered (closed loop), and — traced runs
	// only — when the call that delivered it started and returned.
	closeDue, closeStart, closeEnd []int64
	closed                         int // windows closed so far
}

// op is one scheduled send: frames batches on one stream at one tick.
// frames == 0 is a data-free advance of progress to the tick.
type op struct {
	tick   int32
	stream int32
	frames int32
}

// plan is everything derived from (workload, seed, seconds) before the
// run: tenants, streams with their batch rings, and per generator the
// tick-ordered schedule.
type plan struct {
	w       workload
	tenants []*tenant
	streams []*stream
	ops     [generators][]op
	warm    int64 // warm-up, ns: windows ending in it are checked, not timed
	total   int64 // warm-up + measured, ns

	t0   time.Duration // engine clock at rel 0
	base time.Time     // wall clock at rel 0
}

// rng is splitmix64: the schedule must not drift with Go releases.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newPlan pre-renders the schedule. The shape (who sends how much on which
// tick) depends only on the workload; keys, values and the spike phase
// depend on the seed.
func newPlan(w workload, seed uint64, warm, measure time.Duration) *plan {
	p := &plan{w: w, warm: int64(warm), total: int64(warm + measure)}
	r := rng(seed*0x9e3779b97f4a7c15 + 1)
	ticks := int(p.total / int64(tick))
	for gi := range w.groups {
		g := &w.groups[gi]
		nWin := int(p.total / int64(g.window))
		phase := 0
		if g.spike != nil {
			// A whole number of spikeGrain steps, so that the ticks a spike
			// doubles up on always fall the same way against the other
			// tenants' window ends: seeds move the spikes, not that.
			phase = int(r.next()%uint64(g.spike.every/spikeGrain)) * int(spikeGrain/tick)
		}
		for ti := 0; ti < g.tenants; ti++ {
			t := &tenant{
				name:    fmt.Sprintf("%s%03d", g.prefix, ti),
				g:       g,
				first:   len(p.streams),
				results: make([]result, nWin),
			}
			p.tenants = append(p.tenants, t)
			for src := 0; src < g.sources; src++ {
				// One stream of each tenant per generator; single-source
				// tenants alternate.
				gen := src % generators
				if g.sources == 1 {
					gen = ti % generators
				}
				s := &stream{
					tenant: len(p.tenants) - 1, source: src, job: t.name, gen: gen,
					offered:  make([]int32, nWin),
					admitted: make([]int32, nWin),
					sum:      make([]int64, nWin),
					closeDue: make([]int64, nWin),
				}
				s.render(g, &r)
				p.streams = append(p.streams, s)
				if !w.closed {
					p.schedule(int32(len(p.streams)-1), g, ticks, phase)
				}
			}
		}
	}
	if !w.closed {
		for g := range p.ops {
			sortOps(p.ops[g])
		}
	}
	return p
}

func (s *stream) render(g *group, r *rng) {
	s.ring = make([][]cameo.Event, ringSize)
	s.ringSum = make([]int64, ringSize)
	for i := range s.ring {
		b := make([]cameo.Event, g.batch)
		for j := range b {
			v := int64(1 + r.next()%9) // small integers: window sums are exact in any order
			b[j] = cameo.Event{Key: int64(r.next() % uint64(g.keys)), Value: float64(v)}
			s.ringSum[i] += v
		}
		s.ring[i] = b
	}
}

// schedule appends one stream's ops: num/den batches per tick, times mult
// inside a spike, carried exactly by an integer accumulator, on ticks
// 0..ticks-1; then an advance to the end of the run, which closes the last
// window.
func (p *plan) schedule(si int32, g *group, ticks, phase int) {
	s := p.streams[si]
	acc := g.den - g.num // the first batch is due at tick 0
	for k := 0; k < ticks; k++ {
		n := g.num
		if sp := g.spike; sp != nil && (k+phase)%int(sp.every/tick) < int(sp.length/tick) {
			n *= sp.mult
		}
		acc += n
		if f := acc / g.den; f > 0 {
			acc %= g.den
			p.ops[s.gen] = append(p.ops[s.gen], op{tick: int32(k), stream: si, frames: int32(f)})
		}
	}
	p.ops[s.gen] = append(p.ops[s.gen], op{tick: int32(ticks), stream: si})
}

// sortOps orders by tick, keeping stream order inside a tick. Streams were
// appended one after another, each already tick-ordered, so a stable
// counting pass by tick is enough.
func sortOps(ops []op) {
	if len(ops) == 0 {
		return
	}
	maxTick := int32(0)
	for _, o := range ops {
		if o.tick > maxTick {
			maxTick = o.tick
		}
	}
	start := make([]int32, maxTick+2)
	for _, o := range ops {
		start[o.tick+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	out := make([]op, len(ops))
	for _, o := range ops {
		out[start[o.tick]] = o
		start[o.tick]++
	}
	copy(ops, out)
}

// arm fixes rel 0 on both clocks: the next multiple of the largest window
// on the engine clock, so every window end falls on a tick, far enough
// ahead for the generators to start on time.
func (p *plan) arm(engNow time.Duration, wallNow time.Time, traced bool) {
	align := time.Duration(0)
	for gi := range p.w.groups {
		if w := p.w.groups[gi].window; w > align {
			align = w
		}
	}
	for gi := range p.w.groups {
		if align%p.w.groups[gi].window != 0 {
			panic("bench: every window must divide the largest one")
		}
	}
	p.t0 = (engNow + 20*time.Millisecond + align - 1) / align * align
	p.base = wallNow.Add(p.t0 - engNow)
	for _, t := range p.tenants {
		t.base = p.base
		t.firstWin = int64(p.t0) / int64(t.g.window)
	}
	if traced {
		for _, s := range p.streams {
			s.closeStart = make([]int64, len(s.closeDue))
			s.closeEnd = make([]int64, len(s.closeDue))
		}
	}
}

// book records one offered batch, stamped at rel time at, on the ledger of
// the window it falls in; ok is whether the ingest call accepted it.
func (s *stream) book(win, at int64, tuples int, sum int64, ok bool) {
	j := at / win
	if j >= int64(len(s.offered)) {
		return
	}
	s.offered[j] += int32(tuples)
	if ok {
		s.admitted[j] += int32(tuples)
		s.sum[j] += sum
	}
}

// announce records an accepted progress announcement: every window it is
// the first to reach gets this call as its closer.
func (s *stream) announce(win, prog, due, start, end int64) {
	if prog <= s.progress {
		return
	}
	s.progress = prog
	for s.closed < len(s.closeDue) && int64(s.closed+1)*win <= prog {
		s.closeDue[s.closed] = due
		if s.closeStart != nil {
			s.closeStart[s.closed], s.closeEnd[s.closed] = start, end
		}
		s.closed++
	}
}
