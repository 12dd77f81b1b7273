package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

// workers is the engine's worker-pool size in every workload.
const workers = 2

// A run sets the system up at least minSetups times, and goes on (up to
// maxSetups) until set-up has taken setupBudget in all, so that a workload
// whose set-up takes a fraction of a millisecond still reports a steady
// median. setup_s is that median; the last system built is the one that
// runs.
const (
	minSetups   = 9
	maxSetups   = 1001
	setupBudget = 300 * time.Millisecond
)

// rig is one set-up system: engine, and on the wire the listener and one
// client per generator.
type rig struct {
	eng     *cameo.Engine
	srv     *cameo.Server
	clients []*cameo.Client
	plan    *plan
	down    bool
}

// setUp builds everything the measured phase needs: engine, one query per
// tenant, workers started; on the wire a listener, one connection per
// generator and every stream bound; and the pre-rendered schedule.
func setUp(p *plan, engWorkers int) (*rig, error) {
	r := &rig{plan: p, eng: cameo.NewEngine(cameo.EngineConfig{Workers: engWorkers})}
	for _, t := range p.tenants {
		if err := r.eng.Submit(t.query()); err != nil {
			return nil, fmt.Errorf("submit %s: %w", t.name, err)
		}
	}
	r.eng.Start()
	if !p.w.wire {
		return r, nil
	}
	srv, err := r.eng.Serve("127.0.0.1:0", cameo.ServeConfig{})
	if err != nil {
		r.tearDown()
		return nil, err
	}
	r.srv = srv
	for g := 0; g < generators; g++ {
		c, err := cameo.Dial(srv.Addr(), cameo.DialOptions{})
		if err != nil {
			r.tearDown()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	// A stream binds on its first send; a data-free advance to the clock
	// origin binds it now, so the first measured batch does not pay for it.
	for _, s := range p.streams {
		if err := r.clients[s.gen].AdvanceProgress(s.job, s.source, 0); err != nil {
			r.tearDown()
			return nil, fmt.Errorf("bind %s/%d: %w", s.job, s.source, err)
		}
	}
	for _, c := range r.clients {
		if !c.Flush(5 * time.Second) {
			r.tearDown()
			return nil, fmt.Errorf("bind: acks did not settle")
		}
	}
	return r, nil
}

// tearDown closes the clients, shuts the listener down and stops the
// engine. Engine.Stop waits for the workers, which orders every probe
// write before whatever the caller reads next.
func (r *rig) tearDown() {
	if r.down {
		return
	}
	r.down = true
	for _, c := range r.clients {
		c.Close()
	}
	if r.srv != nil {
		r.srv.Shutdown(5 * time.Second)
	}
	r.eng.Stop()
}

// counters is a snapshot of the process- and engine-wide counters the
// measured phase is bracketed with.
type counters struct {
	wall     time.Time
	cpu      time.Duration // user + sys
	sys      time.Duration
	switches int64 // context switches, voluntary and not
	ipis     int64 // box-wide, see crossCPUInterrupts
	mem      runtime.MemStats
	executed int64
}

func snapshot(eng *cameo.Engine) counters {
	c := counters{wall: time.Now(), executed: eng.Executed(), ipis: crossCPUInterrupts()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.sys = time.Duration(ru.Stime.Nano())
		c.switches = ru.Nvcsw + ru.Nivcsw
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// crossCPUInterrupts is the box's count of interrupts one CPU sent another
// (/proc/interrupts rows RES and CAL: rescheduling and remote wake-ups), or
// 0 where that file does not exist. Nothing else runs on the box during a
// run, so its growth says how often the process's threads woke each other
// across CPUs — see README.md, "Keeping the CPUs awake".
func crossCPUInterrupts() int64 {
	b, err := os.ReadFile("/proc/interrupts")
	if err != nil {
		return 0
	}
	var n int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || (f[0] != "RES:" && f[0] != "CAL:") {
			continue
		}
		for _, c := range f[1:] {
			v, err := strconv.ParseInt(c, 10, 64)
			if err != nil {
				break // the row's description
			}
			n += v
		}
	}
	return n
}

// driven is what one pass of load over a rig leaves behind.
type driven struct {
	gens             []*generator
	before, after    counters // start of the measured phase, end of the drain
	settled, drained bool
}

// drive arms the plan and runs the generators through warm-up and the
// measured phase, then waits for the wire to settle and the engine to
// drain. atMeasure, if set, runs when warm-up ends, just before the
// starting snapshot.
func (r *rig) drive(traced bool, atMeasure func() error) (*driven, error) {
	p := r.plan
	p.arm(r.eng.Now(), time.Now(), traced)
	d := &driven{gens: make([]*generator, generators)}
	for g := range d.gens {
		d.gens[g] = &generator{p: p, in: r.eng, ops: p.ops[g], traced: traced}
		if p.w.wire {
			d.gens[g].in = r.clients[g]
		}
	}
	for _, s := range p.streams {
		d.gens[s.gen].mine = append(d.gens[s.gen].mine, s)
	}
	var wg sync.WaitGroup
	for _, g := range d.gens {
		wg.Add(1)
		go func(g *generator) {
			defer wg.Done()
			if p.w.closed {
				g.runClosed()
			} else {
				g.runOpen()
			}
		}(g)
	}
	time.Sleep(time.Until(p.base.Add(time.Duration(p.warm))))
	var err error
	if atMeasure != nil {
		err = atMeasure()
	}
	d.before = snapshot(r.eng)
	wg.Wait()
	d.settled = true
	for _, c := range r.clients {
		d.settled = c.Flush(10*time.Second) && d.settled
	}
	d.drained = r.eng.Drain(30 * time.Second)
	d.after = snapshot(r.eng)
	return d, err
}

// runOpts selects how one workload run is made.
type runOpts struct {
	seed    uint64
	warm    time.Duration // 0 = warmup
	measure time.Duration
	traced  bool
	slow    int    // 1 = the benchmark's rates; tests use 10
	outDir  string // result and trace files go here; "" writes none
	probeMS int    // traced runs: budget of one probe repeat
	// corrupt, tests only: called after the run, before checking, so a
	// deliberately wrong expectation can be shown to be caught.
	corrupt func(*plan)
}

// runWorkload sets the system up, runs warm-up and the measured phase,
// drains, checks every result and invariant, and reports.
func runWorkload(name string, o runOpts) (*report, error) {
	w, err := findWorkload(name, o.slow)
	if err != nil {
		return nil, err
	}
	if o.warm == 0 {
		o.warm = warmup
	}
	rep := newReport(name, o)

	var r *rig
	var setupS []float64
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if r != nil {
			r.tearDown()
		}
		runtime.GC() // each set-up starts from the same heap
		start := time.Now()
		if r, err = setUp(newPlan(w, o.seed, o.warm, o.measure), workers); err != nil {
			return nil, err
		}
		spent += time.Since(start)
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer r.tearDown()
	p := r.plan

	var tr *tracer
	d, err := r.drive(o.traced, func() (err error) {
		if o.traced {
			tr, err = startTracer(r.eng)
		}
		return err
	})
	if tr != nil {
		tr.stop()
	}
	if err != nil {
		return nil, err
	}
	// Two collections: the first only moves sync.Pool contents to the
	// victim cache. What is left is what the system holds on to — window
	// state, bounded free lists, and the recorder's history — not however
	// many batches the deepest backlog of this run happened to need.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	// Invariants, read while the system is still up and quiet.
	inv := &rep.Invariants
	inv.check(d.settled, "client acks settled within 10 s")
	inv.check(d.drained, "engine drained within 30 s")
	cr, ex, di := r.eng.Created(), r.eng.Executed(), r.eng.Discarded()
	inv.check(cr == ex+di, "conservation: created %d == executed %d + discarded %d", cr, ex, di)
	var cs cameo.ClientStats
	for _, c := range r.clients {
		st := c.Stats()
		inv.check(st.SentFrames == st.AckedFrames+st.NackedFrames && st.SentEvents == st.AckedEvents+st.NackedEvents,
			"client ledger: sent %d/%d == acked %d/%d + nacked %d/%d (frames/events)",
			st.SentFrames, st.SentEvents, st.AckedFrames, st.AckedEvents, st.NackedFrames, st.NackedEvents)
		inv.check(c.Err() == nil, "client connection healthy: %v", c.Err())
		cs.SentEvents += st.SentEvents
		cs.NackedEvents += st.NackedEvents
	}
	var ws cameo.WireStats
	if r.srv != nil {
		ws = r.srv.WireStats()
		inv.check(ws.Events == ws.FlushedEvents+ws.NackedEvents && ws.BufferedEvents == 0,
			"wire ledger: decoded %d == flushed %d + nacked %d, buffered %d",
			ws.Events, ws.FlushedEvents, ws.NackedEvents, ws.BufferedEvents)
		inv.check(ws.ProtocolErrors == 0, "wire: %d protocol errors", ws.ProtocolErrors)
	}
	for g, gen := range d.gens {
		inv.check(gen.errs == 0, "generator %d: %d ingest calls failed, first: %v", g, gen.errs, gen.firstErr)
	}

	r.tearDown()
	if o.corrupt != nil {
		o.corrupt(p)
	}
	v := p.verify()
	rep.Check = v.check
	c := v.check
	inv.check(c.Wrong+c.Missing+c.Duplicate+c.Unexpected == 0,
		"results: %d wrong, %d missing, %d duplicated, %d unexpected; %d expected in the measured phase",
		c.Wrong, c.Missing, c.Duplicate, c.Unexpected, c.Expected)
	for _, f := range inv.Failed {
		fmt.Fprintln(os.Stderr, "INVALID:", f)
	}

	// End-to-end metrics.
	wall := d.after.wall.Sub(d.before.wall).Seconds()
	tuples := float64(max(v.tuplesOK, 1))
	cpuUS := float64((d.after.cpu - d.before.cpu).Microseconds())
	lat, nLat := cycleQuantiles(v.latLS, 0.50, 0.95)
	var pooled []float64
	for _, c := range v.latLS {
		pooled = append(pooled, c...)
	}
	sort.Float64s(pooled)
	rep.PooledLatMS = map[string]float64{
		"p50": quantile(pooled, 0.50), "p95": quantile(pooled, 0.95), "p99": quantile(pooled, 0.99), "max": quantile(pooled, 1),
	}
	rep.Attempted, rep.Failed = v.tuplesOffered, v.tuplesOffered-v.tuplesOK
	rep.add("setup_s", "s", median(setupS), len(setupS))
	rep.add("tuples_per_s", "1/s", tuples/wall, int(v.tuplesOK))
	rep.add("lat_p95_ms", "ms", lat[1], nLat)
	rep.add("deadline_met_frac", "fraction", float64(v.met)/float64(max(c.Expected, 1)), c.Expected)
	rep.add("live_heap_mb", "MiB", float64(live.HeapAlloc)/(1<<20), 1)

	rep.addUngated("lat_p50_ms", "ms", lat[0], nLat)
	rep.addUngated("lat_p99_ms", "ms", rep.PooledLatMS["p99"], nLat)
	rep.addUngated("cpu_us_per_tuple", "us", cpuUS/tuples, int(v.tuplesOK))
	rep.addUngated("alloc_bytes_per_tuple", "B", float64(d.after.mem.TotalAlloc-d.before.mem.TotalAlloc)/tuples, int(v.tuplesOK))
	rep.addUngated("failed_frac", "fraction", float64(rep.Failed)/float64(max(rep.Attempted, 1)), int(rep.Attempted))

	var lag hist
	for _, g := range d.gens {
		lag.merge(&g.lag)
	}
	rep.GenLagP99US = lag.quantile(0.99) / 1e3
	if rep.GenLagP99US > 1000 {
		rep.Suspect = append(rep.Suspect, fmt.Sprintf(
			"gen.lag_p99_us = %.0f > 1000: the generator ran late, latencies include its lag", rep.GenLagP99US))
	}

	if o.traced {
		l := &layerInputs{plan: p, d: d, verdict: v, wire: ws, client: cs, cpuUS: cpuUS, tuples: tuples, lag: &lag}
		if err := tr.finish(rep, l, o); err != nil {
			return nil, err
		}
	}
	return rep, rep.save(o.outDir)
}
