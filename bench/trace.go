package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

// tracer is everything a traced run records beside the untraced run's
// counters: a CPU and a mutex profile of the measured phase, and samplers
// for the engine's pending count and the live heap. Spans are rebuilt
// afterwards from the closers' timestamps the generators kept.
type tracer struct {
	cpu          bytes.Buffer
	mutexBefore  map[string]float64
	pending      []int32 // Engine.Pending every pendingEvery
	heapPeak     uint64
	stopCh, done chan struct{}
}

const (
	pendingEvery = 5 * time.Millisecond
	// mutexFraction samples one contention event in ten; the profile scales
	// the sampled delays back up.
	mutexFraction = 10
	// spanEvery: one result in sixteen is written out as spans.
	spanEvery = 16
)

func mutexByLayer() (map[string]float64, error) {
	var b bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&b, 0); err != nil {
		return nil, err
	}
	return foldProfile(b.Bytes(), 1) // value 1 is delay in ns
}

func startTracer(eng *cameo.Engine) (*tracer, error) {
	t := &tracer{stopCh: make(chan struct{}), done: make(chan struct{})}
	runtime.SetMutexProfileFraction(mutexFraction)
	var err error
	if t.mutexBefore, err = mutexByLayer(); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&t.cpu); err != nil {
		return nil, err
	}
	go func() {
		defer close(t.done)
		tk := time.NewTicker(pendingEvery)
		defer tk.Stop()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for n := 0; ; n++ {
			select {
			case <-t.stopCh:
				return
			case <-tk.C:
				t.pending = append(t.pending, int32(eng.Pending()))
				if n%20 == 0 { // every 100 ms; metrics.Read does not stop the world
					metrics.Read(heap)
					if v := heap[0].Value.Uint64(); v > t.heapPeak {
						t.heapPeak = v
					}
				}
			}
		}
	}()
	return t, nil
}

// stop ends the profiles and the samplers; it returns once the sampler
// goroutine has exited.
func (t *tracer) stop() {
	pprof.StopCPUProfile()
	close(t.stopCh)
	<-t.done
}

// layerInputs is what the run hands over for the per-layer figures.
type layerInputs struct {
	plan          *plan
	d             *driven
	verdict       *verdict
	wire          cameo.WireStats
	client        cameo.ClientStats
	cpuUS, tuples float64
	lag           *hist
}

// layerShareNames are the layers whose CPU share is reported.
var layerShareNames = []string{
	"wire", "client", "server", "runtime", "queue", "core", "dataflow",
	"operators", "progress", "metrics", "api", "gen",
}

// finish turns the traced run's recordings into per-layer metrics and
// writes the span file.
func (t *tracer) finish(rep *report, l *layerInputs, o runOpts) error {
	add := rep.addLayer
	us := func(ns float64) float64 { return ns / 1e3 }

	// CPU by layer.
	cpu, err := foldProfile(t.cpu.Bytes(), 1) // value 1 is cpu ns
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	total := 0.0
	for _, v := range cpu {
		total += v
	}
	if total == 0 {
		total = 1
	}
	for _, name := range layerShareNames {
		add(name+".cpu_share", "fraction", cpu[name]/total)
	}
	add("net.syscall_cpu_share", "fraction", cpu["net.syscall"]/total)
	add("proc.gc_cpu_share", "fraction", cpu["proc.gc"]/total)
	add("proc.sched_cpu_share", "fraction", cpu["proc.sched"]/total)

	// Mutex wait by layer, over the measured phase.
	mu, err := mutexByLayer()
	if err != nil {
		return fmt.Errorf("mutex profile: %w", err)
	}
	runtime.SetMutexProfileFraction(0)
	for _, name := range []string{"server", "runtime", "metrics"} {
		add(name+".mutex_wait_ms", "ms", (mu[name]-t.mutexBefore[name])/1e6)
	}

	// Calls into the ingest API, as the generators timed them.
	var call, reject hist
	var accepts, rejects int64
	for _, g := range l.d.gens {
		call.merge(&g.call)
		reject.merge(&g.reject)
		accepts += g.accepts
		rejects += g.rejects
	}
	clientCall, engineCall := &hist{}, &call
	if l.plan.w.wire {
		clientCall, engineCall = &call, &hist{}
	}
	add("client.send_call_p50_us", "us", us(clientCall.quantile(0.50)))
	add("client.send_call_p99_us", "us", us(clientCall.quantile(0.99)))
	add("runtime.ingest_call_p50_us", "us", us(engineCall.quantile(0.50)))
	add("runtime.ingest_call_p99_us", "us", us(engineCall.quantile(0.99)))
	add("runtime.try_reject_ns", "ns", reject.quantile(0.50))
	add("runtime.rejects_per_accept", "ratio", float64(rejects)/float64(max(accepts, 1)))
	add("client.nacked_frac", "fraction", float64(l.client.NackedEvents)/float64(max(l.client.SentEvents, 1)))
	add("server.events_per_flush", "count", float64(l.wire.FlushedEvents)/float64(max(l.wire.Flushes, 1)))

	// Ingest return -> probe, per measured result.
	transit := make([]float64, 0, len(l.verdict.rows))
	for _, r := range l.verdict.rows {
		transit = append(transit, us(float64(r.at-r.end)))
	}
	sort.Float64s(transit)
	add("runtime.transit_p50_us", "us", quantile(transit, 0.50))
	add("runtime.transit_p99_us", "us", quantile(transit, 0.99))
	add("runtime.msgs_per_tuple", "ratio", float64(l.d.after.executed-l.d.before.executed)/l.tuples)

	pend := make([]float64, len(t.pending))
	for i, v := range t.pending {
		pend[i] = float64(v)
	}
	sort.Float64s(pend)
	add("runtime.pending_p50", "count", quantile(pend, 0.50))
	add("runtime.pending_max", "count", quantile(pend, 1))

	// The Go runtime as a layer.
	m0, m1 := &l.d.before.mem, &l.d.after.mem
	add("proc.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	add("proc.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	add("proc.allocs_per_tuple", "count", float64(m1.Mallocs-m0.Mallocs)/l.tuples)
	add("proc.heap_peak_mb", "MiB", float64(t.heapPeak)/(1<<20))
	secs := l.d.after.wall.Sub(l.d.before.wall).Seconds()
	add("proc.sys_cpu_share", "fraction", float64(l.d.after.sys-l.d.before.sys)/float64(max(l.d.after.cpu-l.d.before.cpu, 1)))
	add("proc.ctx_switches_per_s", "1/s", float64(l.d.after.switches-l.d.before.switches)/secs)
	add("proc.ipis_per_s", "1/s", float64(l.d.after.ipis-l.d.before.ipis)/secs)

	// The instrument itself.
	add("gen.lag_p50_us", "us", us(l.lag.quantile(0.50)))
	add("gen.lag_p99_us", "us", us(l.lag.quantile(0.99)))
	for _, name := range ungated {
		add("e2e."+name, rep.Ungated[name].Unit, rep.Ungated[name].Value)
	}
	overhead := 0.0
	if base := lastUntraced(o.outDir, rep.Workload); base > 0 {
		overhead = l.cpuUS/l.tuples/base - 1
	}
	add("trace.overhead_frac", "fraction", overhead)

	for _, probe := range probes {
		if err := probe(time.Duration(o.probeMS)*time.Millisecond, rep.addLayer); err != nil {
			return err
		}
	}
	if o.outDir == "" {
		return nil
	}
	return t.writeSpans(rep, l, o.outDir)
}

// span is one timed interval of one result. Spans of a result share its
// trace id; a child names its parent. Times are µs since the run's origin
// (the first warm-up tick is due at 1000).
type span struct {
	Trace   int     `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Tenant  string  `json:"tenant,omitempty"`
	Window  int     `json:"window,omitempty"`
}

type traceFile struct {
	Env       envStamp `json:"env"`
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	SpanEvery int      `json:"span_every"`
	Spans     []span   `json:"spans"`
	// Pending is Engine.Pending sampled every PendingEveryMS from the start
	// of the measured phase to the end of the drain.
	PendingEveryMS float64 `json:"pending_every_ms"`
	Pending        []int32 `json:"pending"`
}

func (t *tracer) writeSpans(rep *report, l *layerInputs, outDir string) error {
	call := "ingest.call"
	if l.plan.w.wire {
		call = "client.send_call"
	}
	tf := traceFile{
		Env: rep.Env, Workload: rep.Workload, Seed: rep.Seed, SpanEvery: spanEvery,
		PendingEveryMS: float64(pendingEvery) / 1e6, Pending: t.pending,
	}
	id := 0
	for i, r := range l.verdict.rows {
		if i%spanEvery != 0 {
			continue
		}
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		root := id + 1
		tf.Spans = append(tf.Spans,
			span{Trace: i, ID: root, Name: "result", StartUS: us(r.due), EndUS: us(r.at),
				Tenant: l.plan.tenants[r.tenant].name, Window: r.window},
			span{Trace: i, ID: root + 1, Parent: root, Name: "gen.lag", StartUS: us(r.due), EndUS: us(r.start)},
			span{Trace: i, ID: root + 2, Parent: root, Name: call, StartUS: us(r.start), EndUS: us(r.end)},
			span{Trace: i, ID: root + 3, Parent: root, Name: "transit", StartUS: us(r.end), EndUS: us(r.at)},
		)
		id += 4
	}
	return writeJSON(filepath.Join(outDir, "trace-"+rep.Workload+".json"), tf)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
