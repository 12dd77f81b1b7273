package main

// The -net mode: the networked-ingest sweep behind the serving tier.
//
// Part "sweep" pairs two realizations of the same workload — "inproc"
// (sources call Engine.IngestBatch directly, batching K tuples per
// call) and "net" (sources are wire clients on loopback TCP sending one
// tuple per frame, with the SERVER coalescing K tuples per engine
// ingest) — across conns ∈ {1,2,4,8} × coalesce K ∈ {1,4,16,64}. Each
// cell reports msg/s, the job's p50/p99, allocs per frame (process-wide
// Mallocs delta over frames, so both sides of the socket are charged),
// and the speedup against the same path's K=1 cell. The net rows price
// the wire: K=1 pays one TryIngest, one Ack, and one syscall round per
// tuple; connection-scale coalescing amortizes all three, which is the
// tentpole claim (K≥16 must clear 3x the K=1 rate at equal conns).
//
// Part "overload" runs the net path against a tenant with a small
// MaxPending budget: blocking clients push far more than the budget
// admits, the server nacks refused flushes with retry-after hints, and
// the cell records the observed Pending() high-water mark (bounded by
// the budget's fair-share overshoot), nacked frames/tuples, and the
// conservation verdict created == executed + discarded.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	cameo "github.com/cameo-stream/cameo"
	"github.com/cameo-stream/cameo/internal/client"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

const (
	netWindow    = 10 * time.Millisecond
	netWindows   = 30
	netPerWindow = 128 // tuples per (conn, window); divisible by every K
	netWorkers   = 2
)

func netQuery(name string, conns, budget int) *cameo.Query {
	q := cameo.NewQuery(name).
		Sources(conns).
		LatencyTarget(time.Second).
		Aggregate("by-key", 2, cameo.Window(netWindow), cameo.Sum).
		AggregateGlobal("total", cameo.Window(netWindow), cameo.Sum)
	if budget > 0 {
		q.MaxPending(budget)
	}
	return q
}

// netTuple is the deterministic per-tuple generator both paths share.
func netTuple(seed uint64, conn, i int) (key int64, val float64) {
	z := seed ^ uint64(conn)<<32 ^ uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z % 32), float64(z%1000) / 100
}

// netResult is one measured cell. dur covers the ingest phase only —
// from the first send until every tuple is admitted (and, on the wire,
// every frame acked) — because that is the phase the protocol changes;
// the drain tail is identical across cells and would dilute the signal.
// msgs counts scheduler messages executed: it FALLS as K grows (the
// coalesced batch is one stage-0 message instead of K), which is the
// amortization itself, so the throughput metric is tuples/sec.
type netResult struct {
	tuples int64
	msgs   int64
	frames int64
	dur    time.Duration
	allocs float64 // process-wide allocations per frame
	p50    time.Duration
	p99    time.Duration
}

// netFinish advances every source past the last window and drains.
func netFinish(eng *cameo.Engine, job string, conns int) {
	for src := 0; src < conns; src++ {
		if err := eng.AdvanceProgress(job, src, time.Duration(netWindows+1)*netWindow); err != nil {
			fmt.Fprintln(os.Stderr, "cameo-bench:", err)
			os.Exit(1)
		}
	}
	if !eng.Drain(60 * time.Second) {
		fmt.Fprintln(os.Stderr, "cameo-bench: engine did not drain")
		os.Exit(1)
	}
}

// netRunInproc is the baseline: conns source goroutines calling
// Engine.IngestBatch directly with K-tuple batches (caller-side
// batching — the best the process boundary allows). Events are
// pre-rendered so the timed region measures ingest and scheduling.
func netRunInproc(conns, coalesce int, seed uint64) netResult {
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: netWorkers})
	if err := eng.Submit(netQuery("net", conns, 0)); err != nil {
		fmt.Fprintln(os.Stderr, "cameo-bench:", err)
		os.Exit(1)
	}
	eng.Start()
	defer eng.Stop()

	batchesPerWindow := netPerWindow / coalesce
	feeds := make([][][]cameo.Event, conns) // [conn][call]events
	for c := 0; c < conns; c++ {
		for w := 1; w <= netWindows; w++ {
			end := time.Duration(w) * netWindow
			for bi := 0; bi < batchesPerWindow; bi++ {
				evs := make([]cameo.Event, coalesce)
				for i := range evs {
					k, v := netTuple(seed, c, (w*netPerWindow)+bi*coalesce+i)
					evs[i] = cameo.Event{Time: end - time.Duration(i+1)*time.Microsecond, Key: k, Value: v}
				}
				feeds[c] = append(feeds[c], evs)
			}
		}
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for call, evs := range feeds[c] {
				w := call/batchesPerWindow + 1
				if err := eng.IngestBatch("net", c, evs, time.Duration(w)*netWindow); err != nil {
					fmt.Fprintln(os.Stderr, "cameo-bench:", err)
					os.Exit(1)
				}
			}
		}(c)
	}
	wg.Wait()
	dur := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	netFinish(eng, "net", conns)

	frames := int64(conns * netWindows * batchesPerWindow)
	res := netResult{tuples: int64(conns * netWindows * netPerWindow),
		msgs: eng.Executed(), frames: frames, dur: dur}
	res.allocs = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(frames)
	if st, err := eng.Stats("net"); err == nil {
		res.p50, res.p99 = st.P50, st.P99
	}
	return res
}

// netRunWire is the measured path: conns loopback connections, each a
// wire client sending ONE tuple per Events frame out of a reused batch
// (zero render allocations client-side), with the server coalescing
// `coalesce` tuples per engine ingest. Blocking sends ride the credit
// window; the job is unbudgeted so nothing is nacked and the cell's
// tuple count matches the inproc baseline exactly.
func netRunWire(conns, coalesce int, seed uint64) netResult {
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: netWorkers})
	if err := eng.Submit(netQuery("net", conns, 0)); err != nil {
		fmt.Fprintln(os.Stderr, "cameo-bench:", err)
		os.Exit(1)
	}
	eng.Start()
	defer eng.Stop()
	srv, err := eng.Serve("127.0.0.1:0", cameo.ServeConfig{FlushEvents: coalesce})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cameo-bench:", err)
		os.Exit(1)
	}
	defer srv.Shutdown(10 * time.Second)
	clients := make([]*client.Client, conns)
	for c := range clients {
		if clients[c], err = client.Dial(srv.Addr(), client.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "cameo-bench:", err)
			os.Exit(1)
		}
		defer clients[c].Close()
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	var wg sync.WaitGroup
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "cameo-bench:", err)
		os.Exit(1)
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := dataflow.NewBatch(1)
			for w := 1; w <= netWindows; w++ {
				end := time.Duration(w) * netWindow
				progress := vtime.FromStd(end)
				for i := 0; i < netPerWindow; i++ {
					k, v := netTuple(seed, c, w*netPerWindow+i)
					b.Times, b.Keys, b.Vals = b.Times[:0], b.Keys[:0], b.Vals[:0]
					b.Append(vtime.FromStd(end-time.Duration(i+1)*time.Microsecond), k, v)
					if err := clients[c].IngestBatch("net", c, b, progress); err != nil {
						fail(err)
					}
				}
			}
			if !clients[c].Flush(30 * time.Second) {
				fail(fmt.Errorf("conn %d frames did not settle: %+v", c, clients[c].Stats()))
			}
		}(c)
	}
	wg.Wait()
	dur := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	netFinish(eng, "net", conns)

	var frames int64
	for _, cl := range clients {
		st := cl.Stats()
		frames += st.SentFrames
		if st.NackedFrames != 0 {
			fail(fmt.Errorf("unbudgeted sweep cell was nacked: %+v", st))
		}
	}
	res := netResult{tuples: int64(conns * netWindows * netPerWindow),
		msgs: eng.Executed(), frames: frames, dur: dur}
	res.allocs = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(frames)
	if st, err := eng.Stats("net"); err == nil {
		res.p50, res.p99 = st.P50, st.P99
	}
	return res
}

// netOverloadRun pushes the wire against a budgeted tenant: conns
// blocking clients, frames of 4 tuples, budget far below the offered
// in-flight load. Returns the cell directly.
func netOverloadRun(conns int, seed uint64) netOvCell {
	const (
		budget    = 32
		perFrame  = 4
		ovWindows = 40
		ovFrames  = 8 // frames per (conn, window)
	)
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: netWorkers})
	if err := eng.Submit(netQuery("net", conns, budget)); err != nil {
		fmt.Fprintln(os.Stderr, "cameo-bench:", err)
		os.Exit(1)
	}
	eng.Start()
	defer eng.Stop()
	srv, err := eng.Serve("127.0.0.1:0", cameo.ServeConfig{FlushEvents: perFrame})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cameo-bench:", err)
		os.Exit(1)
	}
	defer srv.Shutdown(10 * time.Second)

	// Sample the engine's pending backlog while the clients push: the
	// admission claim is that it stays near the budget (fair-share
	// overshoot bounds it under 2x) no matter how hard the wire pushes.
	var maxPending int64
	stopSampling := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if p := int64(eng.Pending()); p > atomic.LoadInt64(&maxPending) {
				atomic.StoreInt64(&maxPending, p)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	clients := make([]*client.Client, conns)
	for c := range clients {
		if clients[c], err = client.Dial(srv.Addr(), client.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "cameo-bench:", err)
			os.Exit(1)
		}
		defer clients[c].Close()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := dataflow.NewBatch(perFrame)
			for w := 1; w <= ovWindows; w++ {
				end := time.Duration(w) * netWindow
				for f := 0; f < ovFrames; f++ {
					b.Times, b.Keys, b.Vals = b.Times[:0], b.Keys[:0], b.Vals[:0]
					for i := 0; i < perFrame; i++ {
						k, v := netTuple(seed, c, (w*ovFrames+f)*perFrame+i)
						b.Append(vtime.FromStd(end-time.Duration(i+1)*time.Microsecond), k, v)
					}
					// Blocking send: credit-window waits and nack
					// backoffs ARE the flow control under test.
					if err := clients[c].IngestBatch("net", c, b, vtime.FromStd(end)); err != nil {
						fmt.Fprintln(os.Stderr, "cameo-bench:", err)
						os.Exit(1)
					}
				}
			}
			if !clients[c].Flush(30 * time.Second) {
				fmt.Fprintf(os.Stderr, "cameo-bench: conn %d frames did not settle: %+v\n", c, clients[c].Stats())
				os.Exit(1)
			}
		}(c)
	}
	wg.Wait()
	for src := 0; src < conns; src++ {
		if err := eng.AdvanceProgress("net", src, time.Duration(ovWindows+1)*netWindow); err != nil {
			fmt.Fprintln(os.Stderr, "cameo-bench:", err)
			os.Exit(1)
		}
	}
	if !eng.Drain(60 * time.Second) {
		fmt.Fprintln(os.Stderr, "cameo-bench: engine did not drain")
		os.Exit(1)
	}
	dur := time.Since(start)
	close(stopSampling)
	samplerDone.Wait()

	var sent, acked, nackedFrames, nackedTuples int64
	for _, cl := range clients {
		st := cl.Stats()
		sent += st.SentFrames
		acked += st.AckedFrames
		nackedFrames += st.NackedFrames
		nackedTuples += st.NackedEvents
	}
	created, executed, discarded := eng.Created(), eng.Executed(), eng.Discarded()
	return netOvCell{
		Part: "overload", Conns: conns, Coalesce: perFrame, Budget: budget,
		OfferedFrames: int64(conns * ovWindows * ovFrames),
		MsgPerSec:     float64(executed) / dur.Seconds(),
		MaxPending:    atomic.LoadInt64(&maxPending),
		NackedFrames:  nackedFrames,
		NackedTuples:  nackedTuples,
		Created:       created,
		Executed:      executed,
		Discarded:     discarded,
		Conserved:     created == executed+discarded && sent == acked+nackedFrames,
	}
}

// netCell is the machine-readable form of one sweep cell (-json).
// MsgPerSec is ingested tuples per second of the ingest phase (on the
// net path every tuple is one wire message, so this is the wire's
// message rate); Executed counts scheduler messages, which SHRINKS as
// coalescing merges K tuples into one stage-0 message.
type netCell struct {
	Part           string  `json:"part"`
	Path           string  `json:"path"` // inproc | net
	Conns          int     `json:"conns"`
	Coalesce       int     `json:"coalesce"`
	MsgPerSec      float64 `json:"msg_per_sec"`
	Executed       int64   `json:"executed"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	AllocsPerFrame float64 `json:"allocs_per_frame"`
	P50MS          float64 `json:"p50_ms"`
	P99MS          float64 `json:"p99_ms"`
	// SpeedupVsK1 compares this cell against the same (path, conns)
	// coalesce=1 cell: the connection-scale batching win itself.
	SpeedupVsK1 float64 `json:"speedup_vs_coalesce1"`
}

type netOvCell struct {
	Part          string  `json:"part"`
	Conns         int     `json:"conns"`
	Coalesce      int     `json:"coalesce"`
	Budget        int     `json:"budget"`
	OfferedFrames int64   `json:"offered_frames"`
	MsgPerSec     float64 `json:"msg_per_sec"`
	MaxPending    int64   `json:"max_pending_observed"`
	NackedFrames  int64   `json:"nacked_frames"`
	NackedTuples  int64   `json:"nacked_tuples"`
	Created       int64   `json:"created"`
	Executed      int64   `json:"executed"`
	Discarded     int64   `json:"discarded"`
	Conserved     bool    `json:"conserved"`
}

type netReport struct {
	Workload string `json:"workload"`
	benchEnv
	Seed     uint64      `json:"seed"`
	Reps     int         `json:"reps"`
	Workers  int         `json:"workers"`
	Cells    []netCell   `json:"cells"`
	Overload []netOvCell `json:"overload_cells"`
}

func runNetSweep(seed uint64, reps int, jsonPath string) {
	env := captureEnv()
	fmt.Printf("networked-ingest sweep: %d windows x %d tuples per conn, %d workers (GOMAXPROCS=%d, best of %d)\n\n",
		netWindows, netPerWindow, netWorkers, env.GOMAXPROCS, reps)
	fmt.Printf("%-8s %6s %9s %12s %10s %14s %10s %10s %9s\n",
		"path", "conns", "coalesce", "tuples/s", "executed", "allocs/frame", "p50", "p99", "vs K=1")
	report := netReport{Workload: "net", benchEnv: env, Seed: seed, Reps: reps, Workers: netWorkers}
	for _, path := range []string{"inproc", "net"} {
		for _, conns := range []int{1, 2, 4, 8} {
			var baseRate float64
			for _, coalesce := range []int{1, 4, 16, 64} {
				var best netResult
				var bestRate float64
				for r := 0; r < reps; r++ {
					var res netResult
					if path == "net" {
						res = netRunWire(conns, coalesce, seed+uint64(r))
					} else {
						res = netRunInproc(conns, coalesce, seed+uint64(r))
					}
					if rate := float64(res.tuples) / res.dur.Seconds(); rate > bestRate {
						bestRate, best = rate, res
					}
				}
				if coalesce == 1 {
					baseRate = bestRate
				}
				speedup := 0.0
				if baseRate > 0 {
					speedup = bestRate / baseRate
				}
				fmt.Printf("%-8s %6d %9d %12.0f %10d %14.2f %10v %10v %8.2fx\n",
					path, conns, coalesce, bestRate, best.msgs, best.allocs,
					best.p50.Round(time.Millisecond), best.p99.Round(time.Millisecond), speedup)
				report.Cells = append(report.Cells, netCell{
					Part: "sweep", Path: path, Conns: conns, Coalesce: coalesce,
					MsgPerSec:      bestRate,
					Executed:       best.msgs,
					ElapsedMS:      float64(best.dur.Microseconds()) / 1000,
					AllocsPerFrame: best.allocs,
					P50MS:          float64(best.p50.Microseconds()) / 1000,
					P99MS:          float64(best.p99.Microseconds()) / 1000,
					SpeedupVsK1:    speedup,
				})
			}
		}
	}
	fmt.Printf("\noverload: budgeted tenant behind blocking wire clients (budget in stage-0 messages)\n")
	fmt.Printf("%6s %7s %9s %10s %10s %10s %10s\n",
		"conns", "budget", "offered", "maxPend", "nackedFr", "nackedTu", "conserved")
	for _, conns := range []int{4} {
		var best netOvCell
		for r := 0; r < reps; r++ {
			cell := netOverloadRun(conns, seed+uint64(r))
			if r == 0 || cell.MsgPerSec > best.MsgPerSec {
				best = cell
			}
		}
		fmt.Printf("%6d %7d %9d %10d %10d %10d %10v\n",
			best.Conns, best.Budget, best.OfferedFrames, best.MaxPending,
			best.NackedFrames, best.NackedTuples, best.Conserved)
		report.Overload = append(report.Overload, best)
		if !best.Conserved {
			fmt.Fprintln(os.Stderr, "cameo-bench: overload cell violated conservation")
			os.Exit(1)
		}
	}
	if jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cameo-bench: writing json:", err)
			os.Exit(1)
		}
		fmt.Printf("\n(machine-readable results written to %s)\n", jsonPath)
	}
}
