// Serving: networked ingest through the streaming wire protocol.
//
// An engine hosts two tenants and serves them on a loopback TCP
// listener (Engine.Serve). Remote sources ingest through cameo.Dial
// clients whose IngestBatch / TryIngestBatch mirror the Engine methods
// of the same names — the socket, the server-side coalescing, and the
// credit-window flow control are invisible to the dataflow:
//
//   - "dashboard" is well-provisioned: every window it sends must come
//     out exactly once. The demo runs an identical in-process reference
//     engine and exits non-zero if the served run loses or duplicates a
//     single window result.
//
//   - "firehose" runs over budget on purpose: its MaxPending budget is
//     tiny, so its credit window (budget / stage-0 parallelism) is tiny,
//     and a source pushing frames flat-out gets refused at the client —
//     ErrOverloaded before a byte hits the wire — and must retry. That
//     is the paper's admission story extended across the socket: the
//     over-budget tenant feels backpressure in its own connection while
//     the dashboard tenant's deadlines stay untouched. If admission
//     refuses a coalesced flush server-side, the refusal comes back as a
//     typed Nack with a retry-after hint; the client ledger counts it,
//     and the demo reconciles sent == acked + nacked to prove the wire
//     never silently drops a tuple.
//
//     go run ./examples/serving
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

const (
	window     = 20 * time.Millisecond
	dashWins   = 24 // dashboard windows, 16 events each per source
	fireWins   = 16 // firehose windows, 6 frames x 4 events each per source
	sources    = 2
	fireBudget = 4 // firehose MaxPending -> credit window 4/2 = 2 frames
)

func queries() []*cameo.Query {
	return []*cameo.Query{
		cameo.NewQuery("dashboard").
			Sources(sources).
			LatencyTarget(time.Second).
			Aggregate("by-key", 2, cameo.Window(window), cameo.Sum).
			AggregateGlobal("total", cameo.Window(window), cameo.Sum),
		cameo.NewQuery("firehose").
			Sources(sources).
			MaxPending(fireBudget).
			LatencyTarget(time.Second).
			Aggregate("by-key", 2, cameo.Window(window), cameo.Sum).
			AggregateGlobal("total", cameo.Window(window), cameo.Sum),
	}
}

func newEngine() *cameo.Engine {
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: 2})
	for _, q := range queries() {
		if err := eng.Submit(q); err != nil {
			log.Fatal(err)
		}
	}
	eng.Start()
	return eng
}

func events(n int, end time.Duration) []cameo.Event {
	out := make([]cameo.Event, n)
	for i := range out {
		out[i] = cameo.Event{Time: end - time.Duration(i+1)*time.Millisecond, Key: int64(i % 8), Value: 1}
	}
	return out
}

// ingester is the slice of the ingest API the feeds need — satisfied by
// both *cameo.Engine and *cameo.Client, which is the point of the demo:
// the source code cannot tell which side of the socket it is on.
type ingester interface {
	TryIngestBatch(job string, source int, events []cameo.Event, progress time.Duration) error
}

// feedDashboard sends one 16-event batch per (window, source), retrying
// the rare refusal; the well-provisioned tenant effectively never waits.
func feedDashboard(in ingester) int {
	retries := 0
	for w := 1; w <= dashWins; w++ {
		progress := time.Duration(w) * window
		for src := 0; src < sources; src++ {
			retries += pump(in, "dashboard", src, events(16, progress), progress)
		}
	}
	return retries
}

// feedFirehose pushes 6 small frames per (window, source) flat-out —
// far more in-flight than the tenant's credit window allows, so pump's
// retry counter is the pushback made visible.
func feedFirehose(in ingester) int {
	retries := 0
	for w := 1; w <= fireWins; w++ {
		progress := time.Duration(w) * window
		for src := 0; src < sources; src++ {
			for f := 0; f < 6; f++ {
				retries += pump(in, "firehose", src, events(4, progress), progress)
			}
		}
	}
	return retries
}

// pump retries TryIngestBatch through overload refusals — the loop every
// flow-controlled source runs, local or remote. Remotely the refusal is
// the credit window or a Nack's retry-after backoff; locally it is the
// admission budget itself. Either way the tuples are never lost: a
// refused call handed nothing over.
func pump(in ingester, job string, src int, evs []cameo.Event, progress time.Duration) (retries int) {
	for {
		err := in.TryIngestBatch(job, src, evs, progress)
		if err == nil {
			return retries
		}
		if !errors.Is(err, cameo.ErrOverloaded) && !errors.Is(err, cameo.ErrJobPaused) {
			log.Fatalf("ingest %s/%d: %v", job, src, err)
		}
		retries++
		time.Sleep(500 * time.Microsecond)
	}
}

func finish(eng *cameo.Engine) (dash, fire int) {
	for _, job := range []string{"dashboard", "firehose"} {
		for src := 0; src < sources; src++ {
			if err := eng.AdvanceProgress(job, src, time.Duration(dashWins+1)*window); err != nil {
				log.Fatal(err)
			}
		}
	}
	if !eng.Drain(10 * time.Second) {
		log.Fatal("engine did not drain")
	}
	d, err := eng.Stats("dashboard")
	if err != nil {
		log.Fatal(err)
	}
	f, err := eng.Stats("firehose")
	if err != nil {
		log.Fatal(err)
	}
	return d.Outputs, f.Outputs
}

// reference runs both feeds against an in-process engine — the ground
// truth the served run must reproduce window for window.
func reference() (dash, fire int) {
	eng := newEngine()
	defer eng.Stop()
	feedDashboard(eng)
	feedFirehose(eng)
	return finish(eng)
}

func main() {
	refDash, refFire := reference()
	fmt.Printf("reference (in-process): dashboard %d windows, firehose %d windows\n", refDash, refFire)

	eng := newEngine()
	defer eng.Stop()
	// The zero ServeConfig: each window's first frame closes the previous
	// window and is flushed at once; the frames after it coalesce only
	// with what arrived in the same socket read and are flushed before the
	// server waits again. A firehose source that has spent its credit
	// window of 2 stops writing, so its frames are acked a round trip
	// later — the ack cadence that keeps its tiny window honest.
	srv, err := eng.Serve("127.0.0.1:0", cameo.ServeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving on %s\n", srv.Addr())

	// One connection per tenant, like a real deployment: each tenant's
	// credit windows and nack backoffs live in its own connection.
	dashClient, err := cameo.Dial(srv.Addr(), cameo.DialOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer dashClient.Close()
	fireClient, err := cameo.Dial(srv.Addr(), cameo.DialOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer fireClient.Close()

	dashRetries := feedDashboard(dashClient)
	fireRetries := feedFirehose(fireClient)

	// Settle every in-flight frame so the ledgers below are final.
	for name, c := range map[string]*cameo.Client{"dashboard": dashClient, "firehose": fireClient} {
		if !c.Flush(10 * time.Second) {
			log.Fatalf("%s frames did not settle: %+v (%v)", name, c.Stats(), c.Err())
		}
	}
	servedDash, servedFire := finish(eng)
	srv.Shutdown(5 * time.Second)

	ds, fs := dashClient.Stats(), fireClient.Stats()
	fmt.Printf("dashboard: %d windows over the wire (%d frames acked, %d retries)\n",
		servedDash, ds.AckedFrames, dashRetries)
	fmt.Printf("firehose:  %d windows over the wire (%d frames acked, %d nacked, %d pushback retries)\n",
		servedFire, fs.AckedFrames, fs.NackedFrames, fireRetries)

	// The checks the demo exists for. First conservation: every frame a
	// client sent has a verdict, and the server's ledger agrees tuple for
	// tuple (WireStats.Events counts decoded tuples).
	ws := srv.WireStats()
	ok := true
	for name, st := range map[string]cameo.ClientStats{"dashboard": ds, "firehose": fs} {
		if st.SentFrames != st.AckedFrames+st.NackedFrames {
			fmt.Printf("FAIL: %s ledger broken: sent %d != acked %d + nacked %d\n",
				name, st.SentFrames, st.AckedFrames, st.NackedFrames)
			ok = false
		}
	}
	if got := ws.FlushedEvents + ws.NackedEvents + ws.BufferedEvents; got != ws.Events {
		fmt.Printf("FAIL: server dropped tuples: decoded %d, accounted %d\n", ws.Events, got)
		ok = false
	}
	// Then exactness where it must be exact: the well-provisioned tenant
	// has no budget to hit, so the wire may not lose or duplicate a
	// single window result.
	if ds.NackedFrames != 0 {
		fmt.Printf("FAIL: dashboard saw %d nacks despite having no budget\n", ds.NackedFrames)
		ok = false
	}
	if servedDash != refDash {
		fmt.Printf("FAIL: dashboard windows lost or duplicated: served %d, reference %d\n", servedDash, refDash)
		ok = false
	}
	// The over-budget tenant is allowed to be refused (that is the
	// demonstration) but never silently shorted: with zero nacks its
	// output must match the reference exactly; with nacks it can only
	// have fewer windows, and the shortfall is visible in the ledger.
	if fs.NackedFrames == 0 && servedFire != refFire {
		fmt.Printf("FAIL: firehose windows lost or duplicated with zero nacks: served %d, reference %d\n",
			servedFire, refFire)
		ok = false
	}
	if servedFire > refFire {
		fmt.Printf("FAIL: firehose produced duplicate windows: served %d, reference %d\n", servedFire, refFire)
		ok = false
	}
	if !ok {
		log.Fatal("serving demo failed")
	}
	fmt.Println("OK: wire ingest conserved every tuple; well-provisioned tenant exact, over-budget tenant flow-controlled")
}
