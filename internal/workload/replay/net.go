package replay

import (
	"fmt"
	"sync"
	"time"

	"github.com/cameo-stream/cameo/internal/client"
	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/server"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/workload"
)

// EngineNet replays spec on the real-time engine through a loopback wire
// session: an internal/server listener in front of the engine, one
// internal/client connection per tenant, and the same paced open-loop
// sources as Engine — except each batch crosses a real TCP socket, gets
// coalesced by the server, and is flow-controlled by per-tenant credit
// windows. The verdict is Mode "net" and adds the wire ledger: per-tenant
// WireNackedFrames/WireNackedTuples, with ShedFrac counting wire refusals
// tuple-weighted.
//
// Unlike the in-process Engine driver (whose open-loop sources drop a
// refused batch and move on), net sources block on credit — the wire
// tier's pushback IS the flow control — and a coalesced flush the
// admission layer refuses comes back as a Nack, counted here. Every run
// self-checks its ledger: tuples sent == acked + nacked on each client,
// and the server's decode/flush/nack counts must reconcile with the sum
// of the clients' — a mismatch fails the replay rather than skewing the
// verdict silently.
func EngineNet(spec *workload.Spec) (*Verdict, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg, err := EngineConfigFor(spec)
	if err != nil {
		return nil, err
	}
	eng := runtime.New(cfg)
	feeds := make([]*workload.Feed, len(spec.Tenants))
	for i := range spec.Tenants {
		feed, err := spec.FeedFor(i)
		if err != nil {
			return nil, err
		}
		feeds[i] = feed
		if _, err := eng.AddJob(spec.Tenants[i].JobSpec()); err != nil {
			return nil, err
		}
	}
	eng.Start()
	srv := server.New(eng, server.Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		eng.Stop()
		return nil, err
	}
	fail := func(err error) (*Verdict, error) {
		srv.Shutdown(5 * time.Second)
		eng.Stop()
		return nil, err
	}

	// One connection per tenant so the client ledgers are per-tenant.
	clients := make([]*client.Client, len(spec.Tenants))
	for i := range spec.Tenants {
		c, err := client.Dial(addr.String(), client.Options{})
		if err != nil {
			return fail(err)
		}
		clients[i] = c
	}
	srcOffers := make([][]offered, len(spec.Tenants))
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	for i := range spec.Tenants {
		t := &spec.Tenants[i]
		srcOffers[i] = make([]offered, t.Sources)
		for s := 0; s < t.Sources; s++ {
			wg.Add(1)
			go func(name string, c *client.Client, feed *workload.Feed, src int, off *offered) {
				defer wg.Done()
				for {
					b, p, at, ok := feed.Next(src)
					if !ok {
						return
					}
					// Pace on the engine clock, exactly like the in-process
					// driver, so the offered-load schedule is identical.
					for {
						now := eng.Now()
						if now >= at {
							break
						}
						time.Sleep(vtime.Std(at - now))
					}
					if b == nil {
						continue
					}
					off.batches++
					off.tuples += int64(b.Len())
					// Blocks while the credit window is full or a Nack
					// backoff is in force — the wire tier's flow control.
					// A refused flush surfaces later as a Nack, not here.
					if err := c.IngestBatch(name, src, b, p); err != nil {
						select {
						case errs <- fmt.Errorf("replay: net ingest %s/%d: %w", name, src, err):
						default:
						}
						return
					}
				}
			}(t.Name, clients[i], feeds[i], s, &srcOffers[i][s])
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		return fail(err)
	default:
	}
	// Settle every tenant's tail: Flush has the server clear partial
	// coalesce buffers, so each client's in-flight frames all resolve.
	clientStats := make([]client.Stats, len(clients))
	for i, c := range clients {
		if !c.Flush(30 * time.Second) {
			return fail(fmt.Errorf("replay: tenant %q wire frames did not settle: %+v, err %v",
				spec.Tenants[i].Name, c.Stats(), c.Err()))
		}
		clientStats[i] = c.Stats()
		c.Close()
	}
	if !srv.Shutdown(10 * time.Second) {
		eng.Stop()
		return nil, fmt.Errorf("replay: server did not shut down")
	}
	if !eng.Drain(60 * time.Second) {
		eng.Stop()
		return nil, fmt.Errorf("replay: engine failed to drain within 60s")
	}
	eng.Stop()

	// Ledger self-check: what the clients sent must equal what the server
	// decoded, and every tuple must have been flushed or nacked.
	var sent, acked, nacked int64
	for _, cs := range clientStats {
		sent += cs.SentEvents
		acked += cs.AckedEvents
		nacked += cs.NackedEvents
		if cs.SentEvents != cs.AckedEvents+cs.NackedEvents {
			return nil, fmt.Errorf("replay: client ledger broken: sent %d != acked %d + nacked %d",
				cs.SentEvents, cs.AckedEvents, cs.NackedEvents)
		}
	}
	ss := srv.Stats()
	if ss.Events != sent || ss.FlushedEvents != acked || ss.NackedEvents != nacked || ss.BufferedEvents != 0 {
		return nil, fmt.Errorf("replay: wire ledgers disagree: server decoded %d flushed %d nacked %d buffered %d; "+
			"clients sent %d acked %d nacked %d",
			ss.Events, ss.FlushedEvents, ss.NackedEvents, ss.BufferedEvents, sent, acked, nacked)
	}

	offers := make([]*offered, len(spec.Tenants))
	for i := range srcOffers {
		offers[i] = &offered{}
		for s := range srcOffers[i] {
			offers[i].batches += srcOffers[i][s].batches
			offers[i].tuples += srcOffers[i][s].tuples
		}
	}
	v := &Verdict{
		Mode: "net", Spec: spec.Name, Seed: spec.Seed,
		Messages:      eng.Executed(),
		Created:       eng.Created(),
		Discarded:     eng.Discarded(),
		HandlerPanics: eng.HandlerPanics(),
	}
	for i := range spec.Tenants {
		t := &spec.Tenants[i]
		tv := tenantVerdict(t, eng.Recorder(), offers[i])
		cs := clientStats[i]
		tv.WireNackedFrames = cs.NackedFrames
		tv.WireNackedTuples = cs.NackedEvents
		// Wire refusals are tuple-granular (a Nack covers a coalesced
		// flush), so the shed fraction weighs them against offered tuples
		// instead of re-using the in-process batch*fan_out approximation.
		tv.ShedFrac = 0
		if tv.OfferedBatches > 0 {
			tv.ShedFrac = float64(tv.Shed) / float64(tv.OfferedBatches*int64(t.FanOut))
		}
		if tv.OfferedTuples > 0 {
			tv.ShedFrac += float64(tv.WireNackedTuples) / float64(tv.OfferedTuples)
		}
		tv.PassShed = tv.ShedFrac <= t.SLO.MaxShedFrac
		tv.Pass = tv.PassLatency && tv.PassShed
		v.Tenants = append(v.Tenants, tv)
	}
	v.Pass = allPass(v.Tenants)
	return v, nil
}
