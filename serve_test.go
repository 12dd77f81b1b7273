package cameo_test

// Public serving-tier tests: the Engine.Serve / Dial wrappers must give
// remote sources the exact ingest semantics the local Engine methods
// give — same results, same sentinel errors — with the wire ledgers
// conserving every tuple.

import (
	"errors"
	"testing"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

const serveWin = 20 * time.Millisecond

func serveQuery(name string) *cameo.Query {
	return cameo.NewQuery(name).
		Sources(2).
		LatencyTarget(time.Second).
		Aggregate("by-key", 2, cameo.Window(serveWin), cameo.Sum).
		AggregateGlobal("total", cameo.Window(serveWin), cameo.Sum)
}

// TestServeDialRoundTrip feeds a windowed query over a loopback wire
// session through the public API and pins the two invariants the
// serving tier promises: the dataflow result is identical to feeding
// the engine directly (same windows, none lost or duplicated), and the
// client/server ledgers reconcile to the tuple.
func TestServeDialRoundTrip(t *testing.T) {
	const windows, perBatch = 10, 8
	feed := func(ingest func(src int, evs []cameo.Event, p time.Duration) error) {
		t.Helper()
		for w := 1; w <= windows; w++ {
			progress := time.Duration(w) * serveWin
			evs := make([]cameo.Event, perBatch)
			for i := range evs {
				evs[i] = cameo.Event{Time: progress - time.Duration(i+1)*time.Millisecond, Key: int64(i), Value: 1}
			}
			for src := 0; src < 2; src++ {
				if err := ingest(src, evs, progress); err != nil {
					t.Fatalf("ingest window %d src %d: %v", w, src, err)
				}
			}
		}
	}
	run := func(ingest func(eng *cameo.Engine) func(int, []cameo.Event, time.Duration) error,
		after func(eng *cameo.Engine)) int {
		eng := cameo.NewEngine(cameo.EngineConfig{Workers: 2})
		if err := eng.Submit(serveQuery("wire")); err != nil {
			t.Fatal(err)
		}
		eng.Start()
		defer eng.Stop()
		feed(ingest(eng))
		if after != nil {
			after(eng)
		}
		for src := 0; src < 2; src++ {
			if err := eng.AdvanceProgress("wire", src, time.Duration(windows+1)*serveWin); err != nil {
				t.Fatal(err)
			}
		}
		if !eng.Drain(10 * time.Second) {
			t.Fatal("engine did not drain")
		}
		st, err := eng.Stats("wire")
		if err != nil {
			t.Fatal(err)
		}
		return st.Outputs
	}

	want := run(func(eng *cameo.Engine) func(int, []cameo.Event, time.Duration) error {
		return func(src int, evs []cameo.Event, p time.Duration) error {
			return eng.IngestBatch("wire", src, evs, p)
		}
	}, nil)

	var (
		srv *cameo.Server
		cl  *cameo.Client
	)
	got := run(func(eng *cameo.Engine) func(int, []cameo.Event, time.Duration) error {
		var err error
		srv, err = eng.Serve("127.0.0.1:0", cameo.ServeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cl, err = cameo.Dial(srv.Addr(), cameo.DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return func(src int, evs []cameo.Event, p time.Duration) error {
			return cl.IngestBatch("wire", src, evs, p)
		}
	}, func(*cameo.Engine) {
		if !cl.Flush(10 * time.Second) {
			t.Fatalf("wire frames did not settle: %+v (%v)", cl.Stats(), cl.Err())
		}
	})

	if got != want {
		t.Errorf("served run produced %d windows, in-process reference %d", got, want)
	}
	cs := cl.Stats()
	if cs.SentFrames == 0 || cs.SentFrames != cs.AckedFrames || cs.NackedFrames != 0 {
		t.Errorf("client ledger: %+v, want all %d sent frames acked", cs, cs.SentFrames)
	}
	ws := srv.WireStats()
	if ws.Events != cs.SentEvents || ws.FlushedEvents+ws.NackedEvents+ws.BufferedEvents != ws.Events {
		t.Errorf("server ledger does not reconcile: %+v vs client %+v", ws, cs)
	}
	cl.Close()
	if !srv.Shutdown(5 * time.Second) {
		t.Error("server did not shut down")
	}
}

// TestDialPausedSentinel pins the error contract: a remote
// TryIngestBatch against a paused query must refuse with the same
// sentinel the local engine returns, errors.Is-compatible, carried
// across the socket as a typed Nack plus retry-after backoff.
func TestDialPausedSentinel(t *testing.T) {
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: 1})
	if err := eng.Submit(serveQuery("paused")); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	// The server holds nothing past its next socket wait, so the first
	// frame's Nack comes back at once; the query's 1 s target makes the
	// resulting retry-after backoff (5x its hold bound of 125 ms) outlast
	// the test body.
	srv, err := eng.Serve("127.0.0.1:0", cameo.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(5 * time.Second)
	cl, err := cameo.Dial(srv.Addr(), cameo.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := eng.Pause("paused"); err != nil {
		t.Fatal(err)
	}
	evs := []cameo.Event{{Time: time.Millisecond, Key: 1, Value: 1}}
	// The first try is accepted locally (the credit window is open) and
	// nacked by the server; Flush settles that verdict.
	if err := cl.TryIngestBatch("paused", 0, evs, serveWin); err != nil {
		t.Fatalf("first try: %v", err)
	}
	if !cl.Flush(10 * time.Second) {
		t.Fatalf("nack did not settle: %+v (%v)", cl.Stats(), cl.Err())
	}
	if cs := cl.Stats(); cs.NackedFrames != 1 {
		t.Fatalf("stats after paused send: %+v, want 1 nacked frame", cs)
	}
	// Inside the backoff the refusal is local and typed: the same
	// sentinel Engine.TryIngestBatch returns for a paused job.
	err = cl.TryIngestBatch("paused", 0, evs, serveWin)
	if !errors.Is(err, cameo.ErrJobPaused) {
		t.Fatalf("try during backoff = %v, want ErrJobPaused", err)
	}
}
