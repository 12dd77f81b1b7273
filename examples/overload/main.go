// Overload: deadline-aware admission control on a budgeted engine.
//
// Three tenants share one engine that carries pending-message budgets
// (engine-wide and per query), so instead of growing its queues without
// bound it degrades predictably:
//
//   - a bulk "archive" query floods far beyond capacity; under
//     OverloadShed its over-budget backlog is discarded deadline-first
//     (messages that could no longer meet their constraint anyway),
//     while the latency-strict "alerts" query beside it is untouched;
//
//   - TryIngestBatch gives a source backpressure (ErrOverloaded) instead
//     of shedding, so well-behaved producers can apply flow control;
//
//   - a two-source "pipeline" query shows per-source fairness: when one
//     source turns into a firehose past the query's budget, the overload
//     is paid out of that source's own backlog first, and Stats.PerSource
//     shows each source's ledger;
//
//   - conservation holds throughout: every created message is either
//     executed or accounted discarded.
//
// It exits non-zero if the engine does not drain, a message goes missing
// (Created != Executed + Discarded), the alerts query loses anything to
// shedding, or the pipeline's hot source does not shed more than its cold
// sibling.
//
//	go run ./examples/overload
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

const window = 20 * time.Millisecond

// events renders n tuples due at the given time.
func events(n int, at time.Duration) []cameo.Event {
	out := make([]cameo.Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cameo.Event{Time: at, Key: int64(i % 8), Value: 1})
	}
	return out
}

// now reads the feed's clock. A batch announces as its progress the last
// window end at or before that instant, so progress moves in whole windows
// and no batch holds a tuple older than its own progress.
func now(start time.Time) (at, progress time.Duration) {
	at = time.Since(start)
	return at, at.Truncate(window)
}

// burn makes tuples expensive to process, so a flood genuinely exceeds
// what the workers can drain.
func burn(_ time.Duration, k int64, v float64) (int64, float64) {
	x := v
	for i := 0; i < 20000; i++ {
		x += float64(i&int(k|1)) * 1e-9
	}
	return k, x
}

func main() {
	alerts := cameo.NewQuery("alerts").
		LatencyTarget(50*time.Millisecond).
		Aggregate("by-key", 2, cameo.Window(window), cameo.Count).
		AggregateGlobal("total", cameo.Window(window), cameo.Sum)
	archive := cameo.NewQuery("archive").
		LatencyTarget(2*time.Second).
		MaxPending(256). // the bulk tenant's own budget
		Map("burn", 2, burn).
		AggregateGlobal("rollup", cameo.Window(window), cameo.Sum)
	pipeline := cameo.NewQuery("pipeline").
		LatencyTarget(100*time.Millisecond).
		Sources(2).
		MaxPending(128). // fair share: 64 queued messages per source
		Map("burn", 4, burn).
		Aggregate("agg", 4, cameo.Window(window), cameo.Sum).
		AggregateGlobal("total", cameo.Window(window), cameo.Sum)

	eng := cameo.NewEngine(cameo.EngineConfig{
		Workers:    2,
		MaxPending: 1024,               // engine-wide backstop
		Overload:   cameo.OverloadShed, // discard doomed work instead of queueing it
	})
	for _, q := range []*cameo.Query{alerts, archive, pipeline} {
		if err := eng.Submit(q); err != nil {
			log.Fatal(err)
		}
	}
	eng.Start()
	defer eng.Stop()

	// Flood the archive at several times capacity while the alerts query
	// ticks along at a modest rate. The archive's backlog saturates its
	// own 256-message budget and sheds there; the engine-wide backstop
	// never binds, so the alerts query is untouched.
	start := time.Now()
	for i := 0; time.Since(start) < 500*time.Millisecond; i++ {
		at, progress := now(start)
		if err := eng.IngestBatch("archive", 0, events(64, at), progress); err != nil {
			log.Fatal(err)
		}
		if i%64 == 0 {
			if err := eng.IngestBatch("alerts", 0, events(4, at), progress); err != nil {
				log.Fatal(err)
			}
		}
		if i%2000 == 0 {
			fmt.Printf("t=%-6v pending %5d (engine budget 1024, archive budget 256)\n",
				at.Round(time.Millisecond), eng.Pending())
		}
	}

	// A polite source uses TryIngestBatch: on a full engine it gets
	// ErrOverloaded back instead of triggering more shedding.
	backpressured := 0
	for w := 0; w < 50; w++ {
		at, progress := now(start)
		err := eng.TryIngestBatch("archive", 0, events(64, at), progress)
		if errors.Is(err, cameo.ErrOverloaded) {
			backpressured++
		} else if err != nil {
			log.Fatal(err)
		}
	}
	drain(eng)

	// The pipeline's two sources trickle, then source 0 turns into a
	// firehose while source 1 keeps trickling. The backlog outgrows the
	// 128-message budget, and the hot source pays for the overload it
	// creates.
	fmt.Println("\npipeline phase 1: light load (4 tuples per source every 5ms)")
	feed(eng, start, 4, 4)
	report(eng)
	fmt.Println("pipeline phase 2: source 0 bursts (6000 tuples every 5ms), source 1 trickles")
	feed(eng, start, 6000, 4)
	report(eng)
	drain(eng)

	fmt.Println()
	stats := map[string]cameo.JobStats{}
	for _, job := range []string{"alerts", "archive", "pipeline"} {
		st, err := eng.Stats(job)
		if err != nil {
			log.Fatal(err)
		}
		stats[job] = st
		fmt.Printf("%-8s outputs %4d  p99 %8v  shed %6d  backpressure %3d\n",
			job, st.Outputs, st.P99.Round(time.Microsecond), st.Shed, st.Backpressure)
	}
	for i, s := range stats["pipeline"].PerSource {
		fmt.Printf("pipeline source %d: accepted %d, rejected %d, shed %d, queued %d\n",
			i, s.Accepted, s.Rejected, s.Shed, s.Queued)
	}
	created, executed, discarded := eng.Created(), eng.Executed(), eng.Discarded()
	fmt.Printf("\nengine: created %d = executed %d + discarded %d (conserved: %v)\n",
		created, executed, discarded, created == executed+discarded)
	fmt.Printf("shed %d messages under overload, %d polite ingests backpressured\n",
		eng.Shed(), backpressured)

	if created != executed+discarded {
		log.Fatalf("conservation violated: %d messages unaccounted for", created-executed-discarded)
	}
	if st := stats["alerts"]; st.Shed != 0 {
		log.Fatalf("alerts shed %d messages; the archive's overload reached it", st.Shed)
	}
	if per := stats["pipeline"].PerSource; per[0].Shed <= per[1].Shed {
		log.Fatalf("hot source shed %d, cold source %d: the hot source must pay for its own overload",
			per[0].Shed, per[1].Shed)
	}
}

func drain(eng *cameo.Engine) {
	if !eng.Drain(30 * time.Second) {
		log.Fatal("engine did not drain")
	}
}

// report prints the pipeline's per-source shed counts so far.
func report(eng *cameo.Engine) {
	st, err := eng.Stats("pipeline")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("  shed by source:")
	for _, s := range st.PerSource {
		fmt.Printf(" %d", s.Shed)
	}
	fmt.Println()
}

// feed pushes 20 rounds into the pipeline, a quarter window apart, with
// nHot tuples on source 0 and nCold on source 1 per round. A shedding
// engine refuses nothing here (IngestBatch under OverloadShed always
// admits), so errors are fatal, not flow control.
func feed(eng *cameo.Engine, start time.Time, nHot, nCold int) {
	for w := 0; w < 20; w++ {
		at, progress := now(start)
		// A batch fans out into one message per stage-0 operator whatever
		// its tuple count, so backlog depth comes from batch count: the
		// hot source delivers its window as a burst of small batches.
		for sent := 0; sent < nHot; sent += 20 {
			n := min(nHot-sent, 20)
			if err := eng.IngestBatch("pipeline", 0, events(n, at), progress); err != nil {
				log.Fatal(err)
			}
		}
		if err := eng.IngestBatch("pipeline", 1, events(nCold, at), progress); err != nil {
			log.Fatal(err)
		}
		time.Sleep(window / 4)
	}
}
