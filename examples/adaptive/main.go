// Adaptive: the self-tuning admission tier.
//
// A static MaxPending encodes a guess about how much backlog the engine
// can clear in time. This walkthrough arms the two feedback loops that
// replace the guess with measurement:
//
//   - AdaptiveBudgets measures each query's drain rate and sets its
//     pending budget to rate × latency target (the backlog the engine
//     demonstrably clears within one deadline) — Stats reports the
//     measured rate and the derived budget;
//
//   - per-source admission is fair: when one of a query's sources runs
//     hot past that budget, the overload response (here: shedding) is
//     charged to the hot source's own backlog first — the cold source
//     loses only what the deadline (doomed) and lax-end passes take — and
//     Stats.PerSource shows each source's ledger.
//
// It exits non-zero if no budget was derived, the engine does not drain,
// or a message went missing (Created != Executed + Discarded).
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

const window = 10 * time.Millisecond

func events(n int, progress time.Duration) []cameo.Event {
	out := make([]cameo.Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cameo.Event{
			Time:  progress - time.Duration(i+1)*time.Microsecond,
			Key:   int64(i % 16),
			Value: 1,
		})
	}
	return out
}

// burn gives tuples a real processing cost so drain rates are meaningful.
func burn(_ time.Duration, k int64, v float64) (int64, float64) {
	x := v
	for i := 0; i < 8000; i++ {
		x += float64(i&int(k|1)) * 1e-9
	}
	return k, x
}

func main() {
	eng := cameo.NewEngine(cameo.EngineConfig{
		Workers:         2,
		AdaptiveBudgets: true, // budgets follow measured capacity
		Overload:        cameo.OverloadShed,
	})
	q := cameo.NewQuery("pipeline").
		LatencyTarget(100*time.Millisecond).
		Sources(2).
		Map("burn", 4, burn).
		Aggregate("agg", 4, cameo.Window(window), cameo.Sum).
		AggregateGlobal("total", cameo.Window(window), cameo.Sum)
	if err := eng.Submit(q); err != nil {
		log.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()

	// Phase 1: a light trickle on both sources. The tuner samples the
	// query draining and derives its first budget.
	fmt.Println("phase 1: light load (4 tuples/source/window)")
	feed(eng, 1, 40, 4, 4)
	report(eng)

	// Phase 2: source 0 turns into a firehose while source 1 keeps
	// trickling. The backlog outgrows the derived budget, and the hot
	// source pays for the overload it creates.
	fmt.Println("phase 2: source 0 bursts (6000 tuples/window), source 1 trickles")
	feed(eng, 41, 60, 6000, 4)
	report(eng)

	if !eng.Drain(30 * time.Second) {
		log.Fatal("engine did not drain")
	}
	st, err := eng.Stats("pipeline")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured drain rate: %.0f msg/s\n", st.DrainRate)
	fmt.Printf("derived pending budget: %d messages (rate x 100ms latency target)\n", st.Budget)
	fmt.Printf("outputs: %d, p99 %v\n", st.Outputs, st.P99.Round(time.Millisecond))
	for i, s := range st.PerSource {
		fmt.Printf("source %d: accepted %d, rejected %d, shed %d\n",
			i, s.Accepted, s.Rejected, s.Shed)
	}
	created, executed, discarded := eng.Created(), eng.Executed(), eng.Discarded()
	fmt.Printf("conservation: created %d == executed %d + discarded %d\n", created, executed, discarded)
	if st.Budget <= 0 || st.DrainRate <= 0 {
		log.Fatalf("no budget derived (budget %d, drain rate %.0f msg/s)", st.Budget, st.DrainRate)
	}
	if created != executed+discarded {
		log.Fatalf("conservation violated: %d messages unaccounted for", created-executed-discarded)
	}
}

// report prints the query's current derived budget and per-source shed
// counts.
func report(eng *cameo.Engine) {
	st, err := eng.Stats("pipeline")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  budget %d messages, drain rate %.0f msg/s, shed by source:", st.Budget, st.DrainRate)
	for _, s := range st.PerSource {
		fmt.Printf(" %d", s.Shed)
	}
	fmt.Println()
}

// feed pushes windows [from, to] with nHot tuples on source 0 and nCold
// on source 1, pacing roughly in real time so the engine clock and the
// budget tuner's sampling advance alongside the feed. A shedding engine
// refuses nothing here (IngestBatch under OverloadShed always admits),
// so errors are fatal, not flow control.
func feed(eng *cameo.Engine, from, to, nHot, nCold int) {
	for w := from; w <= to; w++ {
		progress := time.Duration(w) * window
		// A batch fans out into one message per stage-0 operator whatever
		// its tuple count, so backlog depth comes from batch count: the
		// hot source delivers its window as a burst of small batches.
		for sent := 0; sent < nHot; sent += 20 {
			n := min(nHot-sent, 20)
			if err := eng.IngestBatch("pipeline", 0, events(n, progress), progress); err != nil {
				log.Fatal(err)
			}
		}
		if err := eng.IngestBatch("pipeline", 1, events(nCold, progress), progress); err != nil {
			log.Fatal(err)
		}
		time.Sleep(window / 4)
	}
}
