// Log analytics: the paper's IPQ4 scenario — a windowed join of two event
// streams (error logs joined with request logs on service ID) followed by
// a tumbling aggregation summarizing error impact per window.
//
// The example checks its own results: a trailing Map stage records each
// window's total, and the example compares it with the joined sum it
// computes from the events it generated. It exits non-zero on a missing,
// duplicated or wrong window.
//
//	go run ./examples/loganalytics
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

const (
	// Two logical streams: sources 0-1 carry error logs (port 0), sources
	// 2-3 carry request logs (port 1).
	sources  = 4
	services = 8
	window   = 500 * time.Millisecond
	windows  = 30
)

// windowOf is the join's and the aggregation's window rule: a tuple at
// time t belongs to the window ending at (t/window + 1)·window, numbered
// here by that end over window — so an event stamped exactly at a window's
// end counts toward the next window.
func windowOf(t time.Duration) int { return int(t/window) + 1 }

func main() {
	var (
		mu     sync.Mutex
		totals = map[int][]float64{} // window -> every total the sink saw
	)
	query := cameo.NewQuery("error-summary").
		LatencyTarget(2*time.Second).
		Sources(sources).
		SourcePorts(2).
		Join("errors-x-requests", 2, window).
		AggregateGlobal("impact", cameo.Window(window), cameo.Sum).
		// Window results are stamped just inside their window.
		Map("record", 1, func(t time.Duration, key int64, v float64) (int64, float64) {
			mu.Lock()
			totals[windowOf(t)] = append(totals[windowOf(t)], v)
			mu.Unlock()
			return key, v
		})

	eng := cameo.NewEngine(cameo.EngineConfig{Workers: 2})
	if err := eng.Submit(query); err != nil {
		log.Fatalf("submit: %v", err)
	}
	eng.Start()
	defer eng.Stop()

	// sides[port][window][service] sums the generated values the join sees.
	var sides [2]map[int]map[int64]float64
	for port := range sides {
		sides[port] = map[int]map[int64]float64{}
	}
	rng := rand.New(rand.NewSource(11))
	for w := 1; w <= windows; w++ {
		progress := time.Duration(w) * window
		for src := 0; src < sources; src++ {
			events := make([]cameo.Event, 0, 12)
			for i := 0; i < 12; i++ {
				val := 1.0 // error count contribution
				if src >= 2 {
					val = float64(rng.Intn(50)) // request volume
				}
				// Whole microseconds: the engine's logical-time unit.
				ev := cameo.Event{
					Time:  progress - time.Duration(rng.Intn(int(window/time.Microsecond)))*time.Microsecond,
					Key:   int64(rng.Intn(services)),
					Value: val,
				}
				events = append(events, ev)
				side := sides[src/2]
				if side[windowOf(ev.Time)] == nil {
					side[windowOf(ev.Time)] = map[int64]float64{}
				}
				side[windowOf(ev.Time)][ev.Key] += ev.Value
			}
			if err := eng.IngestBatch("error-summary", src, events, progress); err != nil {
				log.Fatalf("ingest: %v", err)
			}
		}
		time.Sleep(20 * time.Millisecond) // pace the replay
	}
	for src := 0; src < sources; src++ {
		if err := eng.AdvanceProgress("error-summary", src, time.Duration(windows+1)*window); err != nil {
			log.Fatal(err)
		}
	}
	if !eng.Drain(5 * time.Second) {
		log.Fatal("engine did not drain")
	}

	stats, err := eng.Stats("error-summary")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("error-impact summaries (join + tumbling aggregation)")
	fmt.Printf("  summaries emitted: %d\n", stats.Outputs)
	fmt.Printf("  latency p50/p99:   %v / %v\n", stats.P50, stats.P99)
	fmt.Printf("  within 2s target:  %.1f%%\n", stats.SuccessRate*100)

	// The reference join: per window, every service on both sides
	// contributes its error count plus its request volume. A window with
	// no such service yields no summary.
	want := map[int]float64{}
	for w, errs := range sides[0] {
		for key, e := range errs {
			if r, ok := sides[1][w][key]; ok {
				want[w] += e + r
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for w, sum := range want {
		switch got := totals[w]; {
		case len(got) == 0:
			log.Fatalf("window %d: no summary, want %v", w, sum)
		case len(got) > 1:
			log.Fatalf("window %d: %d summaries %v, want one", w, len(got), got)
		case got[0] != sum:
			log.Fatalf("window %d: summary %v, want %v", w, got[0], sum)
		}
	}
	for w, got := range totals {
		if _, ok := want[w]; !ok {
			log.Fatalf("window %d: summary %v for a window without a match", w, got)
		}
	}
	if stats.Outputs != len(want) {
		log.Fatalf("%d summaries emitted, want %d", stats.Outputs, len(want))
	}
	fmt.Printf("  checked:           %d windows match the reference join\n", len(want))
}
