package main

import (
	"time"
)

// A probe measures one layer on its own, through that layer's exported
// functions, outside any workload: one probe per file. They run after a
// traced workload and cost the end-to-end figures nothing.

// probeReps: every probe reports the median of this many timed repeats.
const probeReps = 5

type addFunc func(name, unit string, v float64)

// probes in the order they run. budget is the time one repeat may take.
var probes = []func(budget time.Duration, add addFunc) error{
	probeWire,
	probeHeap,
	probeShardedHeap,
	probeConvert,
	probePool,
	probePartition,
	probeRecorder,
	probeFrameRTT,
	probeAggregate,
	probeStatsCall,
	probeCheckpoint,
	probeOneWorker,
	probeSim,
}

// nsPerOp times f, which performs n operations per call: it sizes n so one
// call fills the budget, then reports the median ns per operation over
// probeReps calls.
func nsPerOp(budget time.Duration, f func(n int)) float64 {
	n := 256
	for {
		start := time.Now()
		f(n)
		d := time.Since(start)
		if d >= budget/4 || n >= 1<<28 {
			n = int(float64(n)*float64(budget)/float64(d+1)) + 1
			break
		}
		n *= 4
	}
	per := make([]float64, probeReps)
	for i := range per {
		start := time.Now()
		f(n)
		per[i] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

// sink keeps probe results live so the compiler cannot drop the work.
var sink int64
