package main

import (
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
)

// probePartition: Batch.Partition of 64 tuples four ways, the shuffle in
// front of every keyed stage.
func probePartition(budget time.Duration, add addFunc) error {
	const tuples = 64
	b := dataflow.NewBatch(tuples)
	for i := 0; i < tuples; i++ {
		b.Append(1_000_000, int64(i*31), 1)
	}
	ns := nsPerOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(len(b.Partition(4)))
		}
	})
	add("dataflow.partition_ns_per_tuple", "ns", ns/tuples)
	return nil
}
