package experiments

import (
	"fmt"

	"github.com/cameo-stream/cameo/internal/stats"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/workload"
)

// Fig02 regenerates the production workload characteristics of Figure 2
// from the synthetic trace generators: (a) the data-volume distribution
// across streams, (b) micro-batch job scheduling overheads and completion
// spread, and (c) the ingestion heat map's temporal variability.
func Fig02(seed uint64) *Report {
	r := &Report{
		Figure:  "Figure 2",
		Caption: "Workload characteristics of the (synthesized) production stream analytics system",
	}

	// (a) Volume distribution: a long tail of small streams, with ~10% of
	// streams processing the majority of the data.
	vols := workload.PowerLawVolumes(seed, 1000, 1.05)
	ta := r.Table("2a: data volume distribution", "top streams", "share of total volume")
	for _, frac := range []float64{0.01, 0.05, 0.10, 0.20, 0.50} {
		ta.AddRow(fmt.Sprintf("%.0f%%", frac*100), workload.CumulativeShare(vols, frac))
	}

	// (b) Micro-batch scheduling overhead and completion latencies.
	jobs := workload.MicroBatchJobs(seed+1, 2000)
	comp := stats.NewSample(len(jobs))
	overhead := stats.NewSample(len(jobs))
	for _, j := range jobs {
		comp.Add(j.Completion.Seconds())
		overhead.Add(j.OverheadFraction())
	}
	tb := r.Table("2b: micro-batch jobs", "metric", "p10", "p50", "p90", "max")
	tb.AddRow("completion time (s)", comp.Quantile(0.10), comp.Quantile(0.50), comp.Quantile(0.90), comp.Max())
	tb.AddRow("scheduling overhead fraction", overhead.Quantile(0.10), overhead.Quantile(0.50), overhead.Quantile(0.90), overhead.Max())
	tb.Notes = append(tb.Notes, "paper: completions range 10s-1000s; ad-hoc scheduling overhead as high as 80%")

	// (c) Ingestion heat map variability across sources and time.
	h := workload.SynthesizeHeatmap(seed+2, 20, 300, vtime.Second)
	idle, spikes, cells := 0, 0, 0
	maxRate, minBase := 0, 1<<62
	for _, row := range h.Counts {
		base := 1 << 62
		for _, c := range row {
			cells++
			if c == 0 {
				idle++
			} else if c < base {
				base = c
			}
			if c > maxRate {
				maxRate = c
			}
		}
		for _, c := range row {
			if base < 1<<62 && c >= 5*base {
				spikes++
			}
		}
		if base < minBase {
			minBase = base
		}
	}
	tc := r.Table("2c: ingestion heatmap (20 sources x 300s)", "metric", "value")
	tc.AddRow("total tuples", h.TotalTuples())
	tc.AddRow("idle cells fraction", float64(idle)/float64(cells))
	tc.AddRow("spike cells fraction (>=5x base)", float64(spikes)/float64(cells))
	tc.AddRow("max rate / min base rate", float64(maxRate)/float64(max(1, minBase)))
	tc.Notes = append(tc.Notes, "paper: spikes last one to a few seconds amid idle periods; pattern continuously changing")
	return r
}
