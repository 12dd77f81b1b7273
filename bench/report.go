package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// endToEnd lists the end-to-end metrics in report order. BENCHMARK.json
// fixes their regression bounds.
var endToEnd = []string{
	"setup_s", "tuples_per_s", "lat_p95_ms", "deadline_met_frac", "live_heap_mb",
}

// ungated lists what every run also measures end to end but BENCHMARK.json
// does not bound, because on this class of box it does not repeat within
// a third of any bound the contract allows (README.md, "Demoted"). A traced
// run reports them as per-layer metrics under these names with an "e2e."
// prefix.
var ungated = []string{"lat_p50_ms", "lat_p99_ms", "cpu_us_per_tuple", "alloc_bytes_per_tuple", "failed_frac"}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is one run of one workload: the file written under out/ and the
// source of the line the benchmark driver reads.
type report struct {
	Env        envStamp          `json:"env"`
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Valid      bool              `json:"valid"`
	Attempted  int64             `json:"attempted_tuples"`
	Failed     int64             `json:"failed_tuples"`
	Check      check             `json:"check"`
	Invariants invariants        `json:"invariants"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	Ungated    map[string]metric `json:"ungated"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	// PooledLatMS: the latencies behind lat_p95_ms as quantiles over the
	// whole measured phase instead of medians of per-cycle quantiles. For
	// reading, not for comparing runs.
	PooledLatMS map[string]float64 `json:"pooled_lat_ms"`
	// GenLagP99US is reported on every run: above 1000 the generator, not
	// the system, set the latencies, and the run is listed as suspect.
	GenLagP99US float64  `json:"gen_lag_p99_us"`
	Suspect     []string `json:"suspect,omitempty"`
}

func newReport(workload string, o runOpts) *report {
	return &report{
		Env: stampEnv(o.seed), Workload: workload, Seed: o.seed, Seconds: o.measure.Seconds(),
		Traced: o.traced, EndToEnd: map[string]metric{}, Ungated: map[string]metric{}, PerLayer: map[string]metric{},
	}
}

func (r *report) add(name, unit string, v float64, samples int) {
	r.EndToEnd[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (r *report) addUngated(name, unit string, v float64, samples int) {
	r.Ungated[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (r *report) addLayer(name, unit string, v float64) {
	r.PerLayer[name] = metric{Value: v, Unit: unit}
}

func (r *report) valid() bool { return len(r.Invariants.Failed) == 0 }

func resultPath(outDir, workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("result-%s-trace%d.json", workload, t))
}

// save writes the report as out/result-<workload>-trace<0|1>.json,
// replacing the previous run's.
func (r *report) save(outDir string) error {
	r.Valid = r.valid()
	if outDir == "" {
		return nil
	}
	return writeJSON(resultPath(outDir, r.Workload, r.Traced), r)
}

// lastUntraced returns cpu_us_per_tuple of the most recent untraced run of
// the workload found under outDir, or 0: the base of trace.overhead_frac.
func lastUntraced(outDir, workload string) float64 {
	b, err := os.ReadFile(resultPath(outDir, workload, false))
	if err != nil {
		return 0
	}
	var prev report
	if json.Unmarshal(b, &prev) != nil || !prev.Valid {
		return 0
	}
	return prev.Ungated["cpu_us_per_tuple"].Value
}

// driverLine is the one JSON object the benchmark driver reads from the
// last line of standard output: end-to-end metrics from an untraced run,
// per-layer metrics from a traced one.
func (r *report) driverLine() string {
	src := r.EndToEnd
	if r.Traced {
		src = r.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(src))
	for k, m := range src {
		ms[k] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.valid(), max(r.Attempted, 1), r.Failed, ms})
	return string(b)
}

// print writes the human-readable form: every metric by name with its
// unit and, end to end, its sample count.
func (r *report) print(w io.Writer) {
	verdict := "valid"
	if !r.valid() {
		verdict = "INVALID"
	}
	fmt.Fprintf(w, "%s  seed %d  %.0f s measured  %s  (%d expected results, %d tuples offered, %d failed; gen.lag_p99 %.0f us)\n",
		r.Workload, r.Seed, r.Seconds, verdict, r.Check.Expected, r.Attempted, r.Failed, r.GenLagP99US)
	for _, s := range r.Suspect {
		fmt.Fprintln(w, "  SUSPECT:", s)
	}
	for _, f := range r.Invariants.Failed {
		fmt.Fprintln(w, "  INVALID:", f)
	}
	fmt.Fprintf(w, "  pooled latency over the run: p50 %.4f  p95 %.4f  p99 %.4f  max %.4f ms\n",
		r.PooledLatMS["p50"], r.PooledLatMS["p95"], r.PooledLatMS["p99"], r.PooledLatMS["max"])
	for _, name := range endToEnd {
		m := r.EndToEnd[name]
		fmt.Fprintf(w, "  %-24s %14.4f %-9s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	for _, name := range ungated {
		m := r.Ungated[name]
		fmt.Fprintf(w, "  %-24s %14.4f %-9s n=%d  (not bounded)\n", name, m.Value, m.Unit, m.Samples)
	}
	if !r.Traced {
		return
	}
	names := make([]string, 0, len(r.PerLayer))
	for k := range r.PerLayer {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.PerLayer[name]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
