package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 28

// manifest is the part of BENCHMARK.json the self-checks need: the
// end-to-end metrics' direction and regression bound.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest() (*manifest, error) {
	path := fromBench("../BENCHMARK.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runChild runs one workload in a fresh process, as the benchmark driver
// does, and returns the metrics of its last output line.
func runChild(workload string, seed uint64, o runOpts) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(int(o.measure.Seconds())), "--trace", "0", "--out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("%s seed %d: run reported incorrect", workload, seed)
	}
	ms := make(map[string]float64, len(line.Metrics))
	for k, v := range line.Metrics {
		ms[k] = v.Value
	}
	return ms, nil
}

// runAgree: six suites; runs 1/3/5 and 2/4/6 are two sets of the same
// code. Every workload × metric must have set medians within its bound.
func runAgree(o runOpts) int {
	man, err := readManifest()
	if err != nil {
		fatal(err)
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failed := 0
	for i := 0; i < 6; i++ {
		for _, w := range workloads(1) {
			ms, err := runChild(w.name, o.seed, o)
			if err != nil {
				// The run is left out of its set and fails the whole check.
				fmt.Fprintln(os.Stderr, "bench:", err)
				failed++
				continue
			}
			for k, v := range ms {
				sets[i%2][key{w.name, k}] = append(sets[i%2][key{w.name, k}], v)
			}
		}
	}
	env, _ := json.Marshal(stampEnv(o.seed))
	fmt.Printf("# bench -agree: medians of suites 1/3/5 (a) and 2/4/6 (b), %d s measured\n# env %s\n", int(o.measure.Seconds()), env)
	fmt.Printf("%-13s %-22s %14s %14s %8s %7s\n", "workload", "metric", "median a", "median b", "gap", "bound")
	code := 0
	for _, w := range workloads(1) {
		for _, m := range man.EndToEnd {
			a, b := median(sets[0][key{w.name, m.Name}]), median(sets[1][key{w.name, m.Name}])
			gap := math.Abs(b-a) / math.Abs(a)
			flag := ""
			if !(gap <= m.Bound) {
				flag, code = "  OVER", 1
			}
			fmt.Printf("%-13s %-22s %14.4f %14.4f %7.2f%% %6.0f%%%s\n", w.name, m.Name, a, b, 100*gap, 100*m.Bound, flag)
		}
	}
	return failedRuns(failed, code)
}

// failedRuns reports runs that ended invalid or not at all; any of them
// fails the self-check whatever the other runs say.
func failedRuns(n, code int) int {
	if n == 0 {
		return code
	}
	fmt.Printf("# %d run(s) failed and are left out above\n", n)
	return 1
}

// quartileSpread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(values, n=4), which is what the driver computes.
func quartileSpread(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / math.Abs(q(2))
}

// runSpread: every workload with seeds 1..n; per metric the median and the
// quartile spread as a share of its bound. A spread over a third of the
// bound is flagged: the driver accepts up to the bound, the benchmark aims
// below a third. The workloads take turns seed by seed, so that no run
// follows one of its own kind: what ran just before is part of a run's
// conditions (README.md, "Keeping the CPUs awake"), and ten runs of one
// workload back to back share it and look steadier than they are.
func runSpread(o runOpts, n int) int {
	man, err := readManifest()
	if err != nil {
		fatal(err)
	}
	env, _ := json.Marshal(stampEnv(o.seed))
	fmt.Printf("# bench -spread %d: seeds 1..%d of every workload in turn, %d s measured\n# env %s\n", n, n, int(o.measure.Seconds()), env)
	fmt.Printf("%-13s %-22s %14s %8s %7s %s\n", "workload", "metric", "median", "spread", "bound", "spread/bound")
	code, failed := 0, 0
	vals := map[string]map[string][]float64{}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		for _, w := range workloads(1) {
			ms, err := runChild(w.name, seed, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				failed++
				continue
			}
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			for k, v := range ms {
				vals[w.name][k] = append(vals[w.name][k], v)
			}
		}
	}
	for _, w := range workloads(1) {
		for _, m := range man.EndToEnd {
			v := vals[w.name][m.Name]
			sp := quartileSpread(v)
			flag := ""
			if sp > m.Bound/3 && m.Name != "setup_s" {
				flag, code = "  WIDE", 1
			}
			fmt.Printf("%-13s %-22s %14.4f %7.2f%% %6.0f%% %6.2f%s\n", w.name, m.Name, median(v), 100*sp, 100*m.Bound, sp/m.Bound, flag)
		}
	}
	return failedRuns(failed, code)
}
