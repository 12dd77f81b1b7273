// Command bench is the repository's benchmark: four deadline-scored
// workloads driven through the public cameo API, five bounded end-to-end
// metrics (and five unbounded), per-layer probes and a traced run. See
// README.md.
//
//	go run -C bench .                         all workloads, end to end
//	go run -C bench . -trace 1                the same, untraced then traced, with per-layer metrics
//	go run -C bench . -workload mt_spike      one workload; the last line is the driver's JSON
//	go run -C bench . -agree                  two sets of three suites must agree within the bounds
//	go run -C bench . -spread 10              ten seeds per workload: quartile spread of every metric
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// maxProcs pins GOMAXPROCS whatever the box: one P for each goroutine that
// can be runnable at once on the busiest workload (two engine workers, two
// generators, and on the wire two connection readers on either side). The
// engine's parallelism is set by Workers, not by this. With fewer Ps than
// that a generator waking from its sleep finds none free while the workers
// are saturated, and waits for the Go scheduler's 10 ms preemption: at 4
// its p99 lateness on mt_spike was 2-4 ms, at 8 it is 0.6-0.8 ms.
const maxProcs = 8

// fromBench resolves a path relative to bench/ whether the program runs
// from the repository root (the driver, run.sh) or from bench/ itself
// (go run -C bench .).
func fromBench(rel string) string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return filepath.Join("bench", rel)
	}
	return rel
}

func main() {
	if len(os.Args) == 4 && os.Args[1] == awakeFlag {
		cpu, _ := strconv.Atoi(os.Args[2])
		parent, _ := strconv.Atoi(os.Args[3])
		spinIdle(cpu, parent)
		return
	}
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's JSON line; empty runs all four")
		seed     = flag.Uint64("seed", 1, "seed of keys, values and spike phase")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1: traced run (spans, profiles, samplers, probes) reporting per-layer metrics")
		outDir   = flag.String("out", fromBench("out"), "directory for result and trace files")
		agree    = flag.Bool("agree", false, "run the suite six times and compare the medians of runs 1/3/5 and 2/4/6")
		spread   = flag.Int("spread", 0, "run every workload with this many seeds and print each metric's quartile spread")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	runtime.GOMAXPROCS(maxProcs)
	shortSlices()
	o := runOpts{
		seed: *seed, measure: time.Duration(*seconds) * time.Second, traced: *trace != 0,
		slow: 1, outDir: *outDir,
	}
	code := 0
	switch {
	case *agree:
		code = runAgree(o)
	case *spread > 0:
		code = runSpread(o, *spread)
	case *workload != "":
		stopAwake = keepAwake()
		o.probeMS = 30 // the driver's traced run has 180 s in all
		rep, err := runWorkload(*workload, o)
		if err != nil {
			fatal(err)
		}
		rep.print(os.Stderr)
		fmt.Println(rep.driverLine())
		if !rep.valid() {
			code = 1
		}
	default:
		stopAwake = keepAwake()
		o.probeMS = 1000
		code = runSuite(o)
	}
	stopAwake()
	os.Exit(code)
}

// stopAwake ends the processes keepAwake started (the modes that run a
// workload in this process start them; -agree and -spread leave it to
// their children). Every way out of the program goes through it.
var stopAwake = func() {}

// runSuite runs the four workloads in turn, untraced; with -trace 1 each
// is then run again traced, so trace.overhead_frac has its base. All the
// reports together are written as out/suite.json, the form in which a
// box's record is kept under baseline/.
func runSuite(o runOpts) int {
	code := 0
	var all []*report
	for _, w := range workloads(1) {
		for _, traced := range []bool{false, true} {
			if traced && !o.traced {
				continue
			}
			o := o
			o.traced = traced
			rep, err := runWorkload(w.name, o)
			if err != nil {
				fatal(err)
			}
			rep.print(os.Stdout)
			all = append(all, rep)
			if !rep.valid() {
				code = 1
			}
		}
	}
	if o.outDir != "" {
		if err := writeJSON(filepath.Join(o.outDir, "suite.json"), all); err != nil {
			fatal(err)
		}
	}
	return code
}

func fatal(err error) {
	stopAwake()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
