// cameo-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	cameo-bench -list
//	cameo-bench -fig 7            # one figure (by number or slug)
//	cameo-bench -all -seed 42     # the whole evaluation section
//
// Output is the same rows/series the paper plots; EXPERIMENTS.md maps each
// table back to the paper's claims. The real-time engine's end-to-end
// benchmark is bench/ (BENCHMARK.json), not this tool.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/cameo-stream/cameo/internal/experiments"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate (number or slug, e.g. 7 or single-tenant)")
		all        = flag.Bool("all", false, "regenerate every figure")
		list       = flag.Bool("list", false, "list available figures")
		seed       = flag.Uint64("seed", 1, "workload seed (fixed seed = identical rows)")
		plot       = flag.Bool("plot", false, "also render each table's last numeric column as ASCII bars")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()
	plotTables = *plot

	// A contradictory invocation exits with the usage code before any work
	// starts instead of silently picking one mode.
	modes := 0
	for _, set := range []bool{*list, *all, *fig != ""} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "cameo-bench: pick exactly one mode of -list, -all, -fig")
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cameo-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cameo-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cameo-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the final state so retained memory is accurate
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cameo-bench:", err)
			}
		}()
	}

	switch {
	case *list:
		fmt.Println("available figures:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-3s %-14s %s\n", e.ID, e.Name, e.Caption)
		}
	case *all:
		for _, e := range experiments.Registry() {
			runOne(e, *seed)
		}
	case *fig != "":
		e, err := experiments.Lookup(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runOne(e, *seed)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

var plotTables bool

func runOne(e experiments.Experiment, seed uint64) {
	start := time.Now()
	rep := e.Run(seed)
	rep.Fprint(os.Stdout)
	if plotTables {
		for _, t := range rep.Tables {
			// Plot the second numeric-looking column by convention
			// (typically the headline latency/metric column); fall back
			// across columns until one renders.
			for col := 2; col < len(t.Columns); col++ {
				var buf strings.Builder
				t.Bar(&buf, 2, col, 40)
				if buf.Len() > 0 {
					os.Stdout.WriteString(buf.String())
					break
				}
			}
		}
	}
	fmt.Printf("(figure %s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
}
