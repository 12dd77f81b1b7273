// Package testkit holds the shared helpers the engine test suites were
// each re-implementing ad hoc: a goroutine-leak checker for engine lifecycle tests, deterministic seeded
// workload builders usable by both the simulator and the real-time engine,
// common job specs, and experiment-table accessors. Test-only; never
// imported by production code.
//
// To stay importable from in-package tests (package runtime, etc.), testkit
// depends only on leaf packages — never on the engines themselves; engine
// interaction goes through the small Ingester/Drainer interfaces both
// engines satisfy structurally.
package testkit

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// LeakCheck snapshots the goroutine count and returns a function that
// fails the test if the count has not returned to the baseline once the
// engine under test is stopped. Register it directly:
//
//	defer testkit.LeakCheck(t)()
//
// The check polls briefly: exiting workers are scheduled asynchronously,
// so an immediate count would flake.
func LeakCheck(t testing.TB) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		var after int
		for {
			after = runtime.NumGoroutine()
			if after <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if after > before {
			t.Errorf("testkit: goroutine leak: %d before, %d after", before, after)
		}
	}
}

// Drainer is the drain half of an engine (both cameo.Engine and
// runtime.Engine satisfy it).
type Drainer interface {
	Drain(timeout time.Duration) bool
}

// DrainOrFail drains the engine, failing the test on timeout.
func DrainOrFail(t testing.TB, d Drainer, timeout time.Duration) {
	t.Helper()
	if !d.Drain(timeout) {
		t.Fatalf("testkit: engine did not drain within %v", timeout)
	}
}

// Ingester is the ingest half of the real-time engine, accepted
// structurally so testkit never imports the engine packages.
type Ingester interface {
	Ingest(job string, src int, b *dataflow.Batch, p vtime.Time) error
}

// NopHandler builds handlers that consume messages and emit nothing — the
// stand-in operator for tests that exercise routing or scheduling only.
func NopHandler(int) dataflow.Handler {
	return dataflow.HandlerFunc(func(*dataflow.Context, *core.Message) []dataflow.Emission { return nil })
}

// NopSpec is a minimal two-stage job over nop handlers, for structure and
// routing tests that never execute windows.
func NopSpec(name string) dataflow.JobSpec {
	return dataflow.JobSpec{
		Name:    name,
		Latency: vtime.Second,
		Sources: 4,
		Stages: []dataflow.StageSpec{
			{Name: "a", Parallelism: 2, Slide: vtime.Second, NewHandler: NopHandler},
			{Name: "b", Parallelism: 1, NewHandler: NopHandler},
		},
	}
}

// AggSpec is the canonical two-stage windowed aggregation job (keyed sum
// feeding a global sum) used across the engine test suites: sources
// source channels, window/slide win, per-stage parallelism par.
func AggSpec(name string, sources, par int, win, latency vtime.Duration) dataflow.JobSpec {
	return dataflow.JobSpec{
		Name:    name,
		Latency: latency,
		Sources: sources,
		Stages: []dataflow.StageSpec{
			{Name: "agg", Parallelism: par, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum})},
			{Name: "total", Parallelism: 1, Slide: win,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: win, Slide: win, Agg: operators.Sum, Global: true})},
		},
	}
}

// Workload is a deterministic seeded stream: Windows windows of Win width,
// each window contributing one batch of Tuples tuples per source, keys and
// values drawn from a seeded linear-congruential generator. The same
// Workload value produces bit-identical batches for the simulator feed and
// the real-time ingest path.
type Workload struct {
	Seed    uint64
	Sources int
	Windows int
	Tuples  int
	Keys    int64
	Win     vtime.Duration
}

// rng is a SplitMix64 step — tiny, seedable, and good enough for test data.
func rng(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Batch builds the batch source src contributes to window w (1-based),
// with event times strictly inside the window.
func (wl Workload) Batch(src, w int) *dataflow.Batch {
	state := wl.Seed ^ uint64(src)<<32 ^ uint64(w)
	b := dataflow.NewBatch(wl.Tuples)
	end := vtime.Time(w) * wl.Win
	for i := 0; i < wl.Tuples; i++ {
		off := vtime.Duration(rng(&state)%uint64(wl.Win-1)) + 1
		key := int64(rng(&state) % uint64(wl.Keys))
		b.Append(end-off, key, float64(rng(&state)%1000)/100)
	}
	return b
}

// Progress returns the stream progress after window w's batch.
func (wl Workload) Progress(w int) vtime.Time { return vtime.Time(w) * wl.Win }

// IngestAll pushes the whole workload into a real-time engine in the
// canonical order (window-major, then source), with a trailing
// progress-only ingest per source so the final window can close.
func (wl Workload) IngestAll(t testing.TB, e Ingester, job string) {
	t.Helper()
	for w := 1; w <= wl.Windows; w++ {
		for src := 0; src < wl.Sources; src++ {
			if err := e.Ingest(job, src, wl.Batch(src, w), wl.Progress(w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for src := 0; src < wl.Sources; src++ {
		if err := e.Ingest(job, src, nil, wl.Progress(wl.Windows+1)); err != nil {
			t.Fatal(err)
		}
	}
}

// Feed adapts the workload to the simulator's pull interface. When at is
// positive, source src's window-w batch arrives at virtual time
// at(src, w); the default (nil) delivers every batch at t=0, which makes
// scheduling decisions independent of modelled costs — what the
// sim-vs-runtime equivalence tests need.
func (wl Workload) Feed(at func(src, w int) vtime.Time) *WorkloadFeed {
	return &WorkloadFeed{wl: wl, at: at, next: make([]int, wl.Sources)}
}

// WorkloadFeed walks a Workload source by source; see Workload.Feed.
type WorkloadFeed struct {
	wl   Workload
	at   func(src, w int) vtime.Time
	next []int
}

// Next implements the simulator's Feed interface.
func (f *WorkloadFeed) Next(src int) (*dataflow.Batch, vtime.Time, vtime.Time, bool) {
	f.next[src]++
	w := f.next[src]
	if w > f.wl.Windows+1 {
		return nil, 0, 0, false
	}
	var t vtime.Time
	if f.at != nil {
		t = f.at(src, w)
	}
	if w == f.wl.Windows+1 {
		// Trailing progress-only batch, mirroring IngestAll.
		return nil, f.wl.Progress(w), t, true
	}
	return f.wl.Batch(src, w), f.wl.Progress(w), t, true
}

// ProgressPolicy prioritizes purely by logical stream progress with no
// physical-time or profiled-cost terms, so priorities — and therefore
// scheduling decisions — are bit-identical between virtual-time and
// wall-clock engines. Equivalence tests use it to diff execution orders.
type ProgressPolicy struct{}

// Name implements core.Policy.
func (ProgressPolicy) Name() string { return "progress" }

// OnSource implements core.Policy.
func (ProgressPolicy) OnSource(m *core.Message, ti core.TargetInfo) {
	m.PC = core.PriorityContext{PriLocal: m.P, PriGlobal: m.P, PMF: m.P, TMF: m.T, L: ti.Latency}
}

// OnHop implements core.Policy.
func (ProgressPolicy) OnHop(parent *core.PriorityContext, m *core.Message, ti core.TargetInfo) {
	ProgressPolicy{}.OnSource(m, ti)
}

// Cell parses experiment-table cell [row][col] (a [][]string row set) as a
// float, failing the test with the table title on shape or parse errors.
func Cell(t testing.TB, title string, rows [][]string, row, col int) float64 {
	t.Helper()
	if row >= len(rows) || col >= len(rows[row]) {
		t.Fatalf("table %q has no cell (%d,%d)", title, row, col)
	}
	v, err := strconv.ParseFloat(rows[row][col], 64)
	if err != nil {
		t.Fatalf("table %q cell (%d,%d) = %q not numeric", title, row, col, rows[row][col])
	}
	return v
}

// FindRow returns the first row whose leading cells have the given labels
// as prefixes, failing the test when no row matches.
func FindRow(t testing.TB, title string, rows [][]string, labels ...string) int {
	t.Helper()
	for i, row := range rows {
		ok := true
		for j, l := range labels {
			if j >= len(row) || !strings.HasPrefix(row[j], l) {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	t.Fatalf("table %q has no row %v", title, labels)
	return -1
}

// Golden fails the test unless got equals the file at path byte for byte,
// naming the first line that differs. It compares only on amd64, where
// the goldens are recorded: other architectures may fuse a multiply-add
// and move a last printed digit.
func Golden(t testing.TB, path, got string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}

// Mallocs calls f once to warm it up, then runs times more under
// GOMAXPROCS(1), and returns the heap allocations those calls made in
// total. testing.AllocsPerRun divides that total by runs in integers, so
// it reads 0 for fewer allocations than runs; Mallocs sees every one. One
// P keeps each sync.Pool access on the P's private slot, which a goroutine
// that changes P misses (and allocates for) at random.
func Mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
