package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"
	"time"
)

func smokeOpts(t *testing.T) runOpts {
	return runOpts{
		seed: 7, warm: 500 * time.Millisecond, measure: time.Second,
		slow: 10, outDir: t.TempDir(), probeMS: 1,
	}
}

// Every workload at a tenth of its rate for one second: the run must be
// valid (every result present once with the right sum, every ledger
// reconciled) and report every end-to-end metric, none of them zero.
func TestSmoke(t *testing.T) {
	for _, w := range workloads(10) {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep, err := runWorkload(w.name, smokeOpts(t))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.valid() {
				t.Fatalf("invalid run: %v", rep.Invariants.Failed)
			}
			if rep.Check.Expected == 0 || rep.Attempted == 0 || rep.Failed != 0 {
				t.Fatalf("expected %d results, attempted %d tuples, failed %d", rep.Check.Expected, rep.Attempted, rep.Failed)
			}
			for _, name := range endToEnd {
				if m, ok := rep.EndToEnd[name]; !ok || !(m.Value > 0) || m.Unit == "" {
					t.Errorf("%s = %+v (present %v)", name, m, ok)
				}
			}
		})
	}
}

// A deliberately wrong expectation — one window's expected sum off by one
// — must make the run invalid.
func TestCorruptedExpectationIsCaught(t *testing.T) {
	o := smokeOpts(t)
	o.corrupt = func(p *plan) {
		s := p.streams[0]
		for j := len(s.sum) - 1; j >= 0; j-- {
			if s.admitted[j] > 0 {
				s.sum[j]++
				return
			}
		}
		t.Error("no window with tuples to corrupt")
	}
	rep, err := runWorkload("mt_spike", o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.valid() || rep.Check.Wrong != 1 {
		t.Fatalf("corruption not caught: valid=%v check=%+v", rep.valid(), rep.Check)
	}
	var line struct {
		Correct bool
		Failed  int64
	}
	if err := json.Unmarshal([]byte(rep.driverLine()), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed == 0 {
		t.Fatalf("driver line hides the failure: %s", rep.driverLine())
	}
}

// BENCHMARK.json and the program must name the same things: a traced run
// emits exactly the per-layer metrics the manifest lists, an untraced one
// exactly its end-to-end metrics, with the manifest's units.
func TestManifestMatchesOutput(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var man struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	if man.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", man.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads(1) {
		want = append(want, w.name)
	}
	if !equalSets(names, want) {
		t.Errorf("workloads: manifest %v, program %v", names, want)
	}

	o := smokeOpts(t)
	o.traced = true
	rep, err := runWorkload("net_trickle", o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.valid() {
		t.Fatalf("invalid run: %v", rep.Invariants.Failed)
	}
	compare := func(kind string, listed []entry, got map[string]metric) {
		var a, b []string
		for _, e := range listed {
			a = append(a, e.Name)
			if m, ok := got[e.Name]; ok && m.Unit != e.Unit {
				t.Errorf("%s %s: unit %q in the manifest, %q reported", kind, e.Name, e.Unit, m.Unit)
			}
		}
		for k := range got {
			b = append(b, k)
		}
		if !equalSets(a, b) {
			sort.Strings(a)
			sort.Strings(b)
			t.Errorf("%s metrics differ:\n manifest %v\n reported %v", kind, a, b)
		}
	}
	compare("end_to_end", man.EndToEnd, rep.EndToEnd)
	compare("per_layer", man.PerLayer, rep.PerLayer)
	if _, err := os.Stat(o.outDir + "/trace-net_trickle.json"); err != nil {
		t.Errorf("span file: %v", err)
	}
}

func equalSets(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// The schedule is a function of workload and seed only; another seed gives
// other keys and values (and moves the spikes).
func TestPlanIsSeeded(t *testing.T) {
	w, err := findWorkload("mt_spike", 1)
	if err != nil {
		t.Fatal(err)
	}
	a := newPlan(w, 3, time.Second, 2*time.Second)
	b := newPlan(w, 3, time.Second, 2*time.Second)
	c := newPlan(w, 4, time.Second, 2*time.Second)
	if len(a.ops[0]) == 0 || len(a.ops[0]) != len(b.ops[0]) || len(c.ops[0]) == 0 {
		t.Fatalf("schedule lengths %d %d %d", len(a.ops[0]), len(b.ops[0]), len(c.ops[0]))
	}
	for i := range a.ops[0] {
		if a.ops[0][i] != b.ops[0][i] {
			t.Fatalf("same seed, op %d differs: %+v %+v", i, a.ops[0][i], b.ops[0][i])
		}
	}
	same, differ := true, false
	for i, s := range a.streams {
		for r := range s.ring {
			for k := range s.ring[r] {
				same = same && s.ring[r][k] == b.streams[i].ring[r][k]
				differ = differ || s.ring[r][k] != c.streams[i].ring[r][k]
			}
		}
	}
	if !same || !differ {
		t.Fatalf("same seed same batches: %v; other seed other batches: %v", same, differ)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread %v, want %v", got, want)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100_000
		if math.Abs(got-want)/want > 0.07 {
			t.Errorf("q%.2f = %v, want %v within 7%%", q, got, want)
		}
	}
}

var spin uint64

// The profile reader must find this test's own busy loop in a real CPU
// profile, and layerOf must charge stacks by the documented rules.
func TestProfileFold(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spin += uint64(i)
		}
	}
	pprof.StopCPUProfile()
	folded, err := foldProfile(buf.Bytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if folded["gen"] <= 0 { // package main is the generators' layer
		t.Errorf("busy loop not found: %v", folded)
	}

	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"queue", []string{"runtime.memmove", repo + "/internal/queue.(*IndexedHeap[go.shape.*uint8]).Push", repo + "/internal/runtime.(*shardedPath).ingest", "main.(*generator).send"}},
		{"proc.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"proc.gc", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", repo + "/internal/dataflow.NewBatch"}},
		{"net.syscall", []string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "bufio.(*Writer).Flush", repo + "/internal/client.(*Client).flushWire"}},
		{"proc.sched", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}},
		{"operators", []string{"main.burn", repo + "/internal/operators.Map.func1.1"}},
		{"api", []string{"runtime.memmove", repo + ".(*Engine).renderBatch", repo + ".(*Engine).IngestBatch", "main.(*generator).send"}},
		{"runtime", []string{repo + "/internal/vtime.(*WallClock).Now", repo + "/internal/runtime.(*Engine).execMessage"}},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack[0], got, c.want)
		}
	}
}
