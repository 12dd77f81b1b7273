package runtime

// Checkpoint/restore tests: the consistent-cut snapshot (CheckpointJob),
// crash recovery and live migration (RestoreJob), the quarantine rule (a
// job failed by a handler panic is never checkpointed), and the
// fault-injection suite (torn and corrupted checkpoint files, handler
// panics mid-run). The exactly-once pin
// compares the output-window multiset of an interrupted run — killed at
// the checkpoint cut and restored on a second engine — against a
// straight-through reference run of the same seeded workload: no window
// lost, none duplicated.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/metrics"
	"github.com/cameo-stream/cameo/internal/operators"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// withHistory gives cfg a fresh recorder that keeps every output, so the
// run's output windows can be diffed.
func withHistory(cfg Config) Config {
	cfg.Recorder = metrics.NewHistoryRecorder()
	return cfg
}

// outputWindows returns the job's recorded output windows, sorted. The
// recorder must keep history (withHistory): one that keeps only counts
// would make every window diff vacuous.
func outputWindows(t *testing.T, rec *metrics.Recorder, job string) []int64 {
	t.Helper()
	js := rec.Job(job)
	if js == nil {
		return nil
	}
	if js.Latencies == nil {
		t.Fatalf("job %q: recorder keeps no output history; build it with metrics.NewHistoryRecorder", job)
	}
	out := make([]int64, 0, len(js.Outputs))
	for _, o := range js.Outputs {
		out = append(out, o.Window)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// referenceWindows runs the whole workload straight through on a fresh
// engine and returns the sink's output-window multiset — the ground truth
// an interrupted-and-restored run must reproduce exactly.
func referenceWindows(t *testing.T, cfg Config, wl testkit.Workload) []int64 {
	t.Helper()
	e := New(withHistory(cfg))
	if _, err := e.AddJob(lsSpec("j")); err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	wl.IngestAll(t, e, "j")
	testkit.DrainOrFail(t, e, 20*time.Second)
	return outputWindows(t, e.Recorder(), "j")
}

func diffWindows(t *testing.T, context string, want, got []int64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d output windows, reference %d", context, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: output window %d is %d, reference %d", context, i, got[i], want[i])
		}
	}
}

// TestCheckpointKeepsStatelessFrontier: a stateless stage's merged
// frontier survives a checkpoint. Two sources feed a Map in front of a
// window stage; source 0 has passed the first window's end and source 1
// has not when the job is checkpointed. After the restore, source 1
// passing the end alone must close the window: a Map restored with a
// fresh frontier would wait to hear from source 0 again.
func TestCheckpointKeepsStatelessFrontier(t *testing.T) {
	spec := dataflow.JobSpec{
		Name: "j", Latency: 500 * vtime.Millisecond, Sources: 2,
		Stages: []dataflow.StageSpec{
			{Name: "id", Parallelism: 1, NewHandler: operators.Map(func(_ vtime.Time, k int64, v float64) (int64, float64) { return k, v })},
			{Name: "total", Parallelism: 1, Slide: testWin,
				NewHandler: operators.WindowAgg(operators.WindowAggSpec{Size: testWin, Slide: testWin, Agg: operators.Sum, Global: true})},
		},
	}
	rec := metrics.NewHistoryRecorder()
	src := New(Config{Workers: 1, Recorder: rec})
	if _, err := src.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	src.Start()
	wl := testLoad(1)
	for _, in := range []struct {
		src int
		p   vtime.Time
	}{{0, testWin}, {1, testWin / 2}} {
		if err := src.Ingest("j", in.src, wl.Batch(in.src, 1), in.p); err != nil {
			t.Fatal(err)
		}
		testkit.DrainOrFail(t, src, 5*time.Second)
	}
	w := snap.NewWriter()
	if err := src.CheckpointJob("j", w); err != nil {
		t.Fatal(err)
	}
	src.Stop()

	dst := New(Config{Workers: 1, Recorder: rec, StartTime: src.Now()})
	if _, err := dst.RestoreJob(spec, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := dst.ResumeJob("j"); err != nil {
		t.Fatal(err)
	}
	dst.Start()
	defer dst.Stop()
	if err := dst.Ingest("j", 1, nil, testWin+testWin/2); err != nil {
		t.Fatal(err)
	}
	testkit.DrainOrFail(t, dst, 5*time.Second)
	if got := outputWindows(t, rec, "j"); len(got) != 1 || got[0] != int64(testWin) {
		t.Fatalf("output windows %v, want the first window (%d) closed by the restored frontier", got, int64(testWin))
	}
}

// TestCheckpointRestoreRoundTrip is the crash-recovery pin: a job is
// checkpointed mid-stream with a live backlog (windows drained, more
// staged), the source engine is stopped without cancelling (the crash), and
// a second engine restores the snapshot — sharing the recorder, continuing
// the clock — and finishes the workload. The combined run's output windows
// must equal a straight-through reference run: no completed window lost,
// none emitted twice, despite the restore boundary cutting through open
// windows.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			const windows, drainedTo, staged = 10, 5, 7
			wl := testLoad(windows)
			want := referenceWindows(t, cell.Cfg(Config{Workers: 2}), wl)
			if len(want) < windows-2 {
				t.Fatalf("reference run produced only %d windows", len(want))
			}

			a := New(withHistory(cell.Cfg(Config{Workers: 2})))
			if _, err := a.AddJob(lsSpec("j")); err != nil {
				t.Fatal(err)
			}
			a.Start()
			for w := 1; w <= drainedTo; w++ {
				for src := 0; src < wl.Sources; src++ {
					if err := a.Ingest("j", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
			testkit.DrainOrFail(t, a, 20*time.Second)
			// Stage two more windows and pause mid-flight: whatever has not
			// executed yet is the live backlog the snapshot must carry.
			for w := drainedTo + 1; w <= staged; w++ {
				for src := 0; src < wl.Sources; src++ {
					if err := a.Ingest("j", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := a.PauseJob("j"); err != nil {
				t.Fatal(err)
			}
			w := snap.NewWriter()
			if err := a.CheckpointJob("j", w); err != nil {
				t.Fatal(err)
			}
			data := append([]byte(nil), w.Bytes()...)
			if !a.JobPaused("j") {
				t.Fatal("CheckpointJob resumed a job the caller had paused")
			}
			cut := a.Now()
			rec := a.Recorder()
			a.Stop() // the crash: no cancel, no drain

			b := New(cell.Cfg(Config{Workers: 2, StartTime: vtime.Duration(cut), Recorder: rec}))
			b.Start()
			defer b.Stop()
			job, err := b.RestoreJob(lsSpec("j"), data)
			if err != nil {
				t.Fatal(err)
			}
			if !b.JobPaused("j") {
				t.Fatal("RestoreJob must leave the job paused")
			}
			for src := 0; src < wl.Sources; src++ {
				if got := job.SourceProgress[src].Load(); got != int64(wl.Progress(staged)) {
					t.Fatalf("restored source %d frontier = %d, want %d", src, got, int64(wl.Progress(staged)))
				}
			}
			if err := b.ResumeJob("j"); err != nil {
				t.Fatal(err)
			}
			// The feeder resumes from the restored frontiers.
			for w := staged + 1; w <= windows; w++ {
				for src := 0; src < wl.Sources; src++ {
					if err := b.Ingest("j", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for src := 0; src < wl.Sources; src++ {
				if err := b.Ingest("j", src, nil, wl.Progress(windows+1)); err != nil {
					t.Fatal(err)
				}
			}
			testkit.DrainOrFail(t, b, 20*time.Second)

			diffWindows(t, "restored run", want, outputWindows(t, rec, "j"))
			if created, executed, discarded := b.Created(), b.Executed(), b.Discarded(); created != executed+discarded {
				t.Fatalf("target engine conservation: created %d != executed %d + discarded %d",
					created, executed, discarded)
			}
			if b.Discarded() != 0 {
				t.Fatalf("restore discarded %d messages on the clean path", b.Discarded())
			}
		})
	}
}

// TestCheckpointDeterminism: the same seeded workload, drained to the same
// cut, snapshots to byte-identical files, run to run. Determinism requires
// an empty-queue cut (queued messages carry wall-clock enqueue times);
// handler state, frontiers, and the topology digest are all virtual-time and
// must encode identically.
func TestCheckpointDeterminism(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			run := func() []byte {
				e := New(cell.Cfg(Config{Workers: 1}))
				if _, err := e.AddJob(lsSpec("j")); err != nil {
					t.Fatal(err)
				}
				// Ingest everything before Start so message IDs — and with
				// one worker, the execution order — are a pure function of
				// the workload.
				wl := testLoad(6)
				for w := 1; w <= wl.Windows; w++ {
					for src := 0; src < wl.Sources; src++ {
						if err := e.Ingest("j", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
							t.Fatal(err)
						}
					}
				}
				e.Start()
				defer e.Stop()
				testkit.DrainOrFail(t, e, 20*time.Second)
				if err := e.PauseJob("j"); err != nil {
					t.Fatal(err)
				}
				w := snap.NewWriter()
				if err := e.CheckpointJob("j", w); err != nil {
					t.Fatal(err)
				}
				return append([]byte(nil), w.Bytes()...)
			}
			first, second := run(), run()
			if !bytes.Equal(first, second) {
				t.Fatalf("same workload, different snapshots: %d vs %d bytes", len(first), len(second))
			}
		})
	}
}

// TestRestoreRejectsCorruptCheckpoint: torn (truncated) and bit-flipped
// checkpoint files must fail restore cleanly — error returned, no job
// registered, conservation settled — never resurrect a half-written job.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	// One good snapshot with both handler state and a queued backlog.
	src := New(Config{Workers: 1})
	if _, err := src.AddJob(lsSpec("j")); err != nil {
		t.Fatal(err)
	}
	wl := testLoad(4)
	wl.IngestAll(t, src, "j") // engine never started: all messages stay queued
	if err := src.PauseJob("j"); err != nil {
		t.Fatal(err)
	}
	w := snap.NewWriter()
	if err := src.CheckpointJob("j", w); err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), w.Bytes()...)
	src.Stop()

	dir := t.TempDir()
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"torn-header", func(t *testing.T, path string) { testkit.TruncateFile(t, path, 5) }},
		{"torn-half", func(t *testing.T, path string) { testkit.TruncateFile(t, path, int64(len(good)/2)) }},
		{"torn-one-byte", func(t *testing.T, path string) { testkit.TruncateFile(t, path, int64(len(good)-1)) }},
		{"bitflip-body", func(t *testing.T, path string) { testkit.FlipByte(t, path, int64(len(good)/2)) }},
		{"bitflip-crc", func(t *testing.T, path string) { testkit.FlipByte(t, path, int64(len(good)-2)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := dir + "/" + tc.name + ".ckpt"
			if err := os.WriteFile(path, good, 0o644); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, path)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			e := New(Config{Workers: 1})
			defer e.Stop()
			if _, err := e.RestoreJob(lsSpec("j"), data); err == nil {
				t.Fatal("restore accepted a corrupted checkpoint")
			}
			// The failed restore must leave no residue: the name is free and
			// every message it created was discarded.
			if _, err := e.AddJob(lsSpec("j")); err != nil {
				t.Fatalf("name still taken after failed restore: %v", err)
			}
			if created, executed, discarded := e.Created(), e.Executed(), e.Discarded(); created != executed+discarded {
				t.Fatalf("failed restore broke conservation: created %d, executed %d, discarded %d",
					created, executed, discarded)
			}
		})
	}

	t.Run("digest-mismatch", func(t *testing.T) {
		e := New(Config{Workers: 1})
		defer e.Stop()
		other := lsSpec("j")
		other.Stages[0].Parallelism++ // structurally different topology
		if _, err := e.RestoreJob(other, good); err == nil {
			t.Fatal("restore accepted a snapshot with a mismatched topology digest")
		}
		if _, err := e.RestoreJob(lsSpec("wrong-name"), good); err == nil {
			t.Fatal("restore accepted a snapshot of a differently named job")
		}
	})
}

// TestCheckpointerSkipsQuarantined: CheckpointJob refuses a job
// quarantined by a handler panic — its post-panic state is suspect, and
// restoring it would bring the job back unmarked — while the healthy
// neighbor checkpoints. The refusal leaves the writer empty.
func TestCheckpointerSkipsQuarantined(t *testing.T) {
	defer testkit.LeakCheck(t)()
	e := New(Config{Workers: 1})
	bad := lsSpec("bad")
	bad.Stages[0].NewHandler = testkit.PanicOnNth(bad.Stages[0].NewHandler, 1)
	if _, err := e.AddJob(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddJob(lsSpec("good")); err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	wl := testLoad(3)
	for w := 1; w <= wl.Windows; w++ {
		for src := 0; src < wl.Sources; src++ {
			if err := e.Ingest("bad", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
				break
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !e.JobFailed("bad") {
		if time.Now().After(deadline) {
			t.Fatal("panic never quarantined the job")
		}
		time.Sleep(time.Millisecond)
	}
	wl.IngestAll(t, e, "good")
	// Engine-wide Drain would block on the quarantined job's retained
	// backlog; drain just the healthy one.
	if drained, err := e.DrainJob("good", 20*time.Second); err != nil || !drained {
		t.Fatalf("healthy job did not drain (drained=%v err=%v)", drained, err)
	}
	w := snap.NewWriter()
	if err := e.CheckpointJob("good", w); err != nil {
		t.Fatalf("healthy job: %v", err)
	}
	err := e.CheckpointJob("bad", w)
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("quarantined job checkpointed: err = %v", err)
	}
	if !bytes.Equal(w.Body(), snap.NewWriter().Body()) {
		t.Fatalf("refused checkpoint left %d bytes in the writer", len(w.Body()))
	}
	if !e.JobPaused("bad") || !e.JobFailed("bad") {
		t.Fatal("refused checkpoint lifted the quarantine")
	}
}

// TestCheckpointQuarantineDuringQuiesce: a handler panic that lands while
// CheckpointJob waits out the job's in-flight message fails the
// checkpoint, and the checkpoint must not resume the job it paused — the
// quarantine stays in force: paused, failed, refusing ingest.
func TestCheckpointQuarantineDuringQuiesce(t *testing.T) {
	defer testkit.LeakCheck(t)()
	entered, release := make(chan struct{}), make(chan struct{})
	spec := dataflow.JobSpec{
		Name: "j", Latency: vtime.Hour, Sources: 1,
		Stages: []dataflow.StageSpec{{
			Name: "gated", Parallelism: 1,
			NewHandler: func(int) dataflow.Handler {
				return dataflow.HandlerFunc(func(*dataflow.Context, *core.Message) []dataflow.Emission {
					close(entered) // the job is fed one message
					<-release
					panic("injected fault during the checkpoint quiesce")
				})
			},
		}},
	}
	e := New(Config{Workers: 1})
	if _, err := e.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	b := dataflow.NewBatch(1)
	b.Append(1, 0, 1)
	if err := e.Ingest("j", 0, b, 1); err != nil {
		t.Fatal(err)
	}
	<-entered

	w := snap.NewWriter()
	errc := make(chan error, 1)
	go func() { errc <- e.CheckpointJob("j", w) }()
	// The checkpoint's pause has landed once JobPaused reports it; the
	// checkpoint is then waiting on the gated message.
	for !e.JobPaused("j") {
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	if err := <-errc; err == nil {
		t.Fatal("CheckpointJob succeeded although the job was quarantined during its quiesce")
	}
	if !bytes.Equal(w.Body(), snap.NewWriter().Body()) {
		t.Fatalf("refused checkpoint left %d bytes in the writer", len(w.Body()))
	}
	if !e.JobFailed("j") || !e.JobPaused("j") {
		t.Fatalf("after the refused checkpoint: failed=%v paused=%v, want both", e.JobFailed("j"), e.JobPaused("j"))
	}
	b = dataflow.NewBatch(1)
	b.Append(2, 0, 1)
	if err := e.Ingest("j", 0, b, 2); !errors.Is(err, ErrJobPaused) {
		t.Fatalf("ingest into the quarantined job: err = %v, want ErrJobPaused", err)
	}
}

// TestKillRestoreUnderLoad is the acceptance pin: concurrent producers
// flood the job while workers execute; mid-stream the job is paused,
// checkpointed, and the engine killed without draining. A second engine
// restores the snapshot and the producers resume from the restored
// per-source frontiers. The combined run must emit exactly the reference
// run's windows — the kill loses no completed window and duplicates none.
func TestKillRestoreUnderLoad(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			const windows = 60
			wl := testLoad(windows)
			cfg := cell.Cfg(Config{Workers: 2})
			want := referenceWindows(t, cfg, wl)

			a := New(withHistory(cfg))
			if _, err := a.AddJob(lsSpec("j")); err != nil {
				t.Fatal(err)
			}
			a.Start()
			var wg sync.WaitGroup
			for src := 0; src < wl.Sources; src++ {
				wg.Add(1)
				go func(src int) {
					defer wg.Done()
					for w := 1; w <= windows; w++ {
						err := a.Ingest("j", src, wl.Batch(src, w), wl.Progress(w))
						if errors.Is(err, ErrJobPaused) {
							return // the kill landed; this source resumes on the target
						}
						if err != nil {
							t.Error(err)
							return
						}
						time.Sleep(200 * time.Microsecond)
					}
				}(src)
			}
			time.Sleep(4 * time.Millisecond) // let execution race the producers
			if err := a.PauseJob("j"); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			w := snap.NewWriter()
			if err := a.CheckpointJob("j", w); err != nil {
				t.Fatal(err)
			}
			data := append([]byte(nil), w.Bytes()...)
			cut, rec := a.Now(), a.Recorder()
			a.Stop() // the kill: no drain, no cancel

			b := New(cell.Cfg(Config{Workers: 2, StartTime: vtime.Duration(cut), Recorder: rec}))
			b.Start()
			defer b.Stop()
			job, err := b.RestoreJob(lsSpec("j"), data)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.ResumeJob("j"); err != nil {
				t.Fatal(err)
			}
			for src := 0; src < wl.Sources; src++ {
				next := int(job.SourceProgress[src].Load()/int64(testWin)) + 1
				for w := next; w <= windows; w++ {
					if err := b.Ingest("j", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
						t.Fatal(err)
					}
				}
				if err := b.Ingest("j", src, nil, wl.Progress(windows+1)); err != nil {
					t.Fatal(err)
				}
			}
			testkit.DrainOrFail(t, b, 20*time.Second)

			diffWindows(t, "kill+restore under load", want, outputWindows(t, rec, "j"))
			if created, executed, discarded := b.Created(), b.Executed(), b.Discarded(); created != executed+discarded {
				t.Fatalf("target conservation: created %d != executed %d + discarded %d",
					created, executed, discarded)
			}
		})
	}
}

// TestLiveMigration moves a job between two RUNNING engines: pause +
// checkpoint on the source (the cut stays open), restore on the target
// with the shared recorder, cancel on the source (settling its
// conservation by discarding the moved backlog), resume on the target,
// and finish the stream there. The job's combined outputs must equal the
// straight-through reference, and a bystander job on the source must be
// untouched by the whole move.
func TestLiveMigration(t *testing.T) {
	for _, cell := range EngineCells {
		t.Run(cell.Name, func(t *testing.T) {
			defer testkit.LeakCheck(t)()
			const windows, cutAt = 10, 6
			wl := testLoad(windows)
			want := referenceWindows(t, cell.Cfg(Config{Workers: 2}), wl)

			a := New(withHistory(cell.Cfg(Config{Workers: 2})))
			for _, name := range []string{"mig", "stay"} {
				if _, err := a.AddJob(lsSpec(name)); err != nil {
					t.Fatal(err)
				}
			}
			a.Start()
			defer a.Stop()
			for w := 1; w <= cutAt; w++ {
				for src := 0; src < wl.Sources; src++ {
					for _, name := range []string{"mig", "stay"} {
						if err := a.Ingest(name, src, wl.Batch(src, w), wl.Progress(w)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			// The cut: pause, snapshot (held open), hand off, tear down.
			if err := a.PauseJob("mig"); err != nil {
				t.Fatal(err)
			}
			w := snap.NewWriter()
			if err := a.CheckpointJob("mig", w); err != nil {
				t.Fatal(err)
			}
			b := New(cell.Cfg(Config{Workers: 2, StartTime: vtime.Duration(a.Now()), Recorder: a.Recorder()}))
			b.Start()
			defer b.Stop()
			if _, err := b.RestoreJob(lsSpec("mig"), w.Bytes()); err != nil {
				t.Fatal(err)
			}
			if err := a.CancelJob("mig"); err != nil {
				t.Fatal(err)
			}
			if err := b.ResumeJob("mig"); err != nil {
				t.Fatal(err)
			}
			// The stream continues: "mig" now feeds the target engine.
			for w := cutAt + 1; w <= windows; w++ {
				for src := 0; src < wl.Sources; src++ {
					if err := b.Ingest("mig", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
						t.Fatal(err)
					}
					if err := a.Ingest("stay", src, wl.Batch(src, w), wl.Progress(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for src := 0; src < wl.Sources; src++ {
				if err := b.Ingest("mig", src, nil, wl.Progress(windows+1)); err != nil {
					t.Fatal(err)
				}
				if err := a.Ingest("stay", src, nil, wl.Progress(windows+1)); err != nil {
					t.Fatal(err)
				}
			}
			testkit.DrainOrFail(t, a, 20*time.Second)
			testkit.DrainOrFail(t, b, 20*time.Second)

			diffWindows(t, "migrated job", want, outputWindows(t, a.Recorder(), "mig"))
			// The shared recorder's entry accumulated across both engines:
			// its exact count and histogram cover every window.
			js := a.Recorder().Job("mig")
			if js.Count() != int64(len(want)) {
				t.Fatalf("migrated job's stats count %d outputs, reference %d", js.Count(), len(want))
			}
			if h, x := js.Quantile(1), js.Latencies.Quantile(1); math.Abs(h-x) > x/8 {
				t.Fatalf("migrated job's histogram max %v µs, exact %v µs", h, x)
			}
			if created, executed, discarded := a.Created(), a.Executed(), a.Discarded(); created != executed+discarded {
				t.Fatalf("source conservation: created %d != executed %d + discarded %d",
					created, executed, discarded)
			}
			if created, executed, discarded := b.Created(), b.Executed(), b.Discarded(); created != executed+discarded {
				t.Fatalf("target conservation: created %d != executed %d + discarded %d",
					created, executed, discarded)
			}
			// The bystander on the source saw the full stream, unperturbed.
			stay := outputWindows(t, a.Recorder(), "stay")
			if len(stay) != len(want) {
				t.Fatalf("bystander produced %d windows, reference %d — migration perturbed it",
					len(stay), len(want))
			}
		})
	}
}
