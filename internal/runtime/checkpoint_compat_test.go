package runtime

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// ckptTimesOnly is the times-only batch of jobCkptScenario's backlog. Its
// three event times are unlike anything else in the checkpoint, so a test
// can find the batch's tuple count in the encoding.
var ckptTimesOnly = []vtime.Time{4*testWin - 3, 4*testWin - 2, 4*testWin - 1}

// jobCkptScenario builds the job behind testdata/job.ckpt on a one-worker
// engine and returns the engine stopped, with the job paused. Two closed
// windows and half of a third are executed, so the aggregation holds open
// windows. Then, with the workers gone, a backlog is queued: a keyed batch
// (split across both instances), a keyless batch with values, a batch of
// times only and a data-less progress advance. Every ingest but the keyed
// one reaches one instance with data and the other with progress only.
func jobCkptScenario(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Workers: 1})
	if _, err := e.AddJob(lsSpec("j")); err != nil {
		t.Fatal(err)
	}
	wl := testLoad(4)
	ingest := func(src int, b *dataflow.Batch, p vtime.Time) {
		t.Helper()
		if err := e.Ingest("j", src, b, p); err != nil {
			t.Fatal(err)
		}
	}
	for w := 1; w <= 3; w++ {
		p := wl.Progress(w)
		if w == 3 {
			p -= testWin / 2
		}
		for src := 0; src < wl.Sources; src++ {
			ingest(src, wl.Batch(src, w), p)
		}
	}
	e.Start()
	testkit.DrainOrFail(t, e, 10*time.Second)
	e.Stop()
	ingest(0, wl.Batch(0, 4), wl.Progress(4))
	ingest(1, &dataflow.Batch{Times: []vtime.Time{4*testWin - 9, 4*testWin - 8}, Vals: []float64{0.5, -1}}, 4*testWin-8)
	ingest(0, &dataflow.Batch{Times: ckptTimesOnly}, wl.Progress(4))
	ingest(1, nil, wl.Progress(4))
	if err := e.PauseJob("j"); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCheckpointCompat pins the job checkpoint format across versions:
// testdata/job.ckpt was written by an earlier engine from jobCkptScenario.
// It must restore, with its whole backlog, and checkpointing the restored
// job must give the same bytes back.
func TestCheckpointCompat(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "job.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1})
	j, err := e.RestoreJob(lsSpec("j"), want)
	if err != nil {
		t.Fatal(err)
	}
	if q := j.Queued.Load(); q != 8 {
		t.Errorf("restored backlog holds %d messages, want 8 (4 ingests × 2 instances)", q)
	}
	w := snap.NewWriter()
	if err := e.CheckpointJob("j", w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("restored job checkpoints %d bytes that differ from the committed %d", len(w.Bytes()), len(want))
	}
}

// TestRestoreRejectsOversizedBatchCount: a checkpoint with a valid CRC
// whose batch declares more tuples than its remaining bytes can hold must
// fail restore at that batch, before anything is allocated for it, and
// leave no job behind.
func TestRestoreRejectsOversizedBatchCount(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "job.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	// A present batch (bool 1) of three tuples starting with ckptTimesOnly.
	pattern := []byte{1, 3, 0, 0, 0}
	pattern = binary.LittleEndian.AppendUint64(pattern, uint64(ckptTimesOnly[0]))
	at := bytes.Index(data, pattern)
	if at < 0 || bytes.Index(data[at+1:], pattern) >= 0 {
		t.Fatal("the times-only batch is not in the checkpoint exactly once")
	}
	body := append([]byte(nil), data[:len(data)-4]...)
	countAt := at + 1
	// As many tuples as bytes are left: under the old one-byte-per-tuple
	// bound this count passed.
	binary.LittleEndian.PutUint32(body[countAt:], uint32(len(body)-countAt-4))
	bad := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))

	e := New(Config{Workers: 1})
	_, err = e.RestoreJob(lsSpec("j"), bad)
	if err == nil || !strings.Contains(err.Error(), "batch of") {
		t.Fatalf("restore error %v, want one naming the batch", err)
	}
	if _, ok := e.job("j"); ok {
		t.Error("failed restore left the job registered")
	}
	if created, executed, discarded := e.Created(), e.Executed(), e.Discarded(); created != executed+discarded {
		t.Errorf("failed restore broke conservation: created %d, executed %d, discarded %d", created, executed, discarded)
	}
}

// TestWriteJobCkpt writes testdata/job.ckpt from jobCkptScenario when
// CAMEO_WRITE_JOB_CKPT is set. The committed file must come from the
// engine the format is being pinned against, so run this only on that
// engine's tree.
func TestWriteJobCkpt(t *testing.T) {
	if os.Getenv("CAMEO_WRITE_JOB_CKPT") == "" {
		t.Skip("set CAMEO_WRITE_JOB_CKPT=1 to rewrite testdata/job.ckpt")
	}
	e := jobCkptScenario(t)
	w := snap.NewWriter()
	if err := e.CheckpointJob("j", w); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "job.ckpt"), w.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
