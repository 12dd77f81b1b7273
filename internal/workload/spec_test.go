package workload

// Spec-serialization coverage for the engine-shape fields: drain_batch is
// a plain integer that round-trips byte-stably so A/B spec pairs diff
// cleanly, and removed knobs (run_queue, adaptive_budgets, the "adaptive"
// drain_batch form) are loud parse errors rather than silently ignored.

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"github.com/cameo-stream/cameo/internal/vtime"
)

func minimalSpecJSON(engineFields string) string {
	return `{
		"name": "t",
		"seed": 1,
		"duration_us": 1000000,
		` + engineFields + `
		"tenants": [{
			"name": "a",
			"sources": 2,
			"interval_us": 10000,
			"arrival": {"kind": "constant", "rate": 4},
			"window_us": 50000,
			"slo": {"deadline_us": 100000}
		}]
	}`
}

func TestParseSpecDrainBatchForms(t *testing.T) {
	fixed, err := ParseSpec([]byte(minimalSpecJSON(`"drain_batch": 16,`)))
	if err != nil {
		t.Fatal(err)
	}
	if fixed.DrainBatch != 16 {
		t.Fatalf("fixed form parsed as %d", fixed.DrainBatch)
	}
	unset, err := ParseSpec([]byte(minimalSpecJSON("")))
	if err != nil {
		t.Fatal(err)
	}
	if unset.DrainBatch != 0 {
		t.Fatalf("absent drain_batch parsed as %d", unset.DrainBatch)
	}
}

func TestParseSpecDrainBatchRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`"drain_batch": "adaptive",`, // removed forms fail, not fall back
		`"run_queue": "heap",`,
		`"adaptive_budgets": true,`,
		`"drain_batch": true,`,
		`"drain_batch": 1.5,`,
		`"drain_batch": -1,`,
	} {
		if _, err := ParseSpec([]byte(minimalSpecJSON(bad))); err == nil {
			t.Errorf("spec with %s parsed without error", bad)
		}
	}
}

// TestDrainBatchSpecRoundTrip pins that a set drain_batch survives
// parse -> marshal -> parse and that the re-marshaled bytes are stable.
func TestDrainBatchSpecRoundTrip(t *testing.T) {
	for _, size := range []int{1, 64} {
		s, err := ParseSpec([]byte(minimalSpecJSON(`"drain_batch": ` + strconv.Itoa(size) + `,`)))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.DrainBatch != size {
			t.Errorf("round trip %d -> %s -> %d", size, buf, back.DrainBatch)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(buf) {
			t.Errorf("re-marshal not byte-stable:\n%s\n%s", buf, again)
		}
	}
}

// TestSpecMarshalOmitsUnsetDrainBatch pins the omitempty behavior — a
// spec that never mentions drain_batch must not grow a "drain_batch": 0
// field when re-marshaled, so re-serialized specs stay diffable against
// their sources — while a set drain_batch is written and read back.
func TestSpecMarshalOmitsUnsetDrainBatch(t *testing.T) {
	s := &Spec{
		Name: "t", Seed: 1, DurationUS: vtime.Second,
		Tenants: []TenantSpec{{
			Name: "a", Sources: 1, IntervalUS: 10 * vtime.Millisecond,
			WindowUS: 50 * vtime.Millisecond,
			SLO:      SLOSpec{DeadlineUS: 100 * vtime.Millisecond},
		}},
	}
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(buf), "drain_batch") {
		t.Fatalf("unset drain_batch serialized: %s", buf)
	}
	s.DrainBatch = 16
	buf, err = json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"drain_batch":16`) {
		t.Fatalf("set drain_batch not serialized: %s", buf)
	}
	back, err := ParseSpec(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.DrainBatch != 16 {
		t.Fatalf("marshal->parse lost drain_batch: %d", back.DrainBatch)
	}
}
