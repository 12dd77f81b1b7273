package replay

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/workload"
)

// testSpec is a deliberately small two-tenant spec: seconds of simulated
// time, sub-second wall time on the real-time engine.
func testSpec() *workload.Spec {
	return &workload.Spec{
		Name:       "replay-test",
		Seed:       42,
		DurationUS: 400 * vtime.Millisecond,
		Workers:    2,
		Overload:   "shed",
		MaxPending: 2048,
		Tenants: []workload.TenantSpec{
			{
				Name:       "interactive",
				Sources:    2,
				IntervalUS: 10 * vtime.Millisecond,
				Arrival:    workload.ArrivalSpec{Kind: "poisson", Rate: 30},
				FanOut:     2,
				WindowUS:   50 * vtime.Millisecond,
				Spread:     true,
				SLO:        workload.SLOSpec{DeadlineUS: 100 * vtime.Millisecond},
			},
			{
				Name:       "bulk",
				Sources:    2,
				IntervalUS: 10 * vtime.Millisecond,
				Arrival: workload.ArrivalSpec{
					Kind: "bursty", Rate: 50, Spike: 200,
					PeriodUS: 100 * vtime.Millisecond, Duty: 0.2, Jitter: 0.3,
				},
				FanOut:     2,
				WindowUS:   100 * vtime.Millisecond,
				MaxPending: 512,
				SLO:        workload.SLOSpec{DeadlineUS: 500 * vtime.Millisecond, MaxShedFrac: 0.5},
			},
		},
	}
}

// equivSpec is testSpec with admission losses disabled (no budgets, so
// nothing is shed or rejected): every offered batch is admitted, which
// makes offered load and output-window counts deterministic functions of
// the seed — comparable across the simulator, the real-time engine, and
// a kill/restore drill.
func equivSpec() *workload.Spec {
	s := testSpec()
	s.Name = "replay-equiv"
	s.Overload = "backpressure"
	s.MaxPending = 0
	for i := range s.Tenants {
		s.Tenants[i].MaxPending = 0
	}
	return s
}

// TestVerdictEquivalenceAcrossRestore extends the determinism gate of
// TestSimVerdictByteIdentical across the restore boundary: with admission
// losses disabled, the sim replay, the straight-through runtime replay,
// and the runtime replay that is killed and restored mid-run must all
// report identical offered load and identical per-tenant output-window
// counts — the kill loses no completed window and duplicates none — and
// the drill's summed conservation counters must still settle.
func TestVerdictEquivalenceAcrossRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time replay paces on the wall clock")
	}
	sv, err := Sim(equivSpec())
	if err != nil {
		t.Fatal(err)
	}
	pv, err := Engine(equivSpec())
	if err != nil {
		t.Fatal(err)
	}
	dv, err := EngineKillRestore(equivSpec(), 200*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if dv.KilledAtMS == 0 {
		t.Fatal("drill verdict does not record the kill time")
	}
	if got := dv.Messages + dv.Discarded; got != dv.Created {
		t.Fatalf("drill conservation: executed %d + discarded %d != created %d",
			dv.Messages, dv.Discarded, dv.Created)
	}
	for i := range sv.Tenants {
		st, pt, dt := sv.Tenants[i], pv.Tenants[i], dv.Tenants[i]
		if st.OfferedBatches != pt.OfferedBatches || st.OfferedBatches != dt.OfferedBatches ||
			st.OfferedTuples != pt.OfferedTuples || st.OfferedTuples != dt.OfferedTuples {
			t.Errorf("tenant %s: offered load diverged: sim %d/%d, runtime %d/%d, kill+restore %d/%d",
				st.Tenant, st.OfferedBatches, st.OfferedTuples,
				pt.OfferedBatches, pt.OfferedTuples, dt.OfferedBatches, dt.OfferedTuples)
		}
		if st.Outputs != pt.Outputs || st.Outputs != dt.Outputs {
			t.Errorf("tenant %s: output windows diverged: sim %d, runtime %d, kill+restore %d",
				st.Tenant, st.Outputs, pt.Outputs, dt.Outputs)
		}
		if dt.Shed != 0 || dt.Rejected != 0 {
			t.Errorf("tenant %s: admission losses with budgets disabled: %+v", dt.Tenant, dt)
		}
	}
}

// TestSimVerdictByteIdentical is the acceptance gate for deterministic
// replay: the same spec and seed must produce byte-identical verdict JSON.
func TestSimVerdictByteIdentical(t *testing.T) {
	a, err := Sim(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sim(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("sim verdicts differ across replays:\n%s\n%s", ja, jb)
	}
}

// TestSimVerdictHistogramPin: verdicts read latency from each tenant's
// fixed-size histogram, the simulator also keeps every output. On the
// builtin spec (three seeds) the verdict's outputs and success rate equal
// the exact history's, its percentiles lie within one bucket (12.5 %) of
// the exact ones, and no tenant's latency verdict flips against the one
// the exact p99 gives.
func TestSimVerdictHistogramPin(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		spec := workload.BuiltinCISpec()
		spec.Seed = seed
		v, rec, err := simulate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, tv := range v.Tenants {
			js := rec.Job(tv.Tenant)
			exact := js.Latencies
			if tv.Outputs == 0 || tv.Outputs != int64(exact.Len()) {
				t.Fatalf("seed %d, tenant %s: %d outputs, history holds %d", seed, tv.Tenant, tv.Outputs, exact.Len())
			}
			if want := 1 - exact.FractionAbove(float64(js.Constraint)); math.Abs(tv.SuccessRate-want) > 1e-12 {
				t.Errorf("seed %d, tenant %s: success rate %v, exact %v", seed, tv.Tenant, tv.SuccessRate, want)
			}
			for _, p := range []struct {
				q, got float64
			}{{0.5, tv.P50MS}, {0.99, tv.P99MS}} {
				if x := exact.Quantile(p.q) / 1000; math.Abs(p.got-x) > x/8 {
					t.Errorf("seed %d, tenant %s: q%v = %v ms, exact %v ms", seed, tv.Tenant, p.q, p.got, x)
				}
			}
			if exactPass := exact.Quantile(0.99)/1000 <= tv.DeadlineMS; tv.PassLatency != exactPass {
				t.Errorf("seed %d, tenant %s: latency verdict %v, exact p99 gives %v", seed, tv.Tenant, tv.PassLatency, exactPass)
			}
		}
	}
}

func TestSimVerdictShape(t *testing.T) {
	v, err := Sim(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != "sim" || v.Spec != "replay-test" || v.Seed != 42 {
		t.Fatalf("verdict header wrong: %+v", v)
	}
	if len(v.Tenants) != 2 {
		t.Fatalf("want 2 tenant verdicts, got %d", len(v.Tenants))
	}
	for _, tv := range v.Tenants {
		if tv.OfferedBatches == 0 || tv.OfferedTuples == 0 {
			t.Fatalf("tenant %s: no offered load counted", tv.Tenant)
		}
		if tv.Outputs == 0 {
			t.Fatalf("tenant %s: no outputs — windows never flushed", tv.Tenant)
		}
		if tv.Shed != 0 || tv.Rejected != 0 || tv.ShedFrac != 0 {
			t.Fatalf("tenant %s: simulator reported admission losses: %+v", tv.Tenant, tv)
		}
		if tv.P99MS < tv.P50MS {
			t.Fatalf("tenant %s: p99 %v < p50 %v", tv.Tenant, tv.P99MS, tv.P50MS)
		}
	}
	// This light spec must pass its SLOs outright.
	if !v.Pass {
		t.Fatalf("under-loaded spec failed its SLOs: %+v", v.Tenants)
	}
}

// TestEngineVerdictSmoke replays the spec on the real-time engine: the
// verdict must carry populated per-tenant latency and offered-load fields
// and conserve messages (created = executed + discarded when nothing is
// lost).
func TestEngineVerdictSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time replay paces on the wall clock")
	}
	v, err := Engine(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != "runtime" {
		t.Fatalf("mode %q", v.Mode)
	}
	if v.Created == 0 || v.Messages == 0 {
		t.Fatalf("no messages flowed: %+v", v)
	}
	if got := v.Messages + v.Discarded; got != v.Created {
		t.Fatalf("conservation: executed %d + discarded %d != created %d",
			v.Messages, v.Discarded, v.Created)
	}
	if len(v.Tenants) != 2 {
		t.Fatalf("want 2 tenant verdicts, got %d", len(v.Tenants))
	}
	for _, tv := range v.Tenants {
		if tv.OfferedBatches == 0 || tv.OfferedTuples == 0 {
			t.Fatalf("tenant %s: no offered load counted", tv.Tenant)
		}
		if tv.Outputs == 0 {
			t.Fatalf("tenant %s: no outputs", tv.Tenant)
		}
	}
}

// TestSpecRoundTrip: a spec marshalled to JSON and parsed back must drive
// an identical sim replay — the property that makes specs portable between
// the example programs, the CLI, and CI.
func TestSpecRoundTrip(t *testing.T) {
	orig := testSpec()
	if err := orig.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := workload.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	va, err := Sim(orig)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := Sim(parsed)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(va)
	jb, _ := json.Marshal(vb)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("round-tripped spec replays differently:\n%s\n%s", ja, jb)
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"name":"x","duration_us":1,"tenants":[],"bogus":1}`,
		"no tenants":      `{"name":"x","duration_us":1000,"tenants":[]}`,
		"bad scheduler":   `{"name":"x","duration_us":1000,"scheduler":"cfs","tenants":[{"name":"a","sources":1,"interval_us":1000,"window_us":1000,"slo":{"deadline_us":1000}}]}`,
		"bad arrival":     `{"name":"x","duration_us":1000,"tenants":[{"name":"a","sources":1,"interval_us":1000,"window_us":1000,"arrival":{"kind":"warp"},"slo":{"deadline_us":1000}}]}`,
		"no deadline":     `{"name":"x","duration_us":1000,"tenants":[{"name":"a","sources":1,"interval_us":1000,"window_us":1000}]}`,
		"dup tenant":      `{"name":"x","duration_us":1000,"tenants":[{"name":"a","sources":1,"interval_us":1000,"window_us":1000,"slo":{"deadline_us":1000}},{"name":"a","sources":1,"interval_us":1000,"window_us":1000,"slo":{"deadline_us":1000}}]}`,
		"shed frac > 1":   `{"name":"x","duration_us":1000,"tenants":[{"name":"a","sources":1,"interval_us":1000,"window_us":1000,"slo":{"deadline_us":1000,"max_shed_frac":1.5}}]}`,
		"zero sources":    `{"name":"x","duration_us":1000,"tenants":[{"name":"a","sources":0,"interval_us":1000,"window_us":1000,"slo":{"deadline_us":1000}}]}`,
		"bursty no duty":  `{"name":"x","duration_us":1000,"tenants":[{"name":"a","sources":1,"interval_us":1000,"window_us":1000,"arrival":{"kind":"bursty","rate":10,"period_us":100},"slo":{"deadline_us":1000}}]}`,
		"trace no counts": `{"name":"x","duration_us":1000,"tenants":[{"name":"a","sources":1,"interval_us":1000,"window_us":1000,"arrival":{"kind":"trace"},"slo":{"deadline_us":1000}}]}`,
		// The real-time engine has one dispatch path; a spec still naming
		// one must fail loudly, not replay under a knob that is gone.
		"dispatch key": `{"name":"x","duration_us":1000,"dispatch":"single-lock","tenants":[{"name":"a","sources":1,"interval_us":1000,"window_us":1000,"slo":{"deadline_us":1000}}]}`,
	}
	for name, data := range cases {
		if _, err := workload.ParseSpec([]byte(data)); err == nil {
			t.Errorf("%s: ParseSpec accepted invalid spec", name)
		}
	}

	// The baselines are valid specs for the simulator, but the real-time
	// engine runs Cameo only: every real-time driver's config must refuse
	// them, pointing at sim mode.
	for _, sched := range []string{"orleans", "fifo"} {
		data := `{"name":"x","duration_us":1000,"scheduler":"` + sched + `","tenants":[{"name":"a","sources":1,"interval_us":1000,"window_us":1000,"slo":{"deadline_us":1000}}]}`
		spec, err := workload.ParseSpec([]byte(data))
		if err != nil {
			t.Fatalf("%s: ParseSpec refused a simulator spec: %v", sched, err)
		}
		if v, err := Sim(spec); err != nil || v.Mode != "sim" {
			t.Errorf("%s: Sim = %+v, %v; want a sim verdict", sched, v, err)
		}
		if _, err := EngineConfigFor(spec); err == nil || !strings.Contains(err.Error(), "simulator") {
			t.Errorf("%s: EngineConfigFor error = %v, want one naming the simulator", sched, err)
		}
	}
}
