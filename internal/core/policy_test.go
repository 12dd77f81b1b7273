package core

import (
	"testing"

	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/vtime"
)

func ms(n int64) vtime.Time { return vtime.Time(n) * vtime.Millisecond }

func TestLLFPaperFigure4Example(t *testing.T) {
	// Paper §4.2.1: "ddlM2 = 30 + 50 − 20 = 60": a message arriving at
	// t=30 with L=50 into an operator costing 20 (no downstream path)
	// must start by 60.
	p := &DeadlinePolicy{Kind: KindLLF}
	m := &Message{P: ms(30), T: ms(30)}
	p.OnSource(m, TargetInfo{Cost: ms(20), Latency: ms(50)})
	if m.PC.PriGlobal != ms(60) {
		t.Fatalf("ddl = %v, want 60ms", m.PC.PriGlobal)
	}
	if m.PC.PriLocal != ms(30) {
		t.Fatalf("PriLocal = %v, want 30ms (stream progress)", m.PC.PriLocal)
	}
}

func TestLLFSubtractsCriticalPath(t *testing.T) {
	// Eq. 2: downstream critical path tightens the deadline.
	p := &DeadlinePolicy{Kind: KindLLF}
	m := &Message{P: ms(0), T: ms(100)}
	p.OnSource(m, TargetInfo{Cost: ms(10), PathCost: ms(25), Latency: ms(200)})
	if want := ms(100 + 200 - 10 - 25); m.PC.PriGlobal != want {
		t.Fatalf("ddl = %v, want %v", m.PC.PriGlobal, want)
	}
}

func TestLLFWindowedDeadlineExtension(t *testing.T) {
	// Eq. 3: a windowed target with a known progress->time mapping extends
	// the deadline to the frontier time. Ingestion-time stream: identity
	// mapping, 10s tumbling window, message at p=t=3s. Frontier progress is
	// 10s, so ddl = 10s + L − C.
	p := &DeadlinePolicy{Kind: KindLLF}
	m := &Message{P: 3 * vtime.Second, T: 3 * vtime.Second}
	ti := TargetInfo{
		Slide:   10 * vtime.Second,
		Mapper:  progress.IdentityMapper{},
		Cost:    ms(20),
		Latency: vtime.Second,
	}
	p.OnSource(m, ti)
	wantPMF := 10 * vtime.Second
	if m.PC.PMF != wantPMF || m.PC.TMF != wantPMF {
		t.Fatalf("frontier = (%v, %v), want (10s, 10s)", m.PC.PMF, m.PC.TMF)
	}
	if want := wantPMF + vtime.Second - ms(20); m.PC.PriGlobal != want {
		t.Fatalf("ddl = %v, want %v", m.PC.PriGlobal, want)
	}
	if m.PC.PriLocal != wantPMF {
		t.Fatalf("PriLocal = %v, want frontier progress", m.PC.PriLocal)
	}
}

func TestLLFColdMapperFallsBackToRegular(t *testing.T) {
	// Paper §4.3: when frontier time cannot be inferred, treat the windowed
	// operator as regular — deadline from (p, t) directly.
	p := &DeadlinePolicy{Kind: KindLLF}
	m := &Message{P: 3 * vtime.Second, T: 3 * vtime.Second}
	cold := progress.NewRegressionMapper(8, 2) // no observations yet
	ti := TargetInfo{Slide: 10 * vtime.Second, Mapper: cold, Cost: ms(20), Latency: vtime.Second}
	p.OnSource(m, ti)
	if want := 3*vtime.Second + vtime.Second - ms(20); m.PC.PriGlobal != want {
		t.Fatalf("conservative ddl = %v, want %v", m.PC.PriGlobal, want)
	}
	// Only the deadline falls back: local order stays the window end.
	if m.PC.PMF != 10*vtime.Second || m.PC.PriLocal != 10*vtime.Second {
		t.Fatalf("PMF/PriLocal = %v/%v, want the window end 10s", m.PC.PMF, m.PC.PriLocal)
	}
}

// TestPriLocalIsWindowEndWhateverTheMapper: into a windowed target,
// PriLocal is TRANSFORM of the message's progress with a cold, absent,
// or behind-the-message estimate alike, and only PriGlobal/TMF fall back.
// Under the earlier rule a late batch whose estimate fell below its own
// arrival time got its raw progress as PriLocal and sorted ahead of its
// channel's earlier messages.
func TestPriLocalIsWindowEndWhateverTheMapper(t *testing.T) {
	p := &DeadlinePolicy{Kind: KindLLF}
	ahead := progress.NewRegressionMapper(8, 2)
	ahead.Observe(0, 0)
	ahead.Observe(ms(100), ms(100)) // identity fit: estimate(50ms) = 50ms
	for _, c := range []struct {
		name   string
		mapper progress.Mapper
	}{
		{"estimate below arrival", progress.IdentityMapper{}},
		{"fitted estimate below arrival", ahead},
		{"cold mapper", progress.NewRegressionMapper(8, 2)},
		{"no mapper", nil},
	} {
		// Window 50ms; the message at progress 10ms arrives at 60ms, after
		// its window's end (50ms) would have been estimated to pass.
		m := &Message{P: ms(10), T: ms(60)}
		ti := TargetInfo{Slide: ms(50), Mapper: c.mapper, Cost: ms(1), Latency: ms(20)}
		p.OnSource(m, ti)
		if m.PC.PriLocal != ms(50) || m.PC.PMF != ms(50) {
			t.Errorf("%s: PriLocal/PMF = %v/%v, want the window end 50ms", c.name, m.PC.PriLocal, m.PC.PMF)
		}
		if m.PC.TMF != ms(60) || m.PC.PriGlobal != ms(60+20-1) {
			t.Errorf("%s: TMF/ddl = %v/%v, want the regular-operator fallback 60ms/79ms", c.name, m.PC.TMF, m.PC.PriGlobal)
		}
	}
}

// TestUnsetProgressSortsFirstAndTrainsNothing: a message without progress
// (data a stateless operator forwarded before hearing from every channel)
// gets PriLocal Unset, the lowest, and is not fed to the regression.
func TestUnsetProgressSortsFirstAndTrainsNothing(t *testing.T) {
	p := &DeadlinePolicy{Kind: KindLLF}
	mapper := progress.NewRegressionMapper(8, 2)
	ti := TargetInfo{Slide: ms(50), EventTime: true, Mapper: mapper, Latency: ms(20)}
	for i := 0; i < 3; i++ {
		m := &Message{P: progress.Unset, T: ms(int64(10 * i))}
		p.OnHop(&PriorityContext{}, m, ti)
		if m.PC.PriLocal != progress.Unset || m.PC.TMF != m.T {
			t.Fatalf("PriLocal/TMF = %v/%v, want Unset/%v", m.PC.PriLocal, m.PC.TMF, m.T)
		}
	}
	if _, ok := mapper.Map(ms(50)); ok {
		t.Fatal("messages without progress trained the regression")
	}
}

func TestLLFNilMapperFallsBackToRegular(t *testing.T) {
	p := &DeadlinePolicy{Kind: KindLLF}
	m := &Message{P: ms(500), T: ms(700)}
	p.OnSource(m, TargetInfo{Slide: vtime.Second, Latency: vtime.Second})
	if want := ms(700) + vtime.Second; m.PC.PriGlobal != want {
		t.Fatalf("ddl = %v, want %v", m.PC.PriGlobal, want)
	}
}

func TestSemanticsUnawareIgnoresWindows(t *testing.T) {
	// Figure 15 ablation: Cameo without query semantics uses the tighter
	// regular-operator deadline even for windowed targets.
	aware := &DeadlinePolicy{Kind: KindLLF}
	unaware := &DeadlinePolicy{Kind: KindLLF, SemanticsUnaware: true}
	ti := TargetInfo{Slide: 10 * vtime.Second, Mapper: progress.IdentityMapper{}, Latency: vtime.Second}

	ma := &Message{P: 3 * vtime.Second, T: 3 * vtime.Second}
	mu := &Message{P: 3 * vtime.Second, T: 3 * vtime.Second}
	aware.OnSource(ma, ti)
	unaware.OnSource(mu, ti)
	if mu.PC.PriGlobal >= ma.PC.PriGlobal {
		t.Fatalf("unaware ddl %v should be tighter than aware %v", mu.PC.PriGlobal, ma.PC.PriGlobal)
	}
	if unaware.Name() != "llf-nosem" {
		t.Fatalf("Name = %q", unaware.Name())
	}
}

func TestEDFOmitsOperatorCost(t *testing.T) {
	edf := &DeadlinePolicy{Kind: KindEDF}
	m := &Message{P: ms(30), T: ms(30)}
	edf.OnSource(m, TargetInfo{Cost: ms(20), PathCost: ms(5), Latency: ms(50)})
	if want := ms(30 + 50 - 5); m.PC.PriGlobal != want {
		t.Fatalf("EDF ddl = %v, want %v", m.PC.PriGlobal, want)
	}
}

func TestSJFPriorityIsCost(t *testing.T) {
	sjf := &DeadlinePolicy{Kind: KindSJF}
	m := &Message{P: ms(30), T: ms(30)}
	sjf.OnSource(m, TargetInfo{Cost: ms(20), Latency: ms(50)})
	if m.PC.PriGlobal != ms(20) {
		t.Fatalf("SJF pri = %v, want cost 20ms", m.PC.PriGlobal)
	}
}

func TestEventTimeFeedsMapper(t *testing.T) {
	p := &DeadlinePolicy{Kind: KindLLF}
	mapper := progress.NewRegressionMapper(8, 2)
	ti := TargetInfo{Slide: 10 * vtime.Second, EventTime: true, Mapper: mapper, Latency: vtime.Second}
	// Two source messages with a constant 2s event->arrival delay warm the
	// regression; the third gets an extended (frontier-time) deadline.
	for i := int64(1); i <= 2; i++ {
		m := &Message{P: vtime.Time(i) * vtime.Second, T: vtime.Time(i)*vtime.Second + 2*vtime.Second}
		p.OnSource(m, ti)
	}
	m := &Message{P: 3 * vtime.Second, T: 5 * vtime.Second}
	p.OnSource(m, ti)
	// Frontier progress 10s maps to ~12s under the fitted t = p + 2s model.
	if m.PC.TMF < 11*vtime.Second || m.PC.TMF > 13*vtime.Second {
		t.Fatalf("TMF = %v, want ~12s", m.PC.TMF)
	}
}

func TestOnHopUsesParentFrontier(t *testing.T) {
	p := &DeadlinePolicy{Kind: KindLLF}
	parent := &PriorityContext{PMF: 10 * vtime.Second, TMF: 12 * vtime.Second}
	m := &Message{P: 10 * vtime.Second, T: 12 * vtime.Second}
	p.OnHop(parent, m, TargetInfo{Cost: ms(5), Latency: vtime.Second})
	if want := 12*vtime.Second + vtime.Second - ms(5); m.PC.PriGlobal != want {
		t.Fatalf("hop ddl = %v, want %v", m.PC.PriGlobal, want)
	}
}

func TestWindowedMapperNeverShrinksDeadline(t *testing.T) {
	// A mapper estimate earlier than the message's own physical time would
	// *tighten* the deadline below the regular-operator bound; the policy
	// must reject it (mapping noise shouldn't make schedules stricter than
	// topology-only scheduling).
	p := &DeadlinePolicy{Kind: KindLLF}
	mapper := progress.NewRegressionMapper(8, 2)
	// Model: t = p - 5s (stale/noisy fit predicting the past).
	mapper.Observe(10*vtime.Second, 5*vtime.Second)
	mapper.Observe(20*vtime.Second, 15*vtime.Second)
	m := &Message{P: 21 * vtime.Second, T: 30 * vtime.Second}
	p.OnSource(m, TargetInfo{Slide: 10 * vtime.Second, Mapper: mapper, Latency: vtime.Second})
	if m.PC.TMF != 30*vtime.Second {
		t.Fatalf("TMF = %v, want clamped to message T 30s", m.PC.TMF)
	}
}

func TestMaxLaxityStarvationGuard(t *testing.T) {
	// A very lax job (hours-scale L) with the guard: the deadline is
	// capped at arrival + MaxLaxity, so sustained strict-job load cannot
	// starve it indefinitely.
	p := &DeadlinePolicy{Kind: KindLLF, MaxLaxity: 2 * vtime.Second}
	m := &Message{P: ms(100), T: ms(100)}
	p.OnSource(m, TargetInfo{Latency: 7200 * vtime.Second})
	if want := ms(100) + 2*vtime.Second; m.PC.PriGlobal != want {
		t.Fatalf("capped ddl = %v, want %v", m.PC.PriGlobal, want)
	}
	// A strict job under the cap is unaffected.
	m2 := &Message{P: ms(100), T: ms(100)}
	p.OnSource(m2, TargetInfo{Latency: ms(500)})
	if want := ms(600); m2.PC.PriGlobal != want {
		t.Fatalf("uncapped ddl = %v, want %v", m2.PC.PriGlobal, want)
	}
	// SJF priorities are costs, not deadlines: the cap must not apply.
	sjf := &DeadlinePolicy{Kind: KindSJF, MaxLaxity: vtime.Millisecond}
	m3 := &Message{P: 0, T: 0}
	sjf.OnSource(m3, TargetInfo{Cost: ms(20)})
	if m3.PC.PriGlobal != ms(20) {
		t.Fatalf("SJF pri = %v, want cost", m3.PC.PriGlobal)
	}
}

func TestArrivalPolicy(t *testing.T) {
	var p ArrivalPolicy
	m := &Message{P: ms(5), T: ms(9)}
	p.OnSource(m, TargetInfo{Latency: vtime.Second})
	if m.PC.PriGlobal != ms(9) || m.PC.PriLocal != ms(5) {
		t.Fatalf("arrival PC = %+v", m.PC)
	}
	child := &Message{P: ms(5), T: ms(11)}
	p.OnHop(&m.PC, child, TargetInfo{})
	if child.PC.PriGlobal != ms(11) {
		t.Fatalf("hop arrival pri = %v", child.PC.PriGlobal)
	}
	if p.Name() != "arrival" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"llf": &DeadlinePolicy{Kind: KindLLF},
		"edf": &DeadlinePolicy{Kind: KindEDF},
		"sjf": &DeadlinePolicy{Kind: KindSJF},
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}
