package core

import (
	"testing"

	"github.com/cameo-stream/cameo/internal/vtime"
)

func TestTokenPolicySpreadsTags(t *testing.T) {
	p := NewTokenPolicy(vtime.Second)
	p.SetRate("j1", 4)
	// Four messages in interval 0 get tags spread at 0, 250, 500, 750ms.
	want := []vtime.Time{0, 250 * vtime.Millisecond, 500 * vtime.Millisecond, 750 * vtime.Millisecond}
	for i, w := range want {
		m := &Message{P: vtime.Time(i), T: vtime.Time(i) * 10 * vtime.Millisecond}
		p.OnSource(m, TargetInfo{Job: "j1"})
		if m.PC.PriGlobal != w {
			t.Fatalf("msg %d tag = %v, want %v", i, m.PC.PriGlobal, w)
		}
		if m.PC.PriLocal != m.P {
			t.Fatalf("msg %d PriLocal = %v, want its progress", i, m.PC.PriLocal)
		}
	}
	// Fifth message exceeds the rate: it takes the first token of the next
	// interval, behind every current token but ahead of its own successors.
	m := &Message{T: 40 * vtime.Millisecond}
	p.OnSource(m, TargetInfo{Job: "j1"})
	if m.PC.PriGlobal != vtime.Second {
		t.Fatalf("over-rate tag = %v, want 1s", m.PC.PriGlobal)
	}
}

func TestTokenPolicyIntervalReset(t *testing.T) {
	p := NewTokenPolicy(vtime.Second)
	p.SetRate("j", 1)
	m1 := &Message{T: 0}
	p.OnSource(m1, TargetInfo{Job: "j"})
	m2 := &Message{T: 500 * vtime.Millisecond} // token spent: takes the next one
	p.OnSource(m2, TargetInfo{Job: "j"})
	m3 := &Message{T: vtime.Second} // still one token behind
	p.OnSource(m3, TargetInfo{Job: "j"})
	m4 := &Message{T: 5 * vtime.Second} // idle since: the tokens catch up with the clock
	p.OnSource(m4, TargetInfo{Job: "j"})
	if m1.PC.PriGlobal != 0 || m2.PC.PriGlobal != vtime.Second {
		t.Fatalf("interval 0 tags = %v, %v, want 0, 1s", m1.PC.PriGlobal, m2.PC.PriGlobal)
	}
	if m3.PC.PriGlobal != 2*vtime.Second || m4.PC.PriGlobal != 5*vtime.Second {
		t.Fatalf("later tags = %v, %v, want 2s, 5s", m3.PC.PriGlobal, m4.PC.PriGlobal)
	}
}

// TestTokenPolicyJoinsAtVirtualTime: a job whose tokens fell behind the
// clock resumes at the earliest token clock of the jobs running ahead, not
// at the clock itself, so a job that used spare capacity alone is not
// pushed behind a newcomer's whole backlog.
func TestTokenPolicyJoinsAtVirtualTime(t *testing.T) {
	p := NewTokenPolicy(vtime.Second)
	p.SetRate("busy", 2)
	p.SetRate("late", 4)
	for i := 0; i < 10; i++ { // 10 tokens at 2/s: 5 s of tokens by T=9ms
		p.OnSource(&Message{T: vtime.Time(i) * vtime.Millisecond}, TargetInfo{Job: "busy"})
	}
	m := &Message{T: vtime.Second}
	p.OnSource(m, TargetInfo{Job: "late"})
	if m.PC.PriGlobal != 5*vtime.Second {
		t.Fatalf("joining tag = %v, want 5s (busy's next token)", m.PC.PriGlobal)
	}
	m = &Message{T: vtime.Second}
	p.OnSource(m, TargetInfo{Job: "late"})
	if m.PC.PriGlobal != 5*vtime.Second+250*vtime.Millisecond {
		t.Fatalf("next tag = %v, want 5.25s", m.PC.PriGlobal)
	}
}

func TestTokenPolicyUnknownJobIsUntokened(t *testing.T) {
	p := NewTokenPolicy(vtime.Second)
	m := &Message{T: 0}
	p.OnSource(m, TargetInfo{Job: "ghost"})
	if m.PC.PriGlobal != vtime.Infinity {
		t.Fatalf("unknown job tag = %v, want Infinity", m.PC.PriGlobal)
	}
}

func TestTokenPolicyProportionalInterleave(t *testing.T) {
	// Two jobs at 20% and 40% rates: sorting one interval's tags must
	// interleave them roughly 1:2, which is what yields proportional
	// throughput under contention (paper Figure 6).
	p := NewTokenPolicy(vtime.Second)
	p.SetRate("a", 2)
	p.SetRate("b", 4)
	type tagged struct {
		job string
		tag vtime.Time
	}
	var all []tagged
	for i := 0; i < 2; i++ {
		m := &Message{T: vtime.Time(i)}
		p.OnSource(m, TargetInfo{Job: "a"})
		all = append(all, tagged{"a", m.PC.PriGlobal})
	}
	for i := 0; i < 4; i++ {
		m := &Message{T: vtime.Time(i)}
		p.OnSource(m, TargetInfo{Job: "b"})
		all = append(all, tagged{"b", m.PC.PriGlobal})
	}
	// Tags: a -> 0, 500ms; b -> 0, 250, 500, 750ms: interleaved 1:2.
	if all[0].tag != 0 || all[1].tag != 500*vtime.Millisecond {
		t.Fatalf("a tags = %v, %v", all[0].tag, all[1].tag)
	}
	if all[3].tag != 250*vtime.Millisecond || all[5].tag != 750*vtime.Millisecond {
		t.Fatalf("b tags = %v ... %v", all[3].tag, all[5].tag)
	}
}

func TestTokenPolicyHopInheritsTag(t *testing.T) {
	p := NewTokenPolicy(vtime.Second)
	p.SetRate("j", 1)
	src := &Message{T: 0}
	p.OnSource(src, TargetInfo{Job: "j"})
	child := &Message{P: 1, T: 2}
	p.OnHop(&src.PC, child, TargetInfo{Job: "j", Latency: vtime.Second})
	if child.PC.PriGlobal != src.PC.PriGlobal {
		t.Fatalf("hop did not inherit the tag: %+v vs %+v", child.PC, src.PC)
	}
	if child.PC.PriLocal != child.P {
		t.Fatalf("hop PriLocal = %v, want the child's progress", child.PC.PriLocal)
	}
	if child.PC.L != vtime.Second {
		t.Fatalf("hop L = %v", child.PC.L)
	}
}

func TestTokenPolicyNegativeRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTokenPolicy(0).SetRate("j", -1)
}
