package core

import (
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// DeadlineKind selects the deadline formula of a DeadlinePolicy.
type DeadlineKind int

const (
	// KindLLF is least-laxity-first: ddl = t_MF + L − C_oM − C_path
	// (paper Eq. 3, the default Cameo policy).
	KindLLF DeadlineKind = iota
	// KindEDF is earliest-deadline-first: the C_oM term is omitted
	// (paper §4.2.2: "compute priority for EDF by omitting C_OM").
	KindEDF
	// KindSJF is shortest-job-first: ddl = C_oM (paper §4.2.2; not
	// deadline-aware, included for the Figure 11 comparison).
	KindSJF
)

// DeadlinePolicy implements the deadline-deriving policies of paper §4.
// The zero value is LLF with query-semantics awareness on.
type DeadlinePolicy struct {
	Kind DeadlineKind
	// SemanticsUnaware disables the TRANSFORM/PROGRESSMAP deadline
	// extension for windowed operators, leaving only topology awareness
	// (the Figure 15 ablation: DAG and latency constraints known, window
	// semantics not).
	SemanticsUnaware bool
	// MaxLaxity, when positive, caps how far past a message's own arrival
	// its start deadline may extend: ddl <= t_M + MaxLaxity. This is the
	// starvation guard the paper's §6.3 discussion motivates — without it,
	// messages of very lax jobs (hours-scale constraints) can be postponed
	// indefinitely under sustained load from strict jobs.
	MaxLaxity vtime.Duration
}

// Name implements Policy.
func (p *DeadlinePolicy) Name() string {
	n := ""
	switch p.Kind {
	case KindLLF:
		n = "llf"
	case KindEDF:
		n = "edf"
	case KindSJF:
		n = "sjf"
	default:
		n = "unknown"
	}
	if p.SemanticsUnaware {
		n += "-nosem"
	}
	return n
}

// DeadlineAware reports whether this policy's PriGlobal is a start
// deadline on the engine clock — true for LLF and EDF, false for SJF
// (whose priority is a cost, not an instant). The admission layer uses it
// to pick the laxity test for overload shedding (see Doomed).
func (p *DeadlinePolicy) DeadlineAware() bool { return p.Kind != KindSJF }

// LocalPri implements DeadlineAware: TRANSFORM of progress prog for a
// windowed target with semantics awareness on, prog itself otherwise.
func (p *DeadlinePolicy) LocalPri(prog vtime.Time, slideUp, slide vtime.Duration) vtime.Time {
	if p.SemanticsUnaware || slide <= 0 {
		return prog
	}
	return progress.Transform(prog, slideUp, slide)
}

// OnSource implements Policy (Algorithm 1, BUILDCXTATSOURCE).
func (p *DeadlinePolicy) OnSource(m *Message, ti TargetInfo) { p.convert(m, ti) }

// OnHop implements Policy (Algorithm 1, BUILDCXTATOPERATOR). The child's
// own progress and time, stamped by its producer, are all the conversion
// needs: nothing of the parent's context carries over.
func (p *DeadlinePolicy) OnHop(parent *PriorityContext, m *Message, ti TargetInfo) {
	p.convert(m, ti)
}

// convert is Algorithm 1's CXTCONVERT: derive frontier progress and time,
// update the prediction model, and set the message's priorities.
//
// PriLocal is TRANSFORM of the message's progress (the progress itself
// for a regular target, or with semantics awareness off) whatever the
// mapper knows, so it rises with progress along every channel and an
// operator executes each channel in order. Only the deadline uses the
// mapper: it extends to the estimated frontier time when that is not
// before the message's own time (Eq. 3), and stays at the message's own
// time otherwise (Eq. 1–2). A message without progress (progress.Unset)
// sorts first and trains nothing.
func (p *DeadlinePolicy) convert(m *Message, ti TargetInfo) {
	pmf, tmf := m.P, m.T
	if m.P != progress.Unset {
		pmf = p.LocalPri(m.P, ti.SlideUp, ti.Slide)
		if !p.SemanticsUnaware && ti.Slide > 0 && ti.Mapper != nil {
			if ft, ok := ti.Mapper.Map(pmf); ok && ft >= tmf {
				tmf = ft
			}
		}
		if ti.EventTime && ti.Mapper != nil {
			// Feed the ground-truth (progress, physical time) pair into the
			// regression so future frontier-time predictions improve
			// (Algorithm 1 line "PROGRESSMAP.UPDATE").
			ti.Mapper.Observe(m.P, m.T)
		}
	}

	m.PC.PMF, m.PC.TMF = pmf, tmf
	m.PC.L = ti.Latency

	var ddl vtime.Time
	switch p.Kind {
	case KindLLF:
		ddl = tmf + ti.Latency - ti.Cost - ti.PathCost
	case KindEDF:
		ddl = tmf + ti.Latency - ti.PathCost
	case KindSJF:
		ddl = vtime.Time(ti.Cost)
	}
	if p.MaxLaxity > 0 && p.Kind != KindSJF && ddl > m.T+p.MaxLaxity {
		ddl = m.T + p.MaxLaxity
	}
	m.PC.PriLocal = pmf
	m.PC.PriGlobal = ddl
}

// ArrivalPolicy stamps the global priority with the message's physical
// time, making the Cameo dispatcher behave as a global earliest-arrival
// scheduler with zero priority-generation work. It isolates the cost of
// priority *scheduling* from priority *generation* in the Figure 12
// overhead breakdown ("Cameo w/o priority generation"). The local
// priority is the message's progress, as under every policy that orders
// an operator's queue by progress: arrival times need not rise along a
// channel (a window's result carries its last contributing event's time),
// and an operator must see each channel's progress in order.
type ArrivalPolicy struct{}

// Name implements Policy.
func (ArrivalPolicy) Name() string { return "arrival" }

// OnSource implements Policy.
func (ArrivalPolicy) OnSource(m *Message, ti TargetInfo) {
	m.PC = PriorityContext{PriLocal: m.P, PriGlobal: m.T, PMF: m.P, TMF: m.T, L: ti.Latency}
}

// OnHop implements Policy.
func (ArrivalPolicy) OnHop(parent *PriorityContext, m *Message, ti TargetInfo) {
	var p ArrivalPolicy
	p.OnSource(m, ti)
}
