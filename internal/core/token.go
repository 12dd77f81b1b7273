package core

import (
	"fmt"
	"sync"

	"github.com/cameo-stream/cameo/internal/vtime"
)

// TokenPolicy implements the token-based proportional fair-sharing strategy
// of paper §5.4. Each job is granted a token rate (tokens per interval,
// where one token admits one source message), and its messages are tagged
// with the tokens' timestamps, spaced interval/rate apart; the tag is the
// message's global priority, so the dispatcher interleaves jobs in
// proportion to their rates. Jobs without a rate get minimum priority
// (PriGlobal = +inf) and are processed only when no tokened traffic is
// pending. Downstream messages inherit the source tag through PC
// propagation.
//
// An operator executes each channel's messages in progress order (the
// local priority is the message's progress, as under every policy), so
// a job is served in arrival order and its tags must rise in arrival
// order: a message beyond the job's rate takes the next token, in a later
// interval, rather than +inf, which would leave it at the head of its
// channel hiding its job's later tokens from the scheduler. A job's
// tokens therefore run ahead of the clock while it offers more than its
// rate. A job whose tokens have fallen behind the clock (idle, or under
// its rate) resumes at the earliest token clock of the jobs still running
// ahead (self-clocked fair queueing's system virtual time), so the
// capacity others used while it was idle is not charged to them.
type TokenPolicy struct {
	// Interval is the token-spreading interval (paper uses 1 s).
	Interval vtime.Duration

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	rate int64      // tokens per interval
	next vtime.Time // the job's next token
}

// NewTokenPolicy returns a token policy with the given spreading interval
// (1 s when zero).
func NewTokenPolicy(interval vtime.Duration) *TokenPolicy {
	if interval <= 0 {
		interval = vtime.Second
	}
	return &TokenPolicy{Interval: interval, buckets: make(map[string]*tokenBucket)}
}

// SetRate grants job rate tokens per interval. Rate 0 means the job only
// ever runs when nothing tokened is pending.
func (p *TokenPolicy) SetRate(job string, rate int64) {
	if rate < 0 {
		panic(fmt.Sprintf("core: negative token rate %d for %q", rate, job))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.buckets[job]
	if b == nil {
		b = &tokenBucket{}
		p.buckets[job] = b
	}
	b.rate = rate
}

// Name implements Policy.
func (p *TokenPolicy) Name() string { return "token" }

// OnSource implements Policy: consume the job's next token and tag the
// message with it.
func (p *TokenPolicy) OnSource(m *Message, ti TargetInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m.PC.PMF, m.PC.TMF, m.PC.L = m.P, m.T, ti.Latency
	m.PC.PriLocal = m.P

	b := p.buckets[ti.Job]
	if b == nil || b.rate == 0 {
		// Untokened traffic sorts after all tokened traffic across
		// operators.
		m.PC.PriGlobal = vtime.Infinity
		return
	}
	if b.next < m.T {
		b.next = p.virtualTime(m.T)
	}
	m.PC.PriGlobal = b.next
	b.next += p.Interval / vtime.Time(b.rate)
}

// virtualTime is the earliest next token among the jobs whose tokens run
// ahead of now, or now if none does.
func (p *TokenPolicy) virtualTime(now vtime.Time) vtime.Time {
	v := vtime.Infinity
	for _, b := range p.buckets {
		if b.rate > 0 && b.next > now && b.next < v {
			v = b.next
		}
	}
	if v == vtime.Infinity {
		return now
	}
	return v
}

// OnHop implements Policy: downstream traffic inherits the source tag, so a
// tokened pipeline stays ahead of untokened traffic end to end.
func (p *TokenPolicy) OnHop(parent *PriorityContext, m *Message, ti TargetInfo) {
	m.PC = *parent
	m.PC.PriLocal, m.PC.PMF, m.PC.TMF, m.PC.L = m.P, m.P, m.T, ti.Latency
}
