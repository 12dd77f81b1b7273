// Package progress implements Cameo's stream-progress mapping (paper §4.3):
// the TRANSFORM function that rounds a message's logical time up to the
// frontier progress that will trigger its target windowed operator, and the
// PROGRESSMAP functions that translate frontier progress (logical time) into
// frontier time (physical time).
package progress

import (
	"fmt"
	"math"
	"sync"

	"github.com/cameo-stream/cameo/internal/snap"
	"github.com/cameo-stream/cameo/internal/stats"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// Transform computes the frontier progress p_MF for a message with logical
// time p sent from an upstream operator with slide sou to a target operator
// with slide sod (paper §4.3 Step 1, after Li et al.'s window-ID semantics):
//
//	TRANSFORM(p) = (p/S_od + 1) · S_od   if S_ou < S_od
//	             = p                      otherwise
//
// A slide of 0 denotes a regular (non-windowed) operator. Messages into a
// regular operator trigger immediately, so their frontier progress is their
// own logical time. A windowed target only produces output when its window
// closes, so progress is rounded up to the next window boundary.
func Transform(p vtime.Time, sou, sod vtime.Duration) vtime.Time {
	if sod <= 0 {
		return p // regular target: triggers immediately
	}
	if sou >= sod {
		// Upstream already advances in steps at least as coarse as the
		// target's slide; p is already a trigger boundary for the target.
		return p
	}
	return (p/sod + 1) * sod
}

// Mapper maps frontier progress to frontier time. Map reports ok=false when
// no estimate is available yet, in which case the scheduler falls back to
// treating the windowed operator as a regular one (conservative laxity,
// paper §4.3 last paragraph).
type Mapper interface {
	// Map estimates the physical time at which logical progress p will have
	// been observed at the sources.
	Map(p vtime.Time) (t vtime.Time, ok bool)
	// Observe feeds a ground-truth pair: logical time p was observed at
	// physical time t. Used to improve future predictions.
	Observe(p, t vtime.Time)
}

// IdentityMapper is the PROGRESSMAP for ingestion-time streams: logical time
// is assigned by the system at the entry point, so frontier time equals
// frontier progress (paper §4.3: t_MF = p_MF).
type IdentityMapper struct{}

// Map returns p unchanged.
func (IdentityMapper) Map(p vtime.Time) (vtime.Time, bool) { return p, true }

// Observe is a no-op: the identity mapping needs no fitting.
func (IdentityMapper) Observe(p, t vtime.Time) {}

// RegressionMapper is the PROGRESSMAP for event-time streams: an online
// linear model t ≈ α·p + γ fitted over a sliding window of observed
// (progress, physical time) pairs (paper §4.3 Step 2). It is safe for
// concurrent use; the real-time engine updates it from multiple workers.
type RegressionMapper struct {
	mu  sync.Mutex
	reg *stats.SlidingLinReg
	min int // minimum observations before predictions are offered
}

// NewRegressionMapper returns a mapper fitting over a window of the given
// number of observations. minObs pairs are required before Map returns
// estimates; below that the scheduler uses the conservative fallback.
func NewRegressionMapper(window, minObs int) *RegressionMapper {
	if minObs < 2 {
		minObs = 2
	}
	return &RegressionMapper{reg: stats.NewSlidingLinReg(window), min: minObs}
}

// Map predicts the physical time for logical progress p.
func (m *RegressionMapper) Map(p vtime.Time) (vtime.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reg.Len() < m.min {
		return 0, false
	}
	return vtime.Time(m.reg.Predict(float64(p))), true
}

// Observe records that logical time p was seen at physical time t.
func (m *RegressionMapper) Observe(p, t vtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg.Observe(float64(p), float64(t))
}

// Frontier tracks watermark-style stream progress across the input channels
// of an operator. A windowed operator may only trigger a window once every
// input channel has advanced past the window's end (paper §4.2.2: "a
// windowed operator will not produce output until frontier progresses are
// observed at all source operators"). Channel-wise in-order delivery is a
// runtime guarantee, so per-channel progress is just the last seen value.
//
// Channels are dense in [0, channels): the source index at stage 0, the
// upstream instance index downstream. Progress is one slot per channel,
// and the minimum is cached and recomputed only when the channel that may
// hold it advances, so an Advance is O(1) unless it moves the minimum.
type Frontier struct {
	progress []vtime.Time // per channel; Unset until the channel reports
	seen     int          // channels that have reported
	min      vtime.Time   // minimum over progress once seen == len(progress)
}

// Unset is the one progress value no channel may report: a Frontier stores
// it to mark a channel that has not reported yet. It sorts below every
// other value, so a first report never reads as a regression. Ingest
// refuses it, since a channel reporting it would count as heard from
// twice and stall its operators' frontiers.
const Unset = vtime.Time(math.MinInt64)

// NewFrontier returns a frontier over input channels [0, channels).
// Progress is reported only after every channel has been heard from.
func NewFrontier(channels int) *Frontier {
	f := &Frontier{progress: make([]vtime.Time, channels)}
	for i := range f.progress {
		f.progress[i] = Unset
	}
	return f
}

// Advance records progress p on channel ch and returns the new global
// frontier (the minimum across channels), with ok=false while some channel
// has not reported yet. A regressing progress, the reserved Unset value or
// a channel outside [0, channels) panics: in-order delivery, ingest
// validation and routing are engine invariants, and accepting any of them
// would mask a bug — an unknown channel would complete the frontier
// without a real one and close windows early.
func (f *Frontier) Advance(ch int, p vtime.Time) (vtime.Time, bool) {
	if uint(ch) >= uint(len(f.progress)) {
		panic(fmt.Sprintf("progress: channel %d outside [0,%d)", ch, len(f.progress)))
	}
	if p == Unset {
		panic(fmt.Sprintf("progress: channel %d reported the reserved Unset value", ch))
	}
	if p < f.progress[ch] {
		panic("progress: channel progress moved backwards")
	}
	f.set(ch, p)
	return f.Min()
}

// set stores p on channel ch (validated by the caller) and keeps seen and
// the cached minimum current.
func (f *Frontier) set(ch int, p vtime.Time) {
	prev := f.progress[ch]
	f.progress[ch] = p
	if prev == Unset {
		f.seen++
		if f.seen == len(f.progress) {
			f.min = f.scan()
		}
		return
	}
	// Progress only rises, so the minimum can move only when a channel
	// holding it advances.
	if prev == f.min && p != prev && f.seen == len(f.progress) {
		f.min = f.scan()
	}
}

func (f *Frontier) scan() vtime.Time {
	m := f.progress[0]
	for _, p := range f.progress[1:] {
		if p < m {
			m = p
		}
	}
	return m
}

// Snapshot hands every reported (channel, progress) pair to visit in
// ascending channel order — the deterministic iteration checkpoint
// encoders need.
func (f *Frontier) Snapshot(visit func(ch int, p vtime.Time)) {
	for ch, p := range f.progress {
		if p != Unset {
			visit(ch, p)
		}
	}
}

// Len reports how many channels have reported.
func (f *Frontier) Len() int { return f.seen }

// Restore reinstates a snapshotted (channel, progress) pair. Unlike
// Advance it tolerates being applied to a fresh frontier in any order, and
// since its input is a decoded snapshot it reports bad input as an error:
// a channel outside [0, channels), the reserved Unset value, or progress
// below what is already recorded — a stale snapshot can never rewind a
// live frontier.
func (f *Frontier) Restore(ch int, p vtime.Time) error {
	if uint(ch) >= uint(len(f.progress)) {
		return fmt.Errorf("progress: snapshot channel %d outside [0,%d)", ch, len(f.progress))
	}
	if p == Unset || p < f.progress[ch] {
		return fmt.Errorf("progress: snapshot would regress channel %d progress", ch)
	}
	f.set(ch, p)
	return nil
}

// Min returns the minimum progress across channels; until every channel
// has reported it returns Unset, the value below all progress, and
// ok=false.
func (f *Frontier) Min() (vtime.Time, bool) {
	if f.seen < len(f.progress) {
		return Unset, false
	}
	return f.min, true
}

// Write encodes the reported channels: their count, then each (channel,
// progress) pair in ascending channel order.
func (f *Frontier) Write(w *snap.Writer) {
	w.U32(uint32(f.seen))
	f.Snapshot(func(ch int, p vtime.Time) {
		w.I64(int64(ch))
		w.Time(p)
	})
}

// Read restores pairs written by Write. A channel the frontier does not
// have, or a regressing pair, is a corrupt snapshot and fails the read.
func (f *Frontier) Read(r *snap.Reader) error {
	n := int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		ch := int(r.I64())
		p := r.Time()
		if r.Err() != nil {
			break
		}
		if err := f.Restore(ch, p); err != nil {
			return err
		}
	}
	return r.Err()
}
