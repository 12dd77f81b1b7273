package wire

import (
	"time"

	"github.com/cameo-stream/cameo/internal/vtime"
)

// Slack is a stream's scheduling context, granted in Credit — the wire's
// counterpart of the reply context the engine carries upstream: the job's
// latency target L and the slide S of the first windowed stage behind the
// source (0 if none). Both ends derive their flush decisions from it, so
// they agree on which frames may wait and for how long.
type Slack struct {
	Latency, Slide vtime.Duration
}

// holdFraction is the share of L a frame that closes no window may spend
// coalescing at one end of a connection (DESIGN §6.8 says why an eighth).
const holdFraction = 8

// Hold is the longest one end may hold a frame of this stream back.
func (s Slack) Hold() time.Duration { return vtime.Std(s.Latency) / holdFraction }

// Advances reports whether a frame announcing progress p is
// frontier-advancing for a stream whose progress so far is prev: it moves
// the stream into a later window of the first windowed stage, so that stage
// emits output on it (TRANSFORM, paper §4.3). Such a frame is never held.
// No other frame can close anything before the next one that is — and that
// one pushes out whatever waits ahead of it.
func (s Slack) Advances(prev, p vtime.Time) bool {
	return s.Slide > 0 && p/s.Slide > prev/s.Slide
}

// HoldTimer is the one timer each end of a connection keeps for its hold
// bounds: one-shot, armed only while something is held and only for the
// earliest deadline, so an idle connection wakes nobody. It is not
// synchronized — the lock that guards what is held guards it too, and
// Expired, which runs on the timer's goroutine, takes that lock itself.
type HoldTimer struct {
	Expired func()

	t  *time.Timer
	at time.Time // the deadline it is armed for; zero when it is not
}

// Arm makes sure the timer fires no later than at.
func (h *HoldTimer) Arm(at time.Time) {
	if h.Armed() && !at.Before(h.at) {
		return
	}
	h.at = at
	if h.t == nil {
		h.t = time.AfterFunc(time.Until(at), h.Expired)
	} else {
		h.t.Reset(time.Until(at))
	}
}

// Disarm stops the timer: nothing is held any more. A callback already
// under way still runs; it finds nothing to do.
func (h *HoldTimer) Disarm() {
	if h.Armed() {
		h.t.Stop()
		h.at = time.Time{}
	}
}

// Armed reports whether a deadline is pending.
func (h *HoldTimer) Armed() bool { return !h.at.IsZero() }
