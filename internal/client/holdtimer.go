package client

import "time"

// holdTimer is the one timer a client keeps for its hold bound: one-shot,
// armed only while a frame waits in the write buffer and only for the
// earliest deadline, so an idle connection wakes nobody. It is not
// synchronized — the lock that guards the write buffer guards it too, and
// expired, which runs on the timer's goroutine, takes that lock itself.
type holdTimer struct {
	expired func()

	t  *time.Timer
	at time.Time // the deadline it is armed for; zero when it is not
}

// arm makes sure the timer fires no later than at.
func (h *holdTimer) arm(at time.Time) {
	if h.armed() && !at.Before(h.at) {
		return
	}
	h.at = at
	if h.t == nil {
		h.t = time.AfterFunc(time.Until(at), h.expired)
	} else {
		h.t.Reset(time.Until(at))
	}
}

// disarm stops the timer: nothing is held any more. A callback already
// under way still runs; it finds nothing to do.
func (h *holdTimer) disarm() {
	if h.armed() {
		h.t.Stop()
		h.at = time.Time{}
	}
}

// armed reports whether a deadline is pending.
func (h *holdTimer) armed() bool { return !h.at.IsZero() }
