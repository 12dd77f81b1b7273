package wire

import (
	"time"

	"github.com/cameo-stream/cameo/internal/vtime"
)

// Slack is a stream's scheduling context, granted in Credit — the wire's
// counterpart of the reply context the engine carries upstream: the job's
// latency target L and the slide S of the first windowed stage behind the
// source (0 if none). Both ends derive their flush decisions from it, so
// they agree on which frames may wait.
type Slack struct {
	Latency, Slide vtime.Duration
}

// holdFraction is the share of L that makes a stream's hold bound (DESIGN
// §6.8 says why an eighth).
const holdFraction = 8

// Hold is the stream's hold bound: the client holds a frame that closes no
// window for at most half of it, and the server's Nacks name it as the
// retry-after hint.
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
