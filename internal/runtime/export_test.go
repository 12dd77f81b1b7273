package runtime

import "github.com/cameo-stream/cameo/internal/vtime"

// WrapClock lets a test interpose on the engine's clock (to count reads,
// say). Call it before Start.
func (e *Engine) WrapClock(wrap func(vtime.Clock) vtime.Clock) { e.clock = wrap(e.clock) }
