package runtime

import "github.com/cameo-stream/cameo/internal/core"

// The behavior tables (lifecycle, admission, checkpoint, batching,
// fairness, allocation gates) pin each behavior on up to three configurations of the one
// dispatch path. The row names are the scheduler/dispatch cells these
// tables carried while the engine had three schedulers and two dispatch
// paths; each now names the configuration below.
//
//   - "cameo/sharded" (or "sharded"): the test's Config as written.
//   - "cameo/single-lock" (or "single-lock"): SingleLock — one worker,
//     unbatched unless the test pins a DrainBatch, so every dispatch
//     decision is made in sequence as the deleted single-lock path made
//     them. Unbatched, it is the configuration
//     TestSimulatorRuntimeEquivalence pins to the simulator's sequential
//     dispatcher message for message.
//   - "fifo/sharded": ArrivalOrder — core.ArrivalPolicy priorities, under
//     which the Cameo path schedules as one global earliest-arrival (FIFO)
//     queue. The Orleans baseline has no such realization; it runs only in
//     the simulator.

// SingleLock returns c run by one worker, at DrainBatch 1 unless c sets
// one.
func SingleLock(c Config) Config {
	c.Workers = 1
	if c.DrainBatch == 0 {
		c.DrainBatch = 1
	}
	return c
}

// ArrivalOrder returns c with arrival-order (FIFO) priorities.
func ArrivalOrder(c Config) Config {
	c.Policy = core.ArrivalPolicy{}
	return c
}

// EngineCell is one row of a behavior table: its name and how it adjusts
// the test's Config.
type EngineCell struct {
	Name string
	Cfg  func(Config) Config
}

func asWritten(c Config) Config { return c }

// EngineCells are the rows of the scheduler-keyed tables.
var EngineCells = []EngineCell{
	{"cameo/single-lock", SingleLock},
	{"cameo/sharded", asWritten},
	{"fifo/sharded", ArrivalOrder},
}

// PathCells are the rows of the tables keyed by dispatch path alone.
var PathCells = []EngineCell{
	{"single-lock", SingleLock},
	{"sharded", asWritten},
}
