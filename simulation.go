package cameo

import (
	"fmt"
	"time"

	"github.com/cameo-stream/cameo/internal/sim"
	"github.com/cameo-stream/cameo/internal/vtime"
	"github.com/cameo-stream/cameo/internal/workload"
)

// SimulationConfig parameterizes a deterministic virtual-time cluster.
type SimulationConfig struct {
	// Nodes and WorkersPerNode shape the cluster (defaults 1 and 1).
	Nodes, WorkersPerNode int
	// Scheduler selects the run-queue discipline (default SchedulerCameo).
	Scheduler Scheduler
	// Policy generates priorities; defaults to LLF() under SchedulerCameo.
	Policy Policy
	// Quantum is the re-scheduling grain (default 1ms).
	Quantum time.Duration
	// NetworkDelay delays cross-node message hops.
	NetworkDelay time.Duration
	// Duration is the simulated horizon (required).
	Duration time.Duration
	// Seed drives all workload randomness; a fixed seed reproduces the run
	// exactly.
	Seed uint64
}

// SourceProfile describes the synthetic sources that feed a simulated
// query: every source emits one batch per Interval with TuplesPerBatch
// tuples over Keys distinct keys, arriving Delay after their event times,
// until End (0 = the simulation horizon).
type SourceProfile struct {
	Interval       time.Duration
	TuplesPerBatch int
	Keys           int64
	Delay          time.Duration
	End            time.Duration
}

// Simulation is a deterministic discrete-event cluster: the engine the
// paper-reproduction experiments run on, exposed for users who want to
// evaluate scheduling policies on their own topologies without a cluster.
type Simulation struct {
	cfg     SimulationConfig
	cluster *sim.Cluster
	seedN   uint64
}

// NewSimulation returns an empty simulated cluster.
func NewSimulation(cfg SimulationConfig) *Simulation {
	if cfg.Duration <= 0 {
		cfg.Duration = time.Minute
	}
	return &Simulation{
		cfg: cfg,
		cluster: sim.New(sim.Config{
			Nodes:          cfg.Nodes,
			WorkersPerNode: cfg.WorkersPerNode,
			Scheduler:      cfg.Scheduler,
			Policy:         cfg.Policy,
			Quantum:        vtime.FromStd(cfg.Quantum),
			NetworkDelay:   vtime.FromStd(cfg.NetworkDelay),
			End:            vtime.FromStd(cfg.Duration),
		}),
	}
}

// Submit instantiates a query fed by synthetic sources with the given
// profile.
func (s *Simulation) Submit(q *Query, src SourceProfile) error {
	spec, err := q.Spec()
	if err != nil {
		return err
	}
	if src.Interval <= 0 {
		return fmt.Errorf("cameo: source interval must be positive")
	}
	end := vtime.FromStd(src.End)
	if end <= 0 {
		end = vtime.FromStd(s.cfg.Duration)
	}
	s.seedN++
	feed := workload.Uniform(s.cfg.Seed+s.seedN, spec.Sources, workload.SourceConfig{
		Interval: vtime.FromStd(src.Interval),
		Rate:     workload.ConstantRate(src.TuplesPerBatch),
		Keys:     src.Keys,
		Delay:    vtime.FromStd(src.Delay),
		End:      end,
	})
	_, err = s.cluster.AddJob(spec, feed)
	return err
}

// SimulationResult summarizes one simulated run.
type SimulationResult struct {
	// Utilization is busy worker time over available worker time.
	Utilization float64
	// Messages counts executed messages.
	Messages int64
	jobs     map[string]JobStats
}

// Job returns a job's stats (zero value for unknown jobs).
func (r SimulationResult) Job(name string) JobStats { return r.jobs[name] }

// Run executes the simulation to its horizon. It may be called once.
func (s *Simulation) Run() SimulationResult {
	res := s.cluster.Run()
	out := SimulationResult{
		Utilization: res.Utilization,
		Messages:    res.Messages,
		jobs:        make(map[string]JobStats),
	}
	for _, js := range res.Recorder.Jobs() {
		st := JobStats{Outputs: int(js.Count()), SuccessRate: js.SuccessRate()}
		if st.Outputs > 0 {
			st.P50 = vtime.Std(vtime.Time(js.Quantile(0.50)))
			st.P95 = vtime.Std(vtime.Time(js.Quantile(0.95)))
			st.P99 = vtime.Std(vtime.Time(js.Quantile(0.99)))
		}
		out.jobs[js.Job] = st
	}
	return out
}
