// Package sim is the deterministic discrete-event cluster engine the
// experiments run on — the substitute for the paper's 32-node Azure
// deployment (see DESIGN.md §2 for why the substitution preserves the
// paper's claims).
//
// The simulator keeps exactly the moving parts Cameo's results depend on:
// per-node worker pools pulling from a pluggable dispatcher, non-preemptive
// message execution with modelled costs, quantum-based operator swapping
// with a configurable switch cost, channel-wise FIFO delivery, reply
// contexts, and a network delay for cross-node hops. Everything is driven
// by one event heap on a virtual clock, so a fixed seed reproduces every
// figure bit-for-bit.
package sim

import (
	"fmt"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/metrics"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// SchedulerKind selects the dispatcher implementation for every node.
type SchedulerKind = core.SchedulerKind

// Scheduler kinds, re-exported for concise experiment code.
const (
	// Cameo is the paper's two-level priority scheduler.
	Cameo = core.CameoScheduler
	// Orleans is the default Orleans baseline (ConcurrentBag).
	Orleans = core.OrleansScheduler
	// FIFO is the custom FIFO baseline.
	FIFO = core.FIFOScheduler
)

// Feed supplies one job's source emissions. Next returns the next batch for
// source src along with its stream progress p and physical arrival time t;
// ok=false ends the stream. Arrival times must be non-decreasing per source
// (channel-wise in-order delivery is an engine invariant).
type Feed interface {
	Next(src int) (b *dataflow.Batch, p, t vtime.Time, ok bool)
}

// Config parameterizes a simulated cluster.
type Config struct {
	// Nodes and WorkersPerNode shape the cluster (paper: 32 nodes × 4
	// vCPUs). Both default to 1.
	Nodes, WorkersPerNode int
	// Scheduler selects the dispatcher on every node.
	Scheduler SchedulerKind
	// Policy generates message priorities. Defaults to LLF for the Cameo
	// scheduler and arrival order for the baselines.
	Policy core.Policy
	// Quantum is the re-scheduling grain (paper §5.2, default 1 ms): a
	// worker holds an operator at least this long before the swap check.
	Quantum vtime.Duration
	// SwitchCost is charged whenever a worker switches operators — the
	// context-switch overhead that makes very fine quanta hurt (Fig 14).
	SwitchCost vtime.Duration
	// SchedCost is charged per dispatched message (scheduling overhead).
	SchedCost vtime.Duration
	// NetworkDelay delays messages that cross nodes (and source ingress).
	NetworkDelay vtime.Duration
	// End is the simulation horizon. Required.
	End vtime.Time
	// Place optionally overrides operator placement; default round-robin
	// in operator-creation order (which collocates jobs, as in the paper's
	// shared clusters). The returned node index is taken modulo Nodes.
	Place func(op *dataflow.Operator) int
	// TraceLimit, when positive, records up to this many schedule events
	// for Figure 7(c)-style timelines.
	TraceLimit int
}

// throughputBucket is the width of each job's throughput timeline bucket.
const throughputBucket = vtime.Second

func (c *Config) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.WorkersPerNode <= 0 {
		c.WorkersPerNode = 1
	}
	if c.Quantum <= 0 {
		c.Quantum = vtime.Millisecond
	}
	if c.Policy == nil {
		if c.Scheduler == Cameo {
			c.Policy = &core.DeadlinePolicy{Kind: core.KindLLF}
		} else {
			c.Policy = core.ArrivalPolicy{}
		}
	}
	if c.End <= 0 {
		panic("sim: Config.End must be set")
	}
}

// Results summarizes one simulation run.
type Results struct {
	// Recorder holds per-job output latencies and success rates.
	Recorder *metrics.Recorder
	// Throughput holds one timeline per job of sink tuples per 1 s bucket.
	Throughput map[string]*metrics.Timeline
	// Trace holds schedule events when Config.TraceLimit was set.
	Trace *metrics.ScheduleTrace
	// Messages counts executed messages; Switches counts operator swaps.
	Messages, Switches int64
	// IngestedTuples counts tuples processed at each job's first stage —
	// the job's consumed ingestion volume (the throughput the paper's
	// multi-tenant figures report for bulk-analytics jobs).
	IngestedTuples map[string]int64
	// BusyTime is summed worker execution time; Utilization divides it by
	// worker-seconds available.
	BusyTime    vtime.Duration
	Utilization float64
	// QueueDelay aggregates per-message dispatcher waiting time.
	QueueDelayMean vtime.Duration
}

type worker struct {
	id         int
	node       *node
	busy       bool
	op         *dataflow.Operator
	acquiredAt vtime.Time
	lastOp     *dataflow.Operator
	execMsg    *core.Message
	execCost   vtime.Duration
}

type node struct {
	id      int
	disp    core.Dispatcher[*dataflow.Operator]
	workers []*worker
}

type jobEntry struct {
	job  *dataflow.Job
	feed Feed
}

// Cluster is a simulated multi-node deployment. Create with New, add jobs,
// then Run once.
type Cluster struct {
	cfg    Config
	clock  *vtime.VirtualClock
	events eventHeap
	seq    int64
	msgID  int64

	nodes     []*node
	placement map[*dataflow.Operator]*node
	placeNext int
	jobs      []*jobEntry
	// env is the execution environment shared by every (sequential)
	// execution step. Pooling stays off: simulated messages outlive their
	// creation inside the event heap, so recycling would corrupt replays.
	env *dataflow.Env

	rec        *metrics.Recorder
	thr        map[string]*metrics.Timeline
	trace      *metrics.ScheduleTrace
	busy       vtime.Duration
	messages   int64
	switches   int64
	queueDelay vtime.Duration
	tuples     map[string]int64
	ran        bool
}

// New returns a cluster for the given configuration.
func New(cfg Config) *Cluster {
	cfg.fill()
	c := &Cluster{
		cfg:       cfg,
		clock:     vtime.NewVirtualClock(0),
		placement: make(map[*dataflow.Operator]*node),
		rec:       metrics.NewHistoryRecorder(),
		thr:       make(map[string]*metrics.Timeline),
		tuples:    make(map[string]int64),
	}
	if cfg.TraceLimit > 0 {
		c.trace = metrics.NewScheduleTrace(cfg.TraceLimit)
	}
	c.env = dataflow.NewEnv(c.cfg.Policy, c.nextMsgID, -1)
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{id: i, disp: core.NewDispatcher[*dataflow.Operator](cfg.Scheduler, cfg.WorkersPerNode)}
		for w := 0; w < cfg.WorkersPerNode; w++ {
			n.workers = append(n.workers, &worker{id: w, node: n})
		}
		c.nodes = append(c.nodes, n)
	}
	return c
}

// AddJob instantiates spec, places its operators, and wires its source feed.
// Must be called before Run.
func (c *Cluster) AddJob(spec dataflow.JobSpec, feed Feed) (*dataflow.Job, error) {
	if c.ran {
		return nil, fmt.Errorf("sim: AddJob after Run")
	}
	job, err := dataflow.NewJob(spec)
	if err != nil {
		return nil, err
	}
	for _, op := range job.Operators() {
		var nodeIdx int
		if c.cfg.Place != nil {
			nodeIdx = c.cfg.Place(op) % c.cfg.Nodes
			if nodeIdx < 0 {
				nodeIdx += c.cfg.Nodes
			}
		} else {
			nodeIdx = c.placeNext % c.cfg.Nodes
			c.placeNext++
		}
		c.placement[op] = c.nodes[nodeIdx]
	}
	c.jobs = append(c.jobs, &jobEntry{job: job, feed: feed})
	c.rec.DeclareJob(spec.Name, spec.Latency)
	c.thr[spec.Name] = metrics.NewTimeline(throughputBucket)
	return job, nil
}

// Recorder exposes the metrics recorder (useful mid-setup in tests).
func (c *Cluster) Recorder() *metrics.Recorder { return c.rec }

func (c *Cluster) nextMsgID() int64 {
	c.msgID++
	return c.msgID
}

// Run executes the simulation until the configured horizon and returns the
// collected results. It may be called once.
func (c *Cluster) Run() Results {
	if c.ran {
		panic("sim: Run called twice")
	}
	c.ran = true

	// Prime each job's sources with their first emission.
	for _, je := range c.jobs {
		for s := 0; s < je.job.Spec.Sources; s++ {
			c.scheduleNextSourceEmission(je, s)
		}
	}

	for c.events.Len() > 0 {
		ev := c.events.Pop()
		if ev.t > c.cfg.End {
			break
		}
		c.clock.AdvanceTo(ev.t)
		switch ev.kind {
		case evSource:
			c.handleSourceEmission(ev)
		case evDeliver:
			c.deliver(ev.node, ev.target, ev.msg)
		case evComplete:
			c.completeExecution(ev.worker)
		}
	}

	totalWorkerTime := vtime.Duration(c.cfg.Nodes*c.cfg.WorkersPerNode) * c.cfg.End
	res := Results{
		Recorder:       c.rec,
		Throughput:     c.thr,
		Trace:          c.trace,
		Messages:       c.messages,
		Switches:       c.switches,
		BusyTime:       c.busy,
		IngestedTuples: c.tuples,
	}
	if totalWorkerTime > 0 {
		res.Utilization = float64(c.busy) / float64(totalWorkerTime)
	}
	if c.messages > 0 {
		res.QueueDelayMean = c.queueDelay / vtime.Duration(c.messages)
	}
	return res
}

func (c *Cluster) scheduleNextSourceEmission(je *jobEntry, src int) {
	b, p, t, ok := je.feed.Next(src)
	if !ok {
		return
	}
	c.push(event{t: t, kind: evSource, job: je, src: src, batch: b, p: p})
}

// handleSourceEmission fans a source batch out to the job's stage-0
// instances the way the engine's ingest does, less the merge: the batch is
// cut (dataflow.Env.Cut) and partition i becomes instance i's message.
func (c *Cluster) handleSourceEmission(ev event) {
	now := c.clock.Now()
	j := ev.job.job
	cut := c.env.Cut(ev.batch, len(j.Stages[0]))
	for i, target := range j.Stages[0] {
		m := dataflow.SourceMessage(j, ev.src, target, cut.Part(i), ev.p, now, c.env)
		n := c.placement[target]
		if c.cfg.NetworkDelay > 0 {
			c.push(event{t: now + c.cfg.NetworkDelay, kind: evDeliver, node: n, target: target, msg: m})
		} else {
			c.deliver(n, target, m)
		}
	}
	cut.Release()
	c.scheduleNextSourceEmission(ev.job, ev.src)
}

// deliver pushes a message into a node's dispatcher and wakes idle workers.
func (c *Cluster) deliver(n *node, target *dataflow.Operator, m *core.Message) {
	m.Enqueued = c.clock.Now()
	n.disp.Push(target, m, -1)
	c.wakeIdleWorkers(n)
}

func (c *Cluster) wakeIdleWorkers(n *node) {
	for _, w := range n.workers {
		if !w.busy {
			c.continueWorker(w)
		}
	}
}

// continueWorker drives one worker's scheduling step: quantum/yield check,
// operator acquisition, and the next message's execution.
func (c *Cluster) continueWorker(w *worker) {
	now := c.clock.Now()
	n := w.node

	if w.op != nil {
		elapsed := now - w.acquiredAt
		if _, ok := n.disp.PeekMsg(w.op); !ok {
			n.disp.Done(w.op, w.id)
			w.op = nil
		} else if elapsed >= c.cfg.Quantum {
			// Re-scheduling decision point (paper §5.2): swap if a more
			// urgent operator waits; either way a fresh quantum starts —
			// the quantum is the period BETWEEN decisions, not a cap on
			// total hold time.
			if n.disp.ShouldYield(w.op) {
				n.disp.Done(w.op, w.id)
				w.op = nil
			} else {
				w.acquiredAt = now
			}
		}
	}
	if w.op == nil {
		op, ok := n.disp.NextOp(w.id)
		if !ok {
			w.busy = false
			return
		}
		w.op = op
		w.acquiredAt = now
	}
	m, ok := n.disp.PopMsg(w.op)
	if !ok {
		// Acquired an operator whose queue was drained: release and idle;
		// the next delivery will wake us.
		n.disp.Done(w.op, w.id)
		w.op = nil
		w.busy = false
		return
	}

	cost := w.op.Spec().Cost.Cost(batchLen(m)) + c.cfg.SchedCost
	if w.lastOp != w.op {
		cost += c.cfg.SwitchCost
		c.switches++
		w.lastOp = w.op
	}
	if cost <= 0 {
		cost = 1 // executions take at least one tick so time always advances
	}
	c.queueDelay += now - m.Enqueued
	w.busy = true
	w.execMsg = m
	w.execCost = cost
	c.push(event{t: now + cost, kind: evComplete, worker: w})
}

func (c *Cluster) completeExecution(w *worker) {
	now := c.clock.Now()
	op, m, cost := w.op, w.execMsg, w.execCost
	w.execMsg = nil
	c.busy += cost
	c.messages++
	if op.Stage == 0 {
		c.tuples[op.Job.Spec.Name] += int64(batchLen(m))
	}

	if c.trace != nil {
		c.trace.Add(metrics.ScheduleEvent{
			Start: now - cost, Cost: cost,
			Job: op.Job.Spec.Name, Stage: op.Stage, Op: op.Name, P: m.P, Msg: m.ID,
		})
	}

	outcome := dataflow.Execute(op, m, now, cost, c.env)
	for _, o := range outcome.Outputs {
		c.rec.Record(metrics.Output{Job: op.Job.Spec.Name, Emitted: now, Ready: o.T, Window: int64(o.P)})
		c.thr[op.Job.Spec.Name].Add(now, float64(o.Tuples))
	}
	for _, cm := range outcome.Children {
		tn := c.placement[cm.Target]
		if tn == w.node || c.cfg.NetworkDelay == 0 {
			cm.Msg.Enqueued = now
			tn.disp.Push(cm.Target, cm.Msg, producerID(tn, w))
			if tn != w.node {
				c.wakeIdleWorkers(tn)
			}
		} else {
			c.push(event{t: now + c.cfg.NetworkDelay, kind: evDeliver, node: tn, target: cm.Target, msg: cm.Msg})
		}
	}

	c.continueWorker(w)
	// New local work may have arrived for other workers of this node.
	c.wakeIdleWorkers(w.node)
}

// producerID reports the worker index to attribute a push to: the producing
// worker for same-node pushes (Orleans locality), -1 otherwise.
func producerID(target *node, w *worker) int {
	if target == w.node {
		return w.id
	}
	return -1
}

func batchLen(m *core.Message) int {
	if b, ok := m.Payload.(*dataflow.Batch); ok {
		return b.Len()
	}
	return 0
}

func (c *Cluster) push(ev event) {
	c.seq++
	ev.seq = c.seq
	c.events.Push(ev)
}
