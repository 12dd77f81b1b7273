package dataflow_test

import (
	"strings"
	"testing"
	"testing/quick"

	. "github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/profile"
	"github.com/cameo-stream/cameo/internal/progress"
	"github.com/cameo-stream/cameo/internal/testkit"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// nopHandler and twoStageSpec were local copies of what internal/testkit
// now provides for every engine test suite.
var nopHandler = testkit.NopHandler

func twoStageSpec() JobSpec { return testkit.NopSpec("j") }

func TestBatchPartitionConservesTuples(t *testing.T) {
	f := func(keys []int64, n8 uint8) bool {
		n := int(n8%7) + 1
		b := NewBatch(len(keys))
		for i, k := range keys {
			b.Append(vtime.Time(i), k, float64(i))
		}
		parts := b.Partition(n)
		if len(parts) != n {
			return false
		}
		total := 0
		for _, p := range parts {
			total += p.Len()
		}
		if total != b.Len() {
			return false
		}
		// Same key never lands in two partitions.
		seen := map[int64]int{}
		for pi, p := range parts {
			if p == nil {
				continue
			}
			for _, k := range p.Keys {
				if prev, ok := seen[k]; ok && prev != pi {
					return false
				}
				seen[k] = pi
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchPartitionUnkeyed(t *testing.T) {
	b := &Batch{Times: []vtime.Time{1, 2, 3}}
	parts := b.Partition(4)
	if parts[0].Len() != 3 {
		t.Fatalf("unkeyed batch split: %v", parts)
	}
	for _, p := range parts[1:] {
		if p != nil {
			t.Fatal("unkeyed batch leaked into other partitions")
		}
	}
}

func TestBatchMaxTimeAndLen(t *testing.T) {
	var nilBatch *Batch
	if nilBatch.Len() != 0 {
		t.Fatal("nil batch Len != 0")
	}
	b := NewBatch(2)
	b.Append(5, 1, 1)
	b.Append(3, 2, 2)
	if b.MaxTime() != 5 || b.Len() != 2 {
		t.Fatalf("MaxTime=%v Len=%d", b.MaxTime(), b.Len())
	}
}

// TestCoalesceBatches pins the chaining rules: pool-owned batches with
// alike columns chain up to MaxCoalesce tuples, Len and MaxTime read the
// whole chain, and FreeBatch unlinks and recycles every link.
func TestCoalesceBatches(t *testing.T) {
	env := NewEnv(nil, nil, -1)
	env.Batches = NewBatchPool(0)
	pooled := func(n int, t0 vtime.Time) *Batch {
		b := env.NewBatch(n)
		for i := range n {
			b.Append(t0+vtime.Time(i), int64(i), 1)
		}
		return b
	}
	if got, ok := Coalesce(nil, nil); got != nil || !ok {
		t.Errorf("Coalesce(nil, nil) = %v, %v", got, ok)
	}
	b := pooled(3, 0)
	if got, ok := Coalesce(b, nil); got != b || !ok {
		t.Error("a nil batch does not coalesce as an empty payload")
	}
	if got, ok := Coalesce(nil, b); got != b || !ok {
		t.Error("a nil head does not take the batch as the payload")
	}
	if _, ok := Coalesce(nil, pooled(MaxCoalesce+1, 0)); ok {
		t.Error("a batch over the cap became a coalesced payload")
	}
	if _, ok := Coalesce(b, NewBatch(1)); ok {
		t.Error("an external batch was chained")
	}
	if _, ok := Coalesce(NewBatch(1), pooled(1, 0)); ok {
		t.Error("a batch was chained onto an external one")
	}
	unkeyed := pooled(1, 0)
	unkeyed.Keys = nil
	if _, ok := Coalesce(b, unkeyed); ok {
		t.Error("an unkeyed batch was chained onto a keyed one")
	}

	head := pooled(20, 0)
	links := []*Batch{head}
	for _, n := range []int{20, 0, 23} {
		l := pooled(n, vtime.Time(100*len(links)))
		got, ok := Coalesce(head, l)
		if got != head || !ok {
			t.Fatalf("link of %d tuples refused at %d", n, head.Len())
		}
		links = append(links, l)
	}
	if head.Len() != MaxCoalesce-1 || head.MaxTime() != 322 {
		t.Errorf("chain Len %d, MaxTime %v; want %d, 322", head.Len(), head.MaxTime(), MaxCoalesce-1)
	}
	if _, ok := Coalesce(head, pooled(2, 0)); ok {
		t.Error("the chain grew past MaxCoalesce")
	}
	if _, ok := Coalesce(head, pooled(1, 0)); !ok {
		t.Error("the chain refused its last tuple under the cap")
	}
	n := 0
	for l := head; l != nil; l = l.Next() {
		n++
	}
	if n != len(links)+1 {
		t.Errorf("chain of %d links, want %d", n, len(links)+1)
	}
	env.FreeBatch(head)
	for i, l := range links {
		if l.Next() != nil {
			t.Errorf("link %d still chained after FreeBatch", i)
		}
	}
	if again := env.NewBatch(1); again.Len() != 0 || again.Next() != nil {
		t.Error("a recycled link came back non-empty or chained")
	}
}

func TestJobSpecValidation(t *testing.T) {
	bad := []JobSpec{
		{},                                  // no name
		{Name: "x"},                         // no latency
		{Name: "x", Latency: 1},             // no sources
		{Name: "x", Latency: 1, Sources: 1}, // no stages
		{Name: "x", Latency: 1, Sources: 3, SourcePorts: 2, Stages: []StageSpec{{Parallelism: 1, NewHandler: nopHandler}}}, // 3 % 2 != 0
		{Name: "x", Latency: 1, Sources: 1, Stages: []StageSpec{{Parallelism: 0, NewHandler: nopHandler}}},
		{Name: "x", Latency: 1, Sources: 1, Stages: []StageSpec{{Parallelism: 1}}}, // nil handler
		{Name: "x", Latency: 1, Sources: 1, Stages: []StageSpec{{Parallelism: 1, NewHandler: nopHandler, Slide: -1}}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewJobStructure(t *testing.T) {
	j, err := NewJob(twoStageSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Stages) != 2 || len(j.Stages[0]) != 2 || len(j.Stages[1]) != 1 {
		t.Fatalf("stage shape wrong: %v", j.Stages)
	}
	op := j.Stages[0][1]
	if op.Name != "j/a[1]" {
		t.Fatalf("op name = %q", op.Name)
	}
	if op.InChannels() != 4 { // stage 0 sees all sources
		t.Fatalf("stage0 InChannels = %d", op.InChannels())
	}
	if j.Stages[1][0].InChannels() != 2 { // stage 1 sees stage 0 parallelism
		t.Fatalf("stage1 InChannels = %d", j.Stages[1][0].InChannels())
	}
	if !j.Stages[1][0].IsSink() || j.Stages[0][0].IsSink() {
		t.Fatal("IsSink wrong")
	}
	if len(j.Operators()) != 3 {
		t.Fatalf("Operators() len = %d", len(j.Operators()))
	}
	if _, ok := op.Mapper.(progress.IdentityMapper); !ok {
		t.Fatal("ingestion-time job should use IdentityMapper")
	}
}

func TestNewJobEventTimeMapper(t *testing.T) {
	spec := twoStageSpec()
	spec.Domain = EventTime
	j, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Stages[0][0].Mapper.(*progress.RegressionMapper); !ok {
		t.Fatal("event-time job should use RegressionMapper")
	}
	if j.Spec.Domain.String() != "event-time" {
		t.Fatalf("domain string = %q", j.Spec.Domain)
	}
}

func TestTargetInfoColdAndWarm(t *testing.T) {
	j, _ := NewJob(twoStageSpec())
	src0 := j.Stages[0][0]
	sink := j.Stages[1][0]

	// Cold: no reply context yet, costs zero.
	ti := j.TargetInfo(nil, src0)
	if ti.Cost != 0 || ti.PathCost != 0 {
		t.Fatalf("cold TargetInfo = %+v", ti)
	}
	if ti.Slide != vtime.Second || ti.Latency != vtime.Second || ti.Job != "j" {
		t.Fatalf("TargetInfo fields = %+v", ti)
	}

	// Deliver replies: sink tells src0 {Cm: 30}; src0 tells the job's
	// sources {Cm: 10, Cpath: 30}.
	j.DeliverReply(src0, sink, profile.Reply{Cm: 30})
	j.DeliverReply(nil, src0, profile.Reply{Cm: 10, Cpath: 30})

	ti = j.TargetInfo(nil, src0)
	if ti.Cost != 10 || ti.PathCost != 30 {
		t.Fatalf("warm source TargetInfo = %+v", ti)
	}
	ti = j.TargetInfo(src0, sink)
	if ti.Cost != 30 || ti.PathCost != 0 {
		t.Fatalf("warm hop TargetInfo = %+v", ti)
	}
	if ti.SlideUp != vtime.Second {
		t.Fatalf("SlideUp = %v, want upstream slide", ti.SlideUp)
	}
}

func TestStageNameDefaults(t *testing.T) {
	spec := JobSpec{Name: "d", Latency: 1, Sources: 1,
		Stages: []StageSpec{{Parallelism: 1, NewHandler: nopHandler}}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(spec.Stages[0].Name, "stage") {
		t.Fatalf("default stage name = %q", spec.Stages[0].Name)
	}
	if spec.SourcePorts != 1 || spec.MapperWindow != 64 {
		t.Fatalf("defaults = ports %d window %d", spec.SourcePorts, spec.MapperWindow)
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{Base: 100, PerTuple: 3}
	if got := c.Cost(0); got != 100 {
		t.Fatalf("Cost(0) = %v", got)
	}
	if got := c.Cost(10); got != 130 {
		t.Fatalf("Cost(10) = %v", got)
	}
}
