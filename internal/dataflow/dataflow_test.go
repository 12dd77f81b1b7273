package dataflow_test

import (
	"slices"
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

// TestCoalesceBatches pins the append-merge (Cut.Merge): a partition's
// tuples — exactly Batch.Partition's, in source order — are appended to an
// engine-owned payload with alike columns up to MaxCoalesce tuples; the
// first merge into a small payload copies it once into a batch of
// capacity MaxCoalesce, later merges append in place; an empty partition
// merges into anything; a nil payload takes the partition's own batch;
// Release recycles the source batch unless Part handed it on whole.
func TestCoalesceBatches(t *testing.T) {
	env := NewEnv(nil, nil, -1)
	env.Batches = NewBatchPool(0)
	fill := func(b *Batch, n int, t0 vtime.Time) *Batch {
		for i := range n {
			b.Append(t0+vtime.Time(i), int64(i*7), float64(i+1))
		}
		return b
	}
	pooled := func(n int, t0 vtime.Time) *Batch { return fill(env.NewBatch(n), n, t0) }
	same := func(a, b *Batch) bool {
		return slices.Equal(a.Times, b.Times) && slices.Equal(a.Keys, b.Keys) && slices.Equal(a.Vals, b.Vals)
	}
	merge := func(head, src *Batch, n, i int) (*Batch, bool) {
		c := env.Cut(src, n)
		defer c.Release()
		return c.Merge(head, i)
	}

	// The empty partition.
	b := pooled(3, 0)
	var nilCut *Cut
	if got, ok := nilCut.Merge(b, 0); got != b || !ok {
		t.Error("the nil cut does not merge as an empty partition")
	}
	if got, ok := merge(b, nil, 2, 1); got != b || !ok {
		t.Error("a nil batch does not merge as an empty partition")
	}
	oneKey := fill(NewBatch(4), 1, 0) // key 0: partition 1 of 2 is empty
	if oneKey.Partition(2)[1] != nil {
		t.Fatal("key 0 is not in partition 0 of 2")
	}
	extHead := NewBatch(1)
	if got, ok := merge(extHead, oneKey, 2, 1); got != extHead || !ok {
		t.Error("an empty split partition does not merge into an external payload")
	}

	// A nil payload takes the partition's own batch.
	ext := fill(NewBatch(8), 8, 0)
	c := env.Cut(ext, 3)
	got, ok := c.Merge(nil, 2)
	if !ok || !same(got, ext.Partition(3)[2]) {
		t.Errorf("a nil payload became %v, want partition 2's tuples %v", got, ext.Partition(3)[2])
	}
	c.Release()
	whole := pooled(5, 0)
	c = env.Cut(whole, 1)
	if got, ok := c.Merge(nil, 0); got != whole || !ok {
		t.Error("a nil payload did not take the whole batch")
	}
	c.Release()
	if env.NewBatch(1) == whole {
		t.Error("Release recycled a batch a payload took whole")
	}
	if _, ok := merge(nil, pooled(MaxCoalesce+1, 0), 1, 0); ok {
		t.Error("a partition over the cap became a coalesced payload")
	}

	// Ownership and alike columns (a merge releases a small payload it
	// copies, so every case gets a payload of its own).
	if _, ok := merge(NewBatch(1), pooled(1, 0), 1, 0); ok {
		t.Error("a partition was appended to an external payload")
	}
	if _, ok := merge(pooled(3, 0), fill(NewBatch(1), 1, 0), 1, 0); ok {
		t.Error("an external batch forwarded whole was appended")
	}
	if _, ok := merge(pooled(3, 0), fill(NewBatch(4), 4, 0), 2, 0); !ok {
		t.Error("a split partition of an external batch was refused")
	}
	unkeyed := pooled(1, 0)
	unkeyed.Keys = nil
	if _, ok := merge(pooled(3, 0), unkeyed, 2, 0); ok {
		t.Error("an unkeyed batch was appended to a keyed payload")
	}
	valueless := pooled(2, 0)
	valueless.Vals = nil
	if _, ok := merge(valueless, pooled(4, 0), 2, 0); ok {
		t.Error("a split partition (values present) was appended to a value-less payload")
	}

	// The first merge copies once; later merges append in place, up to
	// the cap; the payload holds the partitions' tuples in merge order.
	head := pooled(4, 0)
	want := fill(NewBatch(0), 4, 0)
	var sources []*Batch
	for k := range 8 {
		src := fill(NewBatch(16), 16, vtime.Time(100*(k+1)))
		for i := range src.Keys {
			src.Keys[i] = int64(k*16 + i) // keys spread over both partitions
		}
		sources = append(sources, src)
	}
	capped := false
	for k, src := range sources {
		part := src.Partition(2)[k%2]
		merged, ok := merge(head, src, 2, k%2)
		if len(want.Times)+part.Len() > MaxCoalesce {
			if ok || merged != head {
				t.Fatalf("merge %d: the payload grew past MaxCoalesce", k)
			}
			capped = true
			break
		}
		if !ok {
			t.Fatalf("merge %d of %d tuples refused at %d", k, part.Len(), head.Len())
		}
		if k == 0 && (merged == head || cap(merged.Times) < MaxCoalesce || cap(merged.Keys) < MaxCoalesce) {
			t.Fatalf("the first merge kept its small payload (capacity %d)", cap(merged.Times))
		}
		if k > 0 && merged != head {
			t.Fatalf("merge %d copied the payload again", k)
		}
		head = merged
		for i := range part.Times {
			want.Append(part.Times[i], part.Keys[i], part.Vals[i])
		}
		if !same(head, want) {
			t.Fatalf("merge %d: payload %v, want %v", k, head, want)
		}
	}
	if !capped {
		t.Fatalf("the merges stopped at %d tuples, short of the cap", head.Len())
	}
	if head.MaxTime() != want.MaxTime() {
		t.Errorf("MaxTime %v, want %v", head.MaxTime(), want.MaxTime())
	}
	small := pooled(1, 0)
	if got, ok := merge(small, nil, 1, 0); got != small || !ok {
		t.Error("merging no tuples copied the payload")
	}

	// Release recycles a split pool-owned source.
	src := pooled(4, 0)
	c = env.Cut(src, 2)
	c.Part(0)
	c.Part(1)
	c.Release()
	if again := env.NewBatch(1); again != src || again.Len() != 0 {
		t.Error("Release did not recycle the split source batch")
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
