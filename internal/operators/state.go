package operators

import (
	"cmp"
	"math/rand/v2"
	"slices"

	"github.com/cameo-stream/cameo/internal/core"
	"github.com/cameo-stream/cameo/internal/dataflow"
	"github.com/cameo-stream/cameo/internal/vtime"
)

// windowState is the state every windowed operator (windowAgg, topK,
// distinctCount, windowJoin) keeps between messages: the emitted
// watermark, the late-tuple count, and the open windows — a slice ordered
// by end, each holding its per-key accumulators inline in one keyTable
// (two for the join, one per side). A closed window's emptied tables are
// kept as the spare the next window opens with, so windows rotating
// through the steady state allocate nothing. The per-channel frontier
// that closes windows is the operator's (dataflow.Context.Progress).
type windowState struct {
	size, slide vtime.Duration
	global      bool       // every tuple aggregates under key 0
	join        bool       // Port 1 tuples go to each window's right table
	emitted     vtime.Time // highest window end emitted (0 before first trigger)
	late        int64
	wins        []window // open windows, ascending end
	spare       window   // emptied tables for the next window, or zero
	// out is the emission slice handed back to the engine, reused across
	// invocations: the engine consumes an invocation's emissions before
	// the next one (the contract that lets it recycle batches too).
	out []dataflow.Emission
}

type window struct {
	end, maxT vtime.Time
	keys      keyTable // every tuple's key, or the join's left side
	right     keyTable // the join's right side; empty for the other operators
}

func newWindowState(size, slide vtime.Duration, global bool) windowState {
	return windowState{size: size, slide: slide, global: global}
}

// LateTuples reports tuples that arrived after their window was emitted
// (dropped). Nonzero values indicate a progress violation upstream.
func (s *windowState) LateTuples() int64 { return s.late }

// windowEnds returns the first and last end of the windows containing
// logical time p: the ends e with p < e <= p+size, aligned to the slide.
func windowEnds(p vtime.Time, size, slide vtime.Duration) (first, last vtime.Time) {
	return (p/slide + 1) * slide, p + size
}

// CoalescesBatches implements dataflow.Coalescer for every windowed
// operator: ingest reads a chained payload link by link, and which window
// a tuple joins depends on its own time, never on its message.
func (s *windowState) CoalescesBatches() bool { return true }

// ingest adds the tuples of every batch in m's payload chain to every
// window containing them that is not yet emitted — a join's Port 1 tuples
// to the window's right table, every other port's to its keys. It reports
// the highest window end the operator's frontier has passed, when that
// passes the emitted watermark.
func (s *windowState) ingest(ctx *dataflow.Context, m *core.Message) (boundary vtime.Time, ok bool) {
	b, _ := m.Payload.(*dataflow.Batch)
	right := s.join && m.Port == 1
	for ; b != nil; b = b.Next() {
		for i, p := range b.Times {
			var key int64
			if !s.global && b.Keys != nil {
				key = b.Keys[i]
			}
			var val float64
			if b.Vals != nil {
				val = b.Vals[i]
			}
			fresh := false
			first, last := windowEnds(p, s.size, s.slide)
			for end := first; end <= last; end += s.slide {
				if end <= s.emitted {
					continue // window already emitted: tuple is late for it
				}
				fresh = true
				win := s.windowAt(end)
				keys := &win.keys
				if right {
					keys = &win.right
				}
				keys.get(key).add(val)
				if m.T > win.maxT {
					win.maxT = m.T
				}
			}
			if !fresh {
				s.late++
			}
		}
	}
	f, ok := ctx.Progress()
	if !ok {
		return 0, false
	}
	boundary = (f / s.slide) * s.slide
	return boundary, boundary > s.emitted
}

// windowAt returns the open window ending at end, opening it in end order
// on the spare tables if there is none. Tuples land in the newest windows,
// so the search runs from the back.
func (s *windowState) windowAt(end vtime.Time) *window {
	i := len(s.wins)
	for ; i > 0 && s.wins[i-1].end >= end; i-- {
		if s.wins[i-1].end == end {
			return &s.wins[i-1]
		}
	}
	s.wins = append(s.wins, window{})
	copy(s.wins[i+1:], s.wins[i:])
	s.spare.end = end
	s.wins[i] = s.spare
	s.spare = window{}
	return &s.wins[i]
}

// emit closes every open window with end <= boundary, in end order, into
// one emission each with the batch result builds, plus one trailing
// progress-only emission at the boundary itself so downstream frontiers
// advance even when this partition had no data (the punctuation role of
// watermark heartbeats). The returned slice and the emitted batches are
// engine-owned scratch/pool memory.
func (s *windowState) emit(boundary, t vtime.Time, result func(*window) *dataflow.Batch) []dataflow.Emission {
	n := 0
	for n < len(s.wins) && s.wins[n].end <= boundary {
		n++
	}
	out := s.out[:0]
	for i := range s.wins[:n] {
		win := &s.wins[i]
		out = append(out, dataflow.Emission{Batch: result(win), P: win.end, T: win.maxT})
	}
	if n == 0 || s.wins[n-1].end < boundary {
		out = append(out, dataflow.Emission{Batch: nil, P: boundary, T: t})
	}
	if n > 0 {
		closed := &s.wins[0]
		if s.spare.keys.index == nil {
			s.spare.keys = closed.keys
			s.spare.keys.reset()
		}
		if s.spare.right.index == nil {
			s.spare.right = closed.right
			s.spare.right.reset()
		}
		m := copy(s.wins, s.wins[n:])
		clear(s.wins[m:])
		s.wins = s.wins[:m]
	}
	s.emitted = boundary
	s.out = out
	return out
}

// keyTable is one window's per-key state: accumulators inline in
// insertion order, found through an open-addressing index of entry
// positions. A tuple costs one hash and one probe sequence, nothing in it
// is a pointer for the collector to scan, and once the table has grown to
// the window's key count (one, for a global aggregate) it allocates
// nothing. The index has a power-of-two length of at least twice the
// entry count; slot value i+1 names entries[i], and 0 a free slot.
type keyTable struct {
	entries []keyAcc
	index   []int32
}

type keyAcc struct {
	key int64
	acc
}

// keySeed randomizes the index's probe sequences per process, so keys
// arriving from outside cannot be chosen to collide.
var keySeed = rand.Uint64()

// hashKey is the murmur3 64-bit finalizer over the seeded key.
func hashKey(k int64) uint64 {
	h := uint64(k) ^ keySeed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// get returns key's accumulator, adding a zero one if the key is new.
func (t *keyTable) get(key int64) *acc {
	if 2*len(t.entries) >= len(t.index) {
		t.index = make([]int32, max(2*len(t.index), 2))
		t.reindex()
	}
	mask := len(t.index) - 1
	for i := int(hashKey(key)) & mask; ; i = (i + 1) & mask {
		j := t.index[i]
		if j == 0 {
			t.entries = append(t.entries, keyAcc{key: key})
			t.index[i] = int32(len(t.entries))
			return &t.entries[len(t.entries)-1].acc
		}
		if e := &t.entries[j-1]; e.key == key {
			return &e.acc
		}
	}
}

// reindex places every entry in the (cleared) index.
func (t *keyTable) reindex() {
	mask := len(t.index) - 1
	for j := range t.entries {
		i := int(hashKey(t.entries[j].key)) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = int32(j + 1)
	}
}

// reset empties the table, keeping its capacity.
func (t *keyTable) reset() {
	clear(t.index)
	t.entries = t.entries[:0]
}

// sortByKey puts the entries in ascending key order and re-places them.
func (t *keyTable) sortByKey() {
	slices.SortFunc(t.entries, byKey)
	clear(t.index)
	t.reindex()
}

func byKey(a, b keyAcc) int { return cmp.Compare(a.key, b.key) }
