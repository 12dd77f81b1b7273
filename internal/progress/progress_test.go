package progress

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/cameo-stream/cameo/internal/vtime"
)

func sec(n int64) vtime.Time { return vtime.Time(n) * vtime.Second }

func TestTransformRegularTarget(t *testing.T) {
	// Slide 0 means a regular operator: progress passes through.
	if got := Transform(sec(7), sec(1), 0); got != sec(7) {
		t.Fatalf("Transform regular = %v", got)
	}
}

func TestTransformPaperExample(t *testing.T) {
	// Paper §4.3: tumbling window with size 10s. Expected frontier progress
	// occurs at the next multiple of 10s strictly after p.
	sod := sec(10)
	cases := []struct {
		p    vtime.Time
		want vtime.Time
	}{
		{0, sec(10)},
		{sec(1), sec(10)},
		{sec(9), sec(10)},
		{sec(10), sec(20)}, // at a boundary the *next* window triggers this message's result
		{sec(11), sec(20)},
	}
	for _, c := range cases {
		if got := Transform(c.p, 0, sod); got != c.want {
			t.Errorf("Transform(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTransformCoarseUpstream(t *testing.T) {
	// Upstream slide >= target slide: p is already aligned to target
	// boundaries and passes through unchanged.
	if got := Transform(sec(20), sec(10), sec(10)); got != sec(20) {
		t.Fatalf("aligned Transform = %v", got)
	}
	if got := Transform(sec(20), sec(20), sec(10)); got != sec(20) {
		t.Fatalf("coarser upstream Transform = %v", got)
	}
}

func TestTransformProperties(t *testing.T) {
	f := func(p16 uint16, sod8, sou8 uint8) bool {
		p := vtime.Time(p16)
		sod := vtime.Duration(sod8%50) + 1
		sou := vtime.Duration(sou8 % 50)
		got := Transform(p, sou, sod)
		if sou >= sod {
			return got == p
		}
		// Frontier progress is strictly after p, aligned to sod, and within
		// one slide of p.
		return got > p && got%sod == 0 && got-p <= sod
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityMapper(t *testing.T) {
	var m IdentityMapper
	if got, ok := m.Map(sec(42)); !ok || got != sec(42) {
		t.Fatalf("identity Map = %v/%v", got, ok)
	}
	m.Observe(sec(1), sec(2)) // must not panic
}

func TestRegressionMapperWarmup(t *testing.T) {
	m := NewRegressionMapper(32, 3)
	if _, ok := m.Map(sec(1)); ok {
		t.Fatal("cold mapper offered a prediction")
	}
	m.Observe(sec(1), sec(3))
	m.Observe(sec(2), sec(4))
	if _, ok := m.Map(sec(3)); ok {
		t.Fatal("mapper predicted below minObs")
	}
	m.Observe(sec(3), sec(5))
	got, ok := m.Map(sec(10))
	if !ok {
		t.Fatal("warm mapper refused to predict")
	}
	// Paper's example: constant 2s ingestion delay => t = p + 2s.
	if got != sec(12) {
		t.Fatalf("Map(10s) = %v, want 12s", got)
	}
}

func TestRegressionMapperTracksDrift(t *testing.T) {
	m := NewRegressionMapper(8, 2)
	// Delay shifts from 2s to 5s; the sliding window forgets the old regime.
	for i := int64(1); i <= 20; i++ {
		m.Observe(sec(i), sec(i+2))
	}
	for i := int64(21); i <= 40; i++ {
		m.Observe(sec(i), sec(i+5))
	}
	got, _ := m.Map(sec(50))
	if got < sec(54) || got > sec(56) {
		t.Fatalf("Map(50s) after drift = %v, want ~55s", got)
	}
}

func TestFrontierWaitsForAllChannels(t *testing.T) {
	f := NewFrontier(2)
	if _, ok := f.Advance(0, sec(5)); ok {
		t.Fatal("frontier reported before all channels seen")
	}
	got, ok := f.Advance(1, sec(3))
	if !ok || got != sec(3) {
		t.Fatalf("frontier = %v/%v, want 3s", got, ok)
	}
	got, _ = f.Advance(1, sec(10))
	if got != sec(5) {
		t.Fatalf("frontier = %v, want 5s (min across channels)", got)
	}
}

func TestFrontierRegressionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewFrontier(1)
	f.Advance(0, sec(5))
	f.Advance(0, sec(4))
}

func TestFrontierSingleChannel(t *testing.T) {
	f := NewFrontier(1)
	got, ok := f.Advance(0, sec(1))
	if !ok || got != sec(1) {
		t.Fatalf("single channel frontier = %v/%v", got, ok)
	}
}

// Property: the frontier equals the minimum of the last report per channel.
func TestFrontierProperty(t *testing.T) {
	f := func(reports []uint16) bool {
		const channels = 3
		fr := NewFrontier(channels)
		last := map[int]vtime.Time{}
		cur := map[int]vtime.Time{}
		for i, r := range reports {
			ch := i % channels
			p := vtime.Max(cur[ch], vtime.Time(r)) // keep per-channel monotone
			cur[ch] = p
			got, ok := fr.Advance(ch, p)
			last[ch] = p
			if len(last) < channels {
				if ok {
					return false
				}
				continue
			}
			var want vtime.Time = 1 << 62
			for _, v := range last {
				if v < want {
					want = v
				}
			}
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mapFrontier is the frontier as it was before it became an array: a map
// from channel to last progress, with the minimum recomputed over the map
// on every call. TestFrontierMatchesMapReference checks the array
// frontier against it. It accepts any channel, so the test hands it only
// in-range operations.
type mapFrontier struct {
	channels map[int]vtime.Time
	expected int
}

func (f *mapFrontier) min() (vtime.Time, bool) {
	if len(f.channels) < f.expected {
		return Unset, false
	}
	first := true
	var m vtime.Time
	for _, p := range f.channels {
		if first || p < m {
			m, first = p, false
		}
	}
	return m, true
}

func (f *mapFrontier) snapshot() [][2]int64 {
	chans := make([]int, 0, len(f.channels))
	for ch := range f.channels {
		chans = append(chans, ch)
	}
	sort.Ints(chans)
	var out [][2]int64
	for _, ch := range chans {
		out = append(out, [2]int64{int64(ch), int64(f.channels[ch])})
	}
	return out
}

// advance calls f.Advance and reports whether it panicked.
func advance(f *Frontier, ch int, p vtime.Time) (m vtime.Time, ok, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	m, ok = f.Advance(ch, p)
	return m, ok, false
}

// TestFrontierMatchesMapReference drives the array frontier and the map
// reference through the same seeded random Advance/Restore sequences over
// 1–8 channels. After every operation they must agree on Min/ok, Len and
// the Snapshot sequence (ascending channels). A regressing Advance, one
// reporting the reserved Unset value and one on a channel outside
// [0, channels) must panic, and Restore must return an error for the same
// inputs — without changing any state.
func TestFrontierMatchesMapReference(t *testing.T) {
	cases := []struct {
		name              string
		seed              int64
		channels          int
		restore           float64 // share of operations that are Restores
		misroute, regress float64 // share of out-of-range / regressing operations
		reserved          float64 // share of operations reporting Unset
	}{
		{"1ch", 1, 1, 0.2, 0.05, 0.05, 0.05},
		{"2ch-advance-only", 2, 2, 0, 0, 0, 0},
		{"2ch-reserved", 9, 2, 0.2, 0, 0, 0.3},
		{"3ch", 3, 3, 0.3, 0.05, 0.1, 0},
		{"4ch-restore-heavy", 4, 4, 0.8, 0.05, 0.05, 0.05},
		{"5ch-misrouted", 5, 5, 0.1, 0.3, 0, 0},
		{"6ch-regressing", 6, 6, 0.1, 0, 0.3, 0},
		{"7ch-clean", 7, 7, 0.1, 0, 0, 0},
		{"8ch", 8, 8, 0.3, 0.1, 0.1, 0.05},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			got := NewFrontier(c.channels)
			ref := &mapFrontier{channels: map[int]vtime.Time{}, expected: c.channels}
			for step := 0; step < 4000; step++ {
				ch := rng.Intn(c.channels)
				prev, seen := ref.channels[ch]
				p := prev + vtime.Time(rng.Intn(3)) // equal progress is frequent
				switch r := rng.Float64(); {
				case r < c.misroute:
					ch = c.channels + rng.Intn(4)
					if rng.Intn(2) == 0 {
						ch = -1 - rng.Intn(4)
					}
				case r < c.misroute+c.regress && seen && prev > 0:
					p = prev - 1 - vtime.Time(rng.Int63n(int64(prev)))
				case r < c.misroute+c.regress+c.reserved:
					p = Unset
				}
				bad := ch < 0 || ch >= c.channels || p == Unset || (seen && p < prev)
				if rng.Float64() < c.restore {
					if err := got.Restore(ch, p); bad != (err != nil) {
						t.Fatalf("step %d: Restore(%d, %v) = %v, bad input %v", step, ch, p, err, bad)
					}
					if !bad {
						ref.channels[ch] = p
					}
				} else {
					m, ok, panicked := advance(got, ch, p)
					if bad != panicked {
						t.Fatalf("step %d: Advance(%d, %v) panicked %v, bad input %v", step, ch, p, panicked, bad)
					}
					if !bad {
						ref.channels[ch] = p
						if wm, wok := ref.min(); m != wm || ok != wok {
							t.Fatalf("step %d: Advance(%d, %v) = %v/%v, reference %v/%v", step, ch, p, m, ok, wm, wok)
						}
					}
				}
				m, ok := got.Min()
				if wm, wok := ref.min(); m != wm || ok != wok {
					t.Fatalf("step %d: Min = %v/%v, reference %v/%v", step, m, ok, wm, wok)
				}
				if got.Len() != len(ref.channels) {
					t.Fatalf("step %d: Len = %d, reference %d", step, got.Len(), len(ref.channels))
				}
				var snap [][2]int64
				got.Snapshot(func(ch int, p vtime.Time) { snap = append(snap, [2]int64{int64(ch), int64(p)}) })
				if want := ref.snapshot(); !reflect.DeepEqual(snap, want) {
					t.Fatalf("step %d: Snapshot = %v, reference %v", step, snap, want)
				}
			}
		})
	}
}
