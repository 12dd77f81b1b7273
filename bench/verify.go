package main

import (
	"fmt"
	"sort"
	"time"
)

// check counts what the correctness gate found. Expected is the number of
// measured windows that held tuples and so must produce exactly one
// result; the four failure counts cover warm-up windows as well.
type check struct {
	Expected   int `json:"expected"`
	Wrong      int `json:"wrong"`      // one result, but not the expected sum
	Missing    int `json:"missing"`    // tuples admitted, no result
	Duplicate  int `json:"duplicate"`  // more than one result for a window
	Unexpected int `json:"unexpected"` // a result for a window without tuples, or outside the plan
}

// row is one correct measured result and the batch that closed its window
// on the last source to announce: all times ns since plan.base.
type row struct {
	tenant, window  int
	due, start, end int64 // closer: due, and (traced) call start and return
	at              int64 // probe call
}

type verdict struct {
	check         check
	tuplesOffered int64 // in measured windows
	tuplesOK      int64 // of those, in a correct result
	met           int   // measured results within their tenant's target
	// latLS: latency in ms of the measured correct results of the
	// latency-sensitive class, by the latCycle their window ended in.
	latLS [][]float64
	rows  []row
}

// latCycle is the stretch of the measured phase one latency quantile is
// taken over; lat_p95_ms (and lat_p50_ms) is the median of the cycles'
// quantiles. A quantile pooled over the whole run follows its worst
// stretch: on many_tenants one 3 ms stall of the box delays one lockstep
// burst, which is 1 % of the results, and moves the pooled p99 by a third.
// The median over cycles ignores up to half the cycles being disturbed.
// Two seconds is mt_spike's spike period, so every cycle holds one spike;
// and the 95th is the highest percentile with ten or so samples beyond it
// in a cycle of the sparsest workload (160 results).
const latCycle = 2 * time.Second

// cycleQuantiles returns the median over cycles of each cycle's q-quantile,
// and the number of samples in all.
func cycleQuantiles(cycles [][]float64, qs ...float64) ([]float64, int) {
	per := make([][]float64, len(qs))
	n := 0
	for _, c := range cycles {
		if len(c) == 0 {
			continue
		}
		n += len(c)
		sort.Float64s(c)
		for i, q := range qs {
			per[i] = append(per[i], quantile(c, q))
		}
	}
	out := make([]float64, len(qs))
	for i := range qs {
		out[i] = median(per[i])
	}
	return out, n
}

// verify compares, per (tenant, window), what the probe saw with what the
// generators booked: exactly one result whose value is the sum of the
// admitted tuples' values.
func (p *plan) verify() *verdict {
	v := &verdict{}
	for ti, t := range p.tenants {
		win := int64(t.g.window)
		firstMeasured := int(p.warm / win)
		streams := p.streams[t.first : t.first+t.g.sources]
		v.check.Unexpected += t.extra
		for j := range t.results {
			var offered, admitted int32
			var sum int64
			r := row{tenant: ti, window: j, at: t.results[j].at}
			closed := true
			for _, s := range streams {
				offered += s.offered[j]
				admitted += s.admitted[j]
				sum += s.sum[j]
				if j >= s.closed {
					closed = false
				} else if s.closeDue[j] >= r.due {
					r.due = s.closeDue[j]
					if s.closeStart != nil {
						r.start, r.end = s.closeStart[j], s.closeEnd[j]
					}
				}
			}
			measured := j >= firstMeasured
			if measured {
				v.tuplesOffered += int64(offered)
			}
			res := t.results[j]
			if admitted == 0 {
				if res.calls > 0 {
					v.check.Unexpected++
				}
				continue
			}
			if measured {
				v.check.Expected++
			}
			switch {
			case res.calls == 0 || !closed:
				v.check.Missing++
				continue
			case res.calls > 1:
				v.check.Duplicate++
				continue
			case res.value != float64(sum):
				v.check.Wrong++
				continue
			}
			if !measured {
				continue
			}
			v.tuplesOK += int64(admitted)
			lat := res.at - r.due
			if lat <= int64(t.g.target) {
				v.met++
			}
			if t.g.class == classLS {
				c := int((int64(j+1)*win - p.warm - 1) / int64(latCycle))
				for len(v.latLS) <= c {
					v.latLS = append(v.latLS, nil)
				}
				v.latLS[c] = append(v.latLS[c], float64(lat)/1e6)
			}
			v.rows = append(v.rows, r)
		}
	}
	return v
}

// invariants collects the checks that make a run valid.
type invariants struct {
	Checked int      `json:"checked"`
	Failed  []string `json:"failed"`
}

func (i *invariants) check(ok bool, format string, args ...any) {
	i.Checked++
	if !ok {
		i.Failed = append(i.Failed, fmt.Sprintf(format, args...))
	}
}
