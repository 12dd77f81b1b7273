package main

import (
	"fmt"
	"time"
)

// probeOneWorker: the saturate workload once more with one engine worker —
// the single-threaded baseline. On a 2-vCPU box the generators take the
// other core, so this is reported as it is and never as a scaling ratio.
func probeOneWorker(budget time.Duration, add addFunc) error {
	w, err := findWorkload("saturate", 1)
	if err != nil {
		return err
	}
	measure := (probeReps * budget).Truncate(100 * time.Millisecond)
	if measure < time.Second {
		measure = time.Second
	}
	r, err := setUp(newPlan(w, 1, 500*time.Millisecond, measure), 1)
	if err != nil {
		return err
	}
	defer r.tearDown()
	d, err := r.drive(false, nil)
	if err != nil {
		return err
	}
	r.tearDown()
	v := r.plan.verify()
	if c := v.check; !d.drained || c.Wrong+c.Missing+c.Duplicate+c.Unexpected > 0 {
		return fmt.Errorf("one-worker probe: drained=%v, check %+v", d.drained, c)
	}
	add("runtime.w1_tuples_per_s", "1/s", float64(v.tuplesOK)/d.after.wall.Sub(d.before.wall).Seconds())
	return nil
}
