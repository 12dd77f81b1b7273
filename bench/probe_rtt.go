package main

import (
	"fmt"
	"sort"
	"time"

	cameo "github.com/cameo-stream/cameo"
)

// probeFrameRTT: one frame in flight over loopback — Client.IngestBatch
// then Flush until its ack is back. With the zero ServeConfig a lone
// 16-tuple frame waits out the coalescer's age bound, so this is the
// floor a trickling stream's tuples pay on the wire.
func probeFrameRTT(budget time.Duration, add addFunc) error {
	eng := cameo.NewEngine(cameo.EngineConfig{Workers: 1})
	q := cameo.NewQuery("rtt").LatencyTarget(time.Second).
		AggregateGlobal("total", cameo.Window(time.Second), cameo.Sum)
	if err := eng.Submit(q); err != nil {
		return err
	}
	eng.Start()
	defer eng.Stop()
	srv, err := eng.Serve("127.0.0.1:0", cameo.ServeConfig{})
	if err != nil {
		return err
	}
	defer srv.Shutdown(5 * time.Second)
	c, err := cameo.Dial(srv.Addr(), cameo.DialOptions{})
	if err != nil {
		return err
	}
	defer c.Close()

	evs := make([]cameo.Event, probeFrame)
	var rtts []float64
	for end := time.Now().Add(probeReps * budget); time.Now().Before(end) || len(rtts) < probeReps; {
		now := eng.Now()
		for i := range evs {
			evs[i] = cameo.Event{Time: now, Key: int64(i), Value: 1}
		}
		start := time.Now()
		if err := c.IngestBatch("rtt", 0, evs, now); err != nil {
			return err
		}
		if !c.Flush(5 * time.Second) {
			return fmt.Errorf("frame_rtt: no ack within 5 s")
		}
		rtts = append(rtts, float64(time.Since(start))/1e3)
	}
	sort.Float64s(rtts)
	add("server.frame_rtt_us", "us", quantile(rtts, 0.5))
	return nil
}
