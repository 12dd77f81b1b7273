// cameo-serve runs the engine behind the streaming wire protocol: it
// builds an engine from a workload spec's engine shape (workers, run
// queue, admission budgets), submits the spec's tenant jobs, and
// accepts internal/client connections that ingest into them over TCP —
// the standalone form of Engine.Serve for when sources live in other
// processes.
//
// Shutdown is graceful: SIGTERM or SIGINT stops the accept loop,
// flushes every connection's coalesce buffers into the engine, drains
// the engine's queued work to completion, and only then exits — no
// decoded tuple is dropped on the way down. A second signal exits
// immediately.
//
// Examples:
//
//	cameo-serve                         # builtin CI spec's jobs on :9070
//	cameo-serve -addr :9100 -spec capacity.json
//	cameo-serve -window 64
//
// There is no coalescing knob: each connection merges the frames of one
// stream that arrived in the same socket read (up to 64 tuples, never
// across a window end) and flushes them before it waits on the socket.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/cameo-stream/cameo/internal/runtime"
	"github.com/cameo-stream/cameo/internal/server"
	"github.com/cameo-stream/cameo/internal/workload"
	"github.com/cameo-stream/cameo/internal/workload/replay"
)

func main() {
	var (
		addr     = flag.String("addr", ":9070", "listen address (host:port; port 0 picks one)")
		specPath = flag.String("spec", "", "JSON workload spec for the engine shape and jobs (empty = builtin CI spec)")
		workers  = flag.Int("workers", 0, "override the spec's worker count (0 keeps the spec's)")
		window   = flag.Int("window", 0, "credit window for jobs without a MaxPending budget (0 = default 256)")
		maxFrame = flag.Int("max-frame", 0, "max wire frame body in bytes (0 = default 1MiB)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "max time to drain queued work on shutdown")
	)
	flag.Parse()

	spec := workload.BuiltinCISpec()
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		if spec, err = workload.ParseSpec(data); err != nil {
			fatal(err)
		}
	}
	if *workers > 0 {
		spec.Workers = *workers
	}
	cfg, err := replay.EngineConfigFor(spec)
	if err != nil {
		fatal(err)
	}
	eng := runtime.New(cfg)
	for i := range spec.Tenants {
		if _, err := eng.AddJob(spec.Tenants[i].JobSpec()); err != nil {
			fatal(err)
		}
	}
	eng.Start()

	srv := server.New(eng, server.Config{
		Window:   *window,
		MaxFrame: *maxFrame,
	})
	lnAddr, err := srv.Listen(*addr)
	if err != nil {
		eng.Stop()
		fatal(err)
	}
	fmt.Printf("cameo-serve: spec %q, %d workers, %d jobs, listening on %s\n",
		spec.Name, spec.Workers, len(spec.Tenants), lnAddr)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigs
	fmt.Printf("cameo-serve: %v — draining (signal again to exit now)\n", sig)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "cameo-serve: forced exit")
		os.Exit(1)
	}()

	// Ordered teardown: wire first (flushes coalesce buffers into the
	// engine), then the engine's own queues, then the workers.
	if !srv.Shutdown(10 * time.Second) {
		fmt.Fprintln(os.Stderr, "cameo-serve: connections did not wind down; draining anyway")
	}
	drained := eng.Drain(*drainFor)
	eng.Stop()
	st := srv.Stats()
	fmt.Printf("cameo-serve: %d conns, %d frames, %d tuples decoded; %d flushed, %d nacked, %d protocol errors; %d messages executed\n",
		st.Conns, st.Frames, st.Events, st.FlushedEvents, st.NackedEvents, st.ProtocolErrors, eng.Executed())
	if !drained {
		fmt.Fprintln(os.Stderr, "cameo-serve: engine did not drain before timeout")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cameo-serve: %v\n", err)
	os.Exit(1)
}
