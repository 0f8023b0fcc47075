// Command sweepd serves the sweep job API: an HTTP daemon that accepts
// scenario-matrix specs (POST /v1/jobs), executes them concurrently on a
// shared worker pool that interleaves cells fairly across jobs (a 1-cell
// job submitted behind a 10k-cell sweep finishes in seconds), keeps every
// job in a durable store and every result in the shared result cache, and
// streams results and live progress back to clients. Jobs can be listed
// (GET /v1/jobs), canceled (DELETE /v1/jobs/{id}), and old terminal jobs
// pruned by a retention policy.
//
//	sweepd -addr :8080 -cache /var/lib/sweepd/cache -store /var/lib/sweepd/store \
//	       -retain-jobs 1000 -retain-age 720h
//
// All jobs share one content-addressed result cache, so a matrix any job
// (or any CLI run sharing the directory) has computed before costs nothing
// to run again. SIGINT/SIGTERM drains gracefully: in-flight cells finish,
// running jobs are re-queued as resumable, and a restarted sweepd picks
// them up computing only the cells the previous process never finished.
//
// A sweep can also fan out across machines. One sweepd runs as the
// coordinator and any number of others join it as workers:
//
//	sweepd -coordinator -addr :8080 -cache /shared/cache -store /var/lib/sweepd/store
//	sweepd -join http://coord:8080 -name worker-1 -cache /shared/cache
//
// The coordinator partitions each job into shards, leases them to workers
// over heartbeats, re-queues a shard (with exponential backoff) when its
// worker's lease expires, and merges the rows workers stream back — the
// job's result stream stays byte-identical to a solo run. An idle worker's
// heartbeat is held open until there is a shard for it (at most a third of
// the lease), and a worker polls again as soon as it finishes a shard, so
// grants do not wait for heartbeat ticks. -chaos injects
// worker-side faults (heartbeat drops, delays, mid-shard crashes) for
// testing the fault-tolerance machinery.
//
// Submit from the experiments CLI with
//
//	experiments -panel matrix -nodes 15,25 -server http://localhost:8080 -out jsonl
//
// or with curl:
//
//	curl -d '{"nodeCounts":[15,25],"iterations":50,"seed":1}' localhost:8080/v1/jobs
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iotmpc/internal/service"
	"iotmpc/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

// shutdownGrace bounds how long draining waits for open HTTP responses
// (a slow /events subscriber must not hold the process hostage).
const shutdownGrace = 10 * time.Second

func run(args []string) error {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		cacheDir   = fs.String("cache", "", "content-addressed result cache directory shared by every job (required)")
		storeDir   = fs.String("store", "", "durable job store directory (required unless -join)")
		workers    = fs.Int("workers", 0, "cell workers shared by all active jobs (0: GOMAXPROCS)")
		lanes      = fs.Int("lanes", 0, "bit-sliced trial batch width 1..64 (0: default 64; results are identical for any width)")
		maxActive  = fs.Int("max-active-jobs", 0, "jobs holding Runners at once; cells interleave fairly across them (0: default 4)")
		retainJobs = fs.Int("retain-jobs", 0, "keep at most N terminal jobs; older ones are pruned at checkpoint, their results stay in the cache (0: keep all)")
		retainAge  = fs.Duration("retain-age", 0, "prune terminal jobs not updated within this duration, e.g. 720h (0: keep forever)")

		coordinator = fs.Bool("coordinator", false, "dispatch jobs to joined workers instead of executing locally")
		join        = fs.String("join", "", "run as a worker for the coordinator at this URL instead of serving HTTP")
		name        = fs.String("name", "", "worker name reported to the coordinator (default: host:pid; -join only)")
		lease       = fs.Duration("lease", 0, "worker lease TTL; a worker silent this long forfeits its shards (0: default 15s; -coordinator only)")
		maxAttempts = fs.Int("max-attempts", 0, "grants per shard before the job fails with a shard error (0: default 5; -coordinator only)")
		chaosSpec   = fs.String("chaos", "", `inject worker faults, e.g. "hbdrop=0.5,delay=200ms,crash=0.02" (-join only)`)
		chaosSeed   = fs.Int64("chaos-seed", 1, "seed for the -chaos injection schedule")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheDir == "" {
		return fmt.Errorf("-cache is required (the shared result corpus)")
	}
	if *join != "" {
		if *coordinator {
			return fmt.Errorf("-join and -coordinator are mutually exclusive (a worker executes, a coordinator dispatches)")
		}
		if *storeDir != "" {
			return fmt.Errorf("-store is a coordinator/server concern; a -join worker keeps no store")
		}
		return runWorker(*join, *name, *cacheDir, *workers, *lanes, *chaosSpec, *chaosSeed)
	}
	if *chaosSpec != "" {
		return fmt.Errorf("-chaos injects worker faults and needs -join")
	}
	if *storeDir == "" {
		return fmt.Errorf("-store is required (jobs must survive restarts)")
	}
	if *retainJobs < 0 || *retainAge < 0 {
		return fmt.Errorf("-retain-jobs and -retain-age must be >= 0")
	}
	if *lease < 0 {
		return fmt.Errorf("-lease must be >= 0")
	}
	if *maxAttempts < 0 {
		return fmt.Errorf("-max-attempts must be >= 0")
	}

	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	defer st.Close()
	st.Retention = store.RetentionPolicy{MaxJobs: *retainJobs, MaxAge: *retainAge}

	svc, err := service.New(service.Config{
		Store:            st,
		CacheDir:         *cacheDir,
		Workers:          *workers,
		Lanes:            *lanes,
		MaxActiveJobs:    *maxActive,
		Coordinator:      *coordinator,
		LeaseTTL:         *lease,
		MaxShardAttempts: *maxAttempts,
	})
	if err != nil {
		return err
	}
	// One deterministic GC at boot, after service.New has moved any
	// schema-3 result rows into the cache. Steady-state pruning then rides
	// every store checkpoint.
	if jobs, _, err := st.GC(); err != nil {
		return err
	} else if jobs > 0 {
		fmt.Fprintf(os.Stderr, "sweepd: retention pruned %d terminal jobs\n", jobs)
	}

	// Listen before starting the scheduler so a bad -addr fails fast with
	// nothing to drain.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	svc.Start()
	role := "local execution"
	if *coordinator {
		role = "coordinator"
	}
	fmt.Fprintf(os.Stderr, "sweepd: listening on %s (%s, store %s, cache %s)\n", ln.Addr(), role, *storeDir, *cacheDir)

	// Requests see the drain begin through their context, so held worker
	// heartbeats and SSE streams end at once instead of holding Shutdown.
	reqCtx, endRequests := context.WithCancel(context.Background())
	defer endRequests()
	httpSrv := &http.Server{
		Handler:     svc.Handler(),
		BaseContext: func(net.Listener) context.Context { return reqCtx },
	}
	httpSrv.RegisterOnShutdown(endRequests)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Drain order matters: stop accepting requests first, then cancel the
		// scheduler (the in-flight job is re-queued as resumable), and only
		// then — via the deferred Close — checkpoint and close the store.
		fmt.Fprintln(os.Stderr, "sweepd: draining (in-flight job will be re-queued as resumable)")
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if httpSrv.Shutdown(shutCtx) != nil {
			// A response still streaming past the grace period is
			// force-closed.
			httpSrv.Close()
		}
		svc.Close()
		return nil
	case err := <-serveErr:
		svc.Close()
		return err
	}
}

// runWorker is the -join path: no HTTP listener, no store — just a Worker
// heartbeating against the coordinator and executing the shards it is
// granted, until SIGINT/SIGTERM. In-flight shards are abandoned on exit
// (their completed cells are in the cache); the coordinator's lease expiry
// re-queues them.
func runWorker(coordURL, name, cacheDir string, workers, lanes int, chaosSpec string, chaosSeed int64) error {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	var chaos *service.Chaos
	if chaosSpec != "" {
		var err error
		if chaos, err = service.ParseChaos(chaosSpec, chaosSeed); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweepd: chaos enabled: %s (seed %d)\n", chaosSpec, chaosSeed)
	}
	w, err := service.NewWorker(service.WorkerConfig{
		Coordinator: coordURL,
		Name:        name,
		CacheDir:    cacheDir,
		Workers:     workers,
		Lanes:       lanes,
		Chaos:       chaos,
		Log:         os.Stderr,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "sweepd: worker %q joining %s (cache %s)\n", name, coordURL, cacheDir)
	return w.Run(ctx)
}
