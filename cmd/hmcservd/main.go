// Command hmcservd is the survivable simulation job service: a long-lived
// multi-tenant daemon that accepts simulation jobs (single benchmark runs,
// evaluation sweeps, soak campaigns) over HTTP/JSON, schedules them onto a
// bounded slot pool with per-tenant quotas and priority preemption, and
// records every job state transition in an fsync'd ledger so a crashed or
// drained daemon restarts into exactly the queue it left behind.
//
// Usage:
//
//	hmcservd -state /var/lib/hmcservd                # defaults: 2 slots, local sweeps
//	hmcservd -state dir -slots 4 -job-timeout 30m    # watchdog on every job
//	hmcservd -state dir -max-queued 64 -rate 10 -burst 20  # per-tenant quotas
//	hmcservd -state dir -serve :7333 -token secret   # sweeps go to hmcsweepd workers
//
// The HTTP API (see internal/jobserv):
//
//	POST   /api/v1/jobs              submit {"tenant":..,"priority":..,"spec":{..}}
//	GET    /api/v1/jobs?tenant=      list jobs
//	GET    /api/v1/jobs/{id}         poll one job
//	GET    /api/v1/jobs/{id}/wait    long-poll until terminal
//	GET    /api/v1/jobs/{id}/result  fetch the result document
//	DELETE /api/v1/jobs/{id}         cancel
//	GET    /api/v1/status            daemon snapshot
//
// SIGTERM and SIGINT drain gracefully: admission stops (submits get 503),
// running jobs finish or park at their next safe point, and the ledger is
// left ready for the next daemon to adopt. SIGKILL is survivable by
// design: the next start replays the ledger, re-runs interrupted jobs
// (sweeps and soaks resume from their checkpoints) and produces results
// byte-identical to an uninterrupted run. SIGUSR1 prints a status
// snapshot to stderr.
//
// Exit codes: 0 clean shutdown, 1 usage/configuration error, 2 runtime
// failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hmccoal/internal/dsweep"
	"hmccoal/internal/jobserv"
)

const (
	exitUsage = 1
	exitRun   = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, outw, errw io.Writer) int {
	fs := flag.NewFlagSet("hmcservd", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		listen       = fs.String("listen", "127.0.0.1:7444", "HTTP listen address for the job API")
		state        = fs.String("state", "", "state directory: job ledger, results, checkpoints (required)")
		slots        = fs.Int("slots", 2, "jobs executing concurrently")
		sweepWorkers = fs.Int("sweep-workers", 0, "per-sweep-job simulation pool size (0 = all cores)")
		maxQueue     = fs.Int("max-queue", 0, "daemon-wide pending-job cap (0 = default)")
		maxQueued    = fs.Int("max-queued", 0, "per-tenant queued-job quota (0 = unlimited)")
		maxRunning   = fs.Int("max-running", 0, "per-tenant running-job quota (0 = unlimited)")
		rate         = fs.Float64("rate", 0, "per-tenant submit rate limit in jobs/second (0 = unlimited)")
		burst        = fs.Int("burst", 0, "submit rate burst size (with -rate; 0 = 1)")
		jobTimeout   = fs.Duration("job-timeout", 0, "per-attempt watchdog: a job running longer fails with a structured timeout (0 = off)")
		drainTimeout = fs.Duration("drain-timeout", time.Minute, "how long a SIGTERM drain waits for running jobs to finish or park")
	)
	var serve dsweep.ServeFlags
	serve.Register(fs, "also coordinate distributed sweeps: listen on this TCP address for hmcsweepd workers and ship sweep jobs to them")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return exitUsage
	}
	usageErr := func(err error) int {
		fmt.Fprintln(errw, "hmcservd:", err)
		return exitUsage
	}
	runErr := func(err error) int {
		fmt.Fprintln(errw, "hmcservd:", err)
		return exitRun
	}
	if *state == "" {
		return usageErr(errors.New("-state is required"))
	}
	if *slots < 1 {
		return usageErr(fmt.Errorf("-slots must be ≥ 1, got %d", *slots))
	}
	if *maxQueue < 0 || *maxQueued < 0 || *maxRunning < 0 || *burst < 0 {
		return usageErr(errors.New("quota flags must be ≥ 0"))
	}
	if *rate < 0 {
		return usageErr(fmt.Errorf("-rate must be ≥ 0, got %v", *rate))
	}
	if *jobTimeout < 0 || *drainTimeout <= 0 {
		return usageErr(errors.New("-job-timeout must be ≥ 0 and -drain-timeout > 0"))
	}
	if err := serve.Validate(); err != nil {
		return usageErr(err)
	}

	opt := jobserv.Options{
		Dir:          *state,
		Slots:        *slots,
		MaxQueue:     *maxQueue,
		SweepWorkers: *sweepWorkers,
		JobTimeout:   *jobTimeout,
		Quota: jobserv.Quota{
			MaxQueued:  *maxQueued,
			MaxRunning: *maxRunning,
			Rate:       *rate,
			Burst:      *burst,
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(errw, format+"\n", args...)
		},
	}

	// With -serve, sweep jobs dispatch to hmcsweepd workers through an
	// embedded dsweep coordinator instead of simulating in-process.
	coord, err := serve.Start(errw, "hmcservd", opt.Logf)
	if err != nil {
		return usageErr(err)
	}
	if coord != nil {
		defer coord.Close()
		opt.Dispatch = coord
	}

	d, err := jobserv.NewDaemon(opt)
	if err != nil {
		return runErr(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		d.Close()
		return usageErr(fmt.Errorf("-listen: %w", err))
	}
	// The bound address goes to stdout so wrappers (and the e2e tests) can
	// parse it even with -listen :0.
	fmt.Fprintf(outw, "hmcservd: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: jobserv.NewServer(d)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	defer signal.Stop(usr1)

	for {
		select {
		case <-usr1:
			fmt.Fprintf(errw, "hmcservd: %+v\n", d.Status())
		case err := <-served:
			d.Close()
			return runErr(fmt.Errorf("http server: %w", err))
		case <-sigCtx.Done():
			// Graceful drain: stop admission at the HTTP layer, then park
			// or finish every running job and leave the ledger adoptable.
			fmt.Fprintln(errw, "hmcservd: draining…")
			shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			defer cancel()
			srv.Shutdown(shutCtx)
			if err := d.Drain(shutCtx); err != nil {
				return runErr(err)
			}
			fmt.Fprintln(errw, "hmcservd: drained; state is ready for adoption")
			return 0
		}
	}
}
