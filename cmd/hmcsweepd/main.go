// Command hmcsweepd is a distributed-sweep worker: it connects to a sweep
// coordinator (hmccoal -serve, or hmcservd -serve for the job service's
// sweep jobs), pulls sweep jobs over the dsweep wire protocol, runs the
// simulations locally and streams the results back. Start any number
// of workers on any machines that can reach the coordinator;
// work-stealing dispatch balances the grid across them, and the
// coordinator's results stay byte-identical to a local run.
//
// Usage:
//
//	hmcsweepd -connect host:7333               # one worker, all cores
//	hmcsweepd -connect host:7333 -slots 2      # two concurrent jobs
//	hmcsweepd -connect host:7333 -name rack7   # named in coordinator logs
//	hmcsweepd -connect host:7333 -token secret # authenticated handshake
//
// The worker exits 0 when the coordinator drains it (sweep finished) and
// on a graceful SIGINT/SIGTERM drain: a job already running is finished
// and its result delivered before the process leaves, so stopping a
// worker never loses completed simulations — the coordinator requeues
// only jobs lost to a real crash.
//
// A connection lost to a transport fault is re-dialed with jittered
// backoff and the slot resumes pulling, bounded by -reconnects
// consecutive failures (the counter resets on every successful
// handshake). A rejected token, a protocol mismatch or an untrusted
// coordinator certificate is terminal: the worker exits 2 instead of
// retrying what the other end already refused.
//
// Exit codes: 0 clean drain, 1 usage/configuration error, 2 worker
// failure (coordinator unreachable, protocol mismatch, transport loss).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"hmccoal"
	"hmccoal/internal/dsweep"
	"hmccoal/internal/netchaos"
)

const (
	exitUsage = 1
	exitRun   = 2
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("hmcsweepd", flag.ContinueOnError)
	var (
		connect    = fs.String("connect", "", "coordinator address (host:port) to pull sweep jobs from (required)")
		name       = fs.String("name", "", "worker name in coordinator logs (default host/pid)")
		slots      = fs.Int("slots", 0, "jobs run concurrently (0 = one per core)")
		dialRetry  = fs.Duration("dial-retry", dsweep.DefaultDialRetry, "how long to keep retrying the initial coordinator dial (workers may start first)")
		token      = fs.String("token", "", "shared secret presented in the handshake (must match the coordinator's -token)")
		reconnects = fs.Int("reconnects", dsweep.DefaultReconnects, "consecutive failed reconnection attempts before a slot gives up (-1 disables reconnection)")
		chaos      = fs.String("chaos", "", "deterministic network-fault injection on the coordinator connection, e.g. seed=1,reset=0.02,dialfail=0.1 (testing)")
		tlsCA      = fs.String("tls-ca", "", "PEM CA bundle that must have signed the coordinator's certificate; enables TLS on the connection")
		tlsSkip    = fs.Bool("tls-skip-verify", false, "enable TLS but skip certificate verification (testing)")
	)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return exitUsage
	}
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "hmcsweepd: -connect is required")
		return exitUsage
	}
	if *slots < 0 {
		fmt.Fprintf(os.Stderr, "hmcsweepd: -slots must be ≥ 0, got %d\n", *slots)
		return exitUsage
	}
	if *dialRetry <= 0 {
		fmt.Fprintf(os.Stderr, "hmcsweepd: -dial-retry must be positive, got %v\n", *dialRetry)
		return exitUsage
	}
	if *reconnects < -1 {
		fmt.Fprintf(os.Stderr, "hmcsweepd: -reconnects must be ≥ -1, got %d\n", *reconnects)
		return exitUsage
	}
	chaosCfg, err := netchaos.ParseFlag(*chaos)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmcsweepd: -chaos:", err)
		return exitUsage
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s/%d", host, os.Getpid())
	}
	if *slots == 0 {
		*slots = runtime.GOMAXPROCS(0)
	}

	// SIGINT/SIGTERM drain gracefully: a running job finishes and reports
	// before the worker disconnects.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := dsweep.WorkOptions{
		Name:      *name,
		Slots:     *slots,
		DialRetry: *dialRetry,
		Token:     *token,
		// At the CLI, 0 and -1 both mean "never reconnect"; the library
		// reserves 0 for its default.
		Reconnects: *reconnects,
	}
	if *reconnects <= 0 {
		opt.Reconnects = -1
	}
	if chaosCfg.Enabled() {
		inj, err := netchaos.New(chaosCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hmcsweepd: -chaos:", err)
			return exitUsage
		}
		var d net.Dialer
		opt.Dial = inj.Dialer(func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		})
		fmt.Fprintf(os.Stderr, "hmcsweepd: chaos injection armed on the coordinator connection (seed %d)\n", chaosCfg.Seed)
	}
	if *tlsCA != "" || *tlsSkip {
		tcfg, err := dsweep.ClientTLS(*tlsCA, *tlsSkip)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hmcsweepd: -tls-ca:", err)
			return exitUsage
		}
		// TLS wraps whatever dialer is configured — chaos faults land
		// beneath the record layer, as real network faults would.
		base := opt.Dial
		if base == nil {
			var d net.Dialer
			base = func(ctx context.Context, addr string) (net.Conn, error) {
				return d.DialContext(ctx, "tcp", addr)
			}
		}
		opt.Dial = dsweep.TLSDialer(base, tcfg)
		fmt.Fprintln(os.Stderr, "hmcsweepd: TLS enabled on the coordinator connection")
	}

	runner := hmccoal.NewSweepRunner()
	opt.CacheStats = runner.CacheStats

	fmt.Fprintf(os.Stderr, "hmcsweepd: %s pulling from %s (%d slots)\n", *name, *connect, *slots)
	if err := dsweep.Work(ctx, *connect, runner.RunJob, opt); err != nil {
		fmt.Fprintln(os.Stderr, "hmcsweepd:", err)
		return exitRun
	}
	return 0
}
