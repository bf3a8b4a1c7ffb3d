package dsweep

import (
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"time"

	"hmccoal/internal/netchaos"
)

// ServeFlags is the coordinator side of the command-line tools: the
// -serve, -lease, -token, -max-attempts, -chaos, -tls-cert and -tls-key
// flags, their validation, and the listen path they configure. Register
// the flags, parse, Validate, then Start.
type ServeFlags struct {
	addr, token, chaosSpec, tlsCert, tlsKey string
	lease                                   time.Duration
	maxAttempts                             int
	chaos                                   netchaos.Config // parsed by Validate
}

// Register adds the flags to fs; serveUsage is the -serve help text,
// which names what the calling tool coordinates.
func (f *ServeFlags) Register(fs *flag.FlagSet, serveUsage string) {
	fs.StringVar(&f.addr, "serve", "", serveUsage)
	fs.DurationVar(&f.lease, "lease", DefaultLease, "with -serve: a worker silent this long after taking a job group is presumed dead and the group is requeued")
	fs.StringVar(&f.token, "token", "", "with -serve: shared secret workers must present in their handshake (empty accepts any worker)")
	fs.IntVar(&f.maxAttempts, "max-attempts", DefaultMaxAttempts, "with -serve: workers that may be lost on one job group before the group fails")
	fs.StringVar(&f.chaosSpec, "chaos", "", "with -serve: deterministic network-fault injection on worker connections, e.g. seed=1,reset=0.02,delay=2ms (testing)")
	fs.StringVar(&f.tlsCert, "tls-cert", "", "with -serve: PEM certificate; worker connections are TLS-wrapped (requires -tls-key)")
	fs.StringVar(&f.tlsKey, "tls-key", "", "with -serve: PEM private key for -tls-cert")
}

// Validate rejects flag combinations that cannot serve: non-positive
// lease or attempt budgets, serve-only flags without -serve, half a TLS
// keypair, and a malformed -chaos spec. Errors name the flag at fault.
func (f *ServeFlags) Validate() error {
	if f.lease <= 0 {
		return fmt.Errorf("-lease must be positive, got %v", f.lease)
	}
	if f.maxAttempts <= 0 {
		return fmt.Errorf("-max-attempts must be positive, got %d", f.maxAttempts)
	}
	if f.addr == "" {
		if f.token != "" {
			return errors.New("-token only applies with -serve")
		}
		if f.chaosSpec != "" {
			return errors.New("-chaos only applies with -serve")
		}
		if f.tlsCert != "" || f.tlsKey != "" {
			return errors.New("-tls-cert/-tls-key only apply with -serve")
		}
	}
	if (f.tlsCert == "") != (f.tlsKey == "") {
		return errors.New("-tls-cert and -tls-key must be given together")
	}
	var err error
	if f.chaos, err = netchaos.ParseFlag(f.chaosSpec); err != nil {
		return fmt.Errorf("-chaos: %w", err)
	}
	return nil
}

// Start listens on the -serve address, starts a Coordinator on the
// listener and announces the bound address on logw as "<prefix>:
// coordinating sweeps on <addr>" (":0" binds an ephemeral port, so
// scripts parse the announcement). It returns nil without -serve. A
// -chaos config wraps the listener so every accepted worker connection
// suffers deterministic, seeded network faults; a TLS keypair wraps it
// last, so encryption sits above the injected faults exactly as it sits
// above real network faults. The coordinator's chatter — worker connects,
// losses, requeues — goes to logf, or to logw under prefix when logf is
// nil. Errors name the flag at fault.
func (f *ServeFlags) Start(logw io.Writer, prefix string, logf func(format string, args ...any)) (*Coordinator, error) {
	if f.addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return nil, fmt.Errorf("-serve: %w", err)
	}
	if f.chaos.Enabled() {
		inj, err := netchaos.New(f.chaos)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("-chaos: %w", err)
		}
		ln = inj.Listen(ln)
		fmt.Fprintf(logw, "%s: chaos injection armed on worker connections (seed %d)\n", prefix, f.chaos.Seed)
	}
	if f.tlsCert != "" {
		cfg, err := ServerTLS(f.tlsCert, f.tlsKey)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("-tls-cert: %w", err)
		}
		ln = tls.NewListener(ln, cfg)
		fmt.Fprintf(logw, "%s: TLS enabled on worker connections\n", prefix)
	}
	if logf == nil {
		logf = func(format string, args ...any) {
			fmt.Fprintf(logw, prefix+": "+format+"\n", args...)
		}
	}
	coord := NewCoordinator(Options{
		Lease:       f.lease,
		MaxAttempts: f.maxAttempts,
		Token:       f.token,
		Logf:        logf,
	})
	go coord.Serve(ln)
	fmt.Fprintf(logw, "%s: coordinating sweeps on %s\n", prefix, ln.Addr())
	return coord, nil
}
