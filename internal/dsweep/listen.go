package dsweep

import (
	"crypto/tls"
	"fmt"
	"io"
	"net"

	"hmccoal/internal/netchaos"
)

// ServeCoordinator is the -serve path shared by the command-line tools:
// it listens on addr, starts a Coordinator on the listener and announces
// the bound address on logw as "<prefix>: coordinating sweeps on <addr>"
// (":0" binds an ephemeral port, so scripts parse the announcement). A
// non-zero chaos config wraps the listener so every accepted worker
// connection suffers deterministic, seeded network faults. A tlsCert /
// tlsKey pair wraps it last, so encryption sits above the injected faults
// exactly as it sits above real network faults. When opt.Logf is nil the
// coordinator's chatter — worker connects, losses, requeues — also goes
// to logw under prefix. Errors name the flag at fault.
func ServeCoordinator(addr string, opt Options, chaos netchaos.Config, tlsCert, tlsKey string, logw io.Writer, prefix string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-serve: %w", err)
	}
	if chaos.Enabled() {
		inj, err := netchaos.New(chaos)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("-chaos: %w", err)
		}
		ln = inj.Listen(ln)
		fmt.Fprintf(logw, "%s: chaos injection armed on worker connections (seed %d)\n", prefix, chaos.Seed)
	}
	if tlsCert != "" {
		cfg, err := ServerTLS(tlsCert, tlsKey)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("-tls-cert: %w", err)
		}
		ln = tls.NewListener(ln, cfg)
		fmt.Fprintf(logw, "%s: TLS enabled on worker connections\n", prefix)
	}
	if opt.Logf == nil {
		opt.Logf = func(format string, args ...any) {
			fmt.Fprintf(logw, prefix+": "+format+"\n", args...)
		}
	}
	coord := NewCoordinator(opt)
	go coord.Serve(ln)
	fmt.Fprintf(logw, "%s: coordinating sweeps on %s\n", prefix, ln.Addr())
	return coord, nil
}
