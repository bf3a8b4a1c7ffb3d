package dsweep

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"os"
)

// TLS support for the sweep plane. Encryption is layered strictly above
// the transport: the coordinator wraps its (possibly chaos-injected)
// listener with tls.NewListener, the worker wraps its (possibly
// chaos-injected) dialer with TLSDialer. Token auth rides inside the
// encrypted protocol handshake, and injected chaos faults hit beneath
// the record layer exactly as real network faults would — so -token,
// -chaos and TLS compose without knowing about each other.

// ServerTLS loads the coordinator's certificate/key pair into a server
// tls.Config for tls.NewListener.
func ServerTLS(certFile, keyFile string) (*tls.Config, error) {
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("dsweep: load TLS keypair: %w", err)
	}
	return &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}, nil
}

// ClientTLS builds the worker-side tls.Config. caFile, when non-empty,
// pins the coordinator's certificate authority (the self-signed
// deployment path); empty trusts the system roots. skipVerify disables
// verification entirely — encryption without authentication, for testing.
func ClientTLS(caFile string, skipVerify bool) (*tls.Config, error) {
	cfg := &tls.Config{
		MinVersion:         tls.VersionTLS12,
		InsecureSkipVerify: skipVerify,
	}
	if caFile != "" {
		pem, err := os.ReadFile(caFile)
		if err != nil {
			return nil, fmt.Errorf("dsweep: read TLS CA: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("dsweep: no certificates in %s", caFile)
		}
		cfg.RootCAs = pool
	}
	return cfg, nil
}

// TLSDialer wraps a dial function with a TLS client handshake, deriving
// ServerName from the dialed address when cfg does not name one. A failed
// handshake closes the connection and surfaces as a dial error, so the
// worker's usual retry/backoff budget governs it — except a certificate
// the worker does not trust, which fails the slot at once.
func TLSDialer(base func(ctx context.Context, addr string) (net.Conn, error), cfg *tls.Config) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := base(ctx, addr)
		if err != nil {
			return nil, err
		}
		c := cfg.Clone()
		if c.ServerName == "" && !c.InsecureSkipVerify {
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				host = addr
			}
			c.ServerName = host
		}
		tconn := tls.Client(conn, c)
		if err := tconn.HandshakeContext(ctx); err != nil {
			conn.Close()
			return nil, fmt.Errorf("dsweep: tls handshake with %s: %w", addr, err)
		}
		return tconn, nil
	}
}
