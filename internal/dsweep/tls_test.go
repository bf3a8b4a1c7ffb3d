package dsweep

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeSelfSigned mints a self-signed ECDSA certificate for 127.0.0.1 and
// writes the PEM pair to dir, returning the cert and key paths. The cert
// doubles as its own CA bundle for the worker's -tls-ca.
func writeSelfSigned(t *testing.T, dir string) (certPath, keyPath string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "dsweep-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	certPath = filepath.Join(dir, "coord.crt")
	keyPath = filepath.Join(dir, "coord.key")
	writePEM(t, certPath, "CERTIFICATE", der)
	writePEM(t, keyPath, "EC PRIVATE KEY", keyDER)
	return certPath, keyPath
}

func writePEM(t *testing.T, path, typ string, der []byte) {
	t.Helper()
	if err := os.WriteFile(path, pem.EncodeToMemory(&pem.Block{Type: typ, Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
}

// startTLSCoordinator serves a coordinator behind a TLS listener using a
// fresh self-signed certificate; it returns the coordinator, its address
// and the certificate path (the worker's CA bundle).
func startTLSCoordinator(t *testing.T, opt Options) (*Coordinator, string, string) {
	t.Helper()
	certPath, keyPath := writeSelfSigned(t, t.TempDir())
	cfg, err := ServerTLS(certPath, keyPath)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(opt)
	go c.Serve(tls.NewListener(ln, cfg))
	t.Cleanup(func() { c.Close() })
	return c, ln.Addr().String(), certPath
}

func tcpDial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// TestTLSEndToEnd runs a full campaign over an encrypted connection with
// token auth riding inside it: a CA-pinning worker completes every job
// and the results match the plaintext protocol's exactly.
func TestTLSEndToEnd(t *testing.T) {
	coord, addr, caPath := startTLSCoordinator(t, Options{Token: "hush"})
	ccfg, err := ClientTLS(caPath, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go Work(ctx, addr, echoRunner(nil), WorkOptions{
		Name:  "tls-worker",
		Token: "hush",
		Dial:  TLSDialer(tcpDial, ccfg),
	})

	for i := 0; i < 6; i++ {
		cell, err := coord.RunJob(context.Background(), []byte(`{"g":true}`), i)
		if err != nil {
			t.Fatal(err)
		}
		if got := cellIdx(t, cell); got != i {
			t.Fatalf("job %d came back with the cell of job %d", i, got)
		}
	}
	if coord.Status().Workers == 0 {
		t.Fatal("no worker connected in Status after a TLS campaign")
	}
}

// TestTLSSkipVerify pins the -tls-skip-verify path: no CA bundle, still
// encrypted, still working.
func TestTLSSkipVerify(t *testing.T) {
	coord, addr, _ := startTLSCoordinator(t, Options{})
	ccfg, err := ClientTLS("", true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go Work(ctx, addr, echoRunner(nil), WorkOptions{Name: "insecure", Dial: TLSDialer(tcpDial, ccfg)})
	if _, err := coord.RunJob(context.Background(), []byte(`{}`), 0); err != nil {
		t.Fatal(err)
	}
}

// TestTLSUntrustedCertRejected pins the verification contract: a worker
// that pins no CA (system roots) must refuse the self-signed coordinator,
// and the failure must read as a certificate problem, reported at once
// rather than retried for the whole dial budget.
func TestTLSUntrustedCertRejected(t *testing.T) {
	_, addr, _ := startTLSCoordinator(t, Options{})
	ccfg, err := ClientTLS("", false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	start := time.Now()
	err = Work(ctx, addr, echoRunner(nil), WorkOptions{
		Name: "untrusting",
		Dial: TLSDialer(tcpDial, ccfg),
		// DefaultDialRetry and the default reconnect budget: neither may
		// be spent on a certificate no retry can make trusted.
	})
	if err == nil {
		t.Fatal("worker accepted an untrusted certificate")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("worker took %v to report an untrusted certificate", elapsed)
	}
	if !strings.Contains(err.Error(), "tls") && !strings.Contains(err.Error(), "certificate") {
		t.Fatalf("failure does not mention TLS: %v", err)
	}
}

// TestTLSPlaintextWorkerAgainstTLSCoordinator pins the mixed-mode
// failure: a plaintext worker dialing a TLS listener must error out
// within its budget rather than wedge the campaign.
func TestTLSPlaintextWorkerAgainstTLSCoordinator(t *testing.T) {
	_, addr, _ := startTLSCoordinator(t, Options{IOTimeout: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	err := Work(ctx, addr, echoRunner(nil), WorkOptions{
		Name:       "plaintext",
		DialRetry:  500 * time.Millisecond,
		Reconnects: -1,
		IOTimeout:  time.Second,
	})
	if err == nil {
		t.Fatal("plaintext worker completed against a TLS coordinator")
	}
}

// TestClientTLSBadCA pins flag validation: a missing or junk CA file is
// reported, not silently accepted.
func TestClientTLSBadCA(t *testing.T) {
	if _, err := ClientTLS(filepath.Join(t.TempDir(), "nope.pem"), false); err == nil {
		t.Error("missing CA file accepted")
	}
	junk := filepath.Join(t.TempDir(), "junk.pem")
	if err := os.WriteFile(junk, []byte("not a pem"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := ClientTLS(junk, false); err == nil {
		t.Error("junk CA file accepted")
	}
}

// TestServerTLSBadPair pins the coordinator-side validation.
func TestServerTLSBadPair(t *testing.T) {
	dir := t.TempDir()
	if _, err := ServerTLS(filepath.Join(dir, "no.crt"), filepath.Join(dir, "no.key")); err == nil {
		t.Error("missing keypair accepted")
	}
}
