package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestFlagValidation pins the usage exit code for malformed parallelism
// and distribution flags: negatives must be rejected up front, not fed to
// the sweep engine.
func TestFlagValidation(t *testing.T) {
	for name, argv := range map[string][]string{
		"negative workers": {"-workers", "-1", "-list"},
		"removed batch":    {"-batch", "2", "-list"},
		"zero lease":       {"-lease", "0s", "-list"},
		"negative lease":   {"-lease", "-1m", "-list"},
		"bad serve addr":   {"-serve", "no-such-host-xyz:0:0", "-list"},
		"unknown figure":   {"-fig", "99"},
		"fault on ddr":     {"-fig", "fault", "-backend", "ddr"},
		"unknown backend":  {"-backend", "sram", "-list"},
		"token sans serve": {"-token", "s3cret", "-list"},
		"chaos sans serve": {"-chaos", "seed=1,reset=0.5", "-list"},
		"bad chaos":        {"-serve", "127.0.0.1:0", "-chaos", "reset=2", "-list"},
		"zero attempts":    {"-max-attempts", "0", "-list"},
		"tls sans serve":   {"-tls-cert", "x.crt", "-tls-key", "x.key", "-list"},
		"cert sans key":    {"-serve", "127.0.0.1:0", "-tls-cert", "x.crt", "-list"},
		"key sans cert":    {"-serve", "127.0.0.1:0", "-tls-key", "x.key", "-list"},
		"missing keypair":  {"-serve", "127.0.0.1:0", "-tls-cert", "/no/such.crt", "-tls-key", "/no/such.key", "-list"},
	} {
		if code := run(argv); code != exitUsage {
			t.Errorf("%s (%v): exit %d, want %d", name, argv, code, exitUsage)
		}
	}
	if code := run([]string{"-list"}); code != 0 {
		t.Errorf("-list: exit %d, want 0", code)
	}
}

// figureGridDigest is the SHA-256 of `hmccoal -fig all -ops 600 -cpus 4`
// stdout, computed before generated traces were kept as per-core streams.
// It covers what TestGoldenMetrics does not: the payload figures (9–11)
// and the sweep runner's indexed path.
const figureGridDigest = "fd5c901034ba7368dfaf0ebb5a0fb897fa6fc7c2377ea2b098ff91bac1f118a2"

// TestFigureGridDigest pins every -fig all figure byte for byte at a
// reduced scale.
func TestFigureGridDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole figure grid")
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = out, nil // the progress meter goes to stderr
	code := run([]string{"-fig", "all", "-ops", "600", "-cpus", "4"})
	os.Stdout, os.Stderr = stdout, stderr
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	text, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(text); hex.EncodeToString(sum[:]) != figureGridDigest {
		t.Errorf("-fig all digest %x, want %s; output:\n%s", sum, figureGridDigest, text)
	}
}
