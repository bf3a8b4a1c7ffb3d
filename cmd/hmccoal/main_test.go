package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hmccoal"
	"hmccoal/internal/trace"
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
	text := runStdout(t, "-fig", "all", "-ops", "600", "-cpus", "4")
	if sum := sha256.Sum256(text); hex.EncodeToString(sum[:]) != figureGridDigest {
		t.Errorf("-fig all digest %x, want %s; output:\n%s", sum, figureGridDigest, text)
	}
}

// runStdout runs the command and returns its stdout; stderr, where the
// progress meter goes, is discarded. A non-zero exit fails the test.
func runStdout(t *testing.T, argv ...string) []byte {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = out, nil
	code := run(argv)
	os.Stdout, os.Stderr = stdout, stderr
	if code != 0 {
		t.Fatalf("%v: exit %d", argv, code)
	}
	text, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestReplayHonoursVariant replays one captured trace with and without
// -backend/-frontend/-sched: each -json output must be System.Run's
// results on that machine, so the two replays differ.
func TestReplayHonoursVariant(t *testing.T) {
	accs, err := hmccoal.GenerateTrace("FT", hmccoal.TraceParams{CPUs: 4, OpsPerCPU: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ft.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	if err := w.WriteAll(accs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if accs, err = loadTrace(path); err != nil {
		t.Fatal(err)
	}
	want := func(v hmccoal.Variant) []byte {
		results := map[string]hmccoal.Result{}
		for _, mode := range []hmccoal.Mode{hmccoal.ModeBaseline, hmccoal.ModeTwoPhase} {
			cfg := hmccoal.DefaultConfig()
			cfg.Hierarchy.CPUs = 4
			cfg.Mode = mode
			cfg.Variant = v
			sys, err := hmccoal.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if results[mode.String()], err = sys.Run(accs); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	def := runStdout(t, "-trace", path, "-cpus", "4", "-json")
	alt := runStdout(t, "-trace", path, "-cpus", "4", "-json", "-backend", "ddr", "-frontend", "warp", "-sched", "hetero")
	if !bytes.Equal(def, want(hmccoal.Variant{})) {
		t.Error("default replay differs from System.Run on the default machine")
	}
	if !bytes.Equal(alt, want(hmccoal.Variant{Backend: hmccoal.BackendDDR, Frontend: hmccoal.FrontendWarp, Sched: hmccoal.SchedHetero})) {
		t.Error("ddr/warp/hetero replay differs from System.Run on that machine")
	}
	if bytes.Equal(def, alt) {
		t.Error("ddr/warp/hetero replay is byte-identical to the default: the flags are not reaching the replay")
	}
}
