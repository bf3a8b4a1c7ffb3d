package main

import "testing"

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
