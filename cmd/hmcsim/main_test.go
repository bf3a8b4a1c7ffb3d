package main

import "testing"

// TestFlagValidation pins the usage exit code for malformed worker-pool
// flags: negatives are rejected before any device run starts.
func TestFlagValidation(t *testing.T) {
	for name, argv := range map[string][]string{
		"negative workers": {"-workers", "-1", "-sweep"},
		"removed batch":    {"-batch", "2", "-sweep"},
		"bad size":         {"-size", "17"},
		"bad backend":      {"-backend", "sram"},
		"bad pattern":      {"-pattern", "zigzag", "-n", "1"},
	} {
		if code := run(argv); code != exitUsage {
			t.Errorf("%s (%v): exit %d, want %d", name, argv, code, exitUsage)
		}
	}
}
