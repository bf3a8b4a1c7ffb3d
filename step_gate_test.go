package hmccoal

import "testing"

// TestStepCountGate pins the exact number of Steps one Start→Finish run
// takes, two-phase at the default hierarchy, on the seeded HPCG and
// STREAM traces of benchParams. A Step feeds one access together with the
// run of private-cache hits after it, so the count is the scheduling
// events plus the accesses that end a run; it is deterministic, and a
// change that stops Steps from feeding runs raises it and fails here. If
// a change is meant to move it, re-measure and update the pins in the
// same change, and say why.
func TestStepCountGate(t *testing.T) {
	for _, tc := range []struct {
		bench           string
		accesses, steps int
	}{
		{"HPCG", 18000, 11826},
		{"STREAM", 27648, 5865},
	} {
		accs, err := GenerateTrace(tc.bench, benchParams())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Mode = ModeTwoPhase
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Start(accs); err != nil {
			t.Fatal(err)
		}
		steps := 0
		for done := false; !done; steps++ {
			if done, err = sys.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.Finish(); err != nil {
			t.Fatal(err)
		}
		if len(accs) != tc.accesses || steps != tc.steps {
			t.Errorf("%s: %d accesses in %d steps, want %d in %d", tc.bench, len(accs), steps, tc.accesses, tc.steps)
		}
	}
}
