package hmccoal

import (
	"reflect"
	"strings"
	"testing"
)

// TestPresetGridOrder pins every preset's job order and job names on a
// two-benchmark grid: benchmark outermost, then the axes in order, the
// last fastest. The lists were written from the per-grid switch the axis
// table replaced, so a change of radix order or of a label fails here.
func TestPresetGridOrder(t *testing.T) {
	want := map[string][]string{
		"runall": {
			"FT/MSHR-based", "FT/DMC-only", "FT/two-phase", "FT/payload",
			"SG/MSHR-based", "SG/DMC-only", "SG/two-phase", "SG/payload",
		},
		"fig14": {
			"FT/T=16", "FT/T=20", "FT/T=24", "FT/T=28",
			"SG/T=16", "SG/T=20", "SG/T=24", "SG/T=28",
		},
		"timeout": {
			"FT/T=16", "FT/T=20", "FT/T=24", "FT/T=28",
			"SG/T=16", "SG/T=20", "SG/T=24", "SG/T=28",
		},
		"mshr": {
			"FT/mshr=8", "FT/mshr=16", "FT/mshr=32", "FT/mshr=64",
			"SG/mshr=8", "SG/mshr=16", "SG/mshr=32", "SG/mshr=64",
		},
		"speedup": {
			"FT/MSHR-based", "FT/two-phase", "SG/MSHR-based", "SG/two-phase",
		},
		"fault": {
			"FT/ber=0/MSHR-based", "FT/ber=0/DMC-only", "FT/ber=0/two-phase",
			"FT/ber=1e-07/MSHR-based", "FT/ber=1e-07/DMC-only", "FT/ber=1e-07/two-phase",
			"FT/ber=1e-06/MSHR-based", "FT/ber=1e-06/DMC-only", "FT/ber=1e-06/two-phase",
			"FT/ber=1e-05/MSHR-based", "FT/ber=1e-05/DMC-only", "FT/ber=1e-05/two-phase",
			"FT/ber=0.0001/MSHR-based", "FT/ber=0.0001/DMC-only", "FT/ber=0.0001/two-phase",
			"SG/ber=0/MSHR-based", "SG/ber=0/DMC-only", "SG/ber=0/two-phase",
			"SG/ber=1e-07/MSHR-based", "SG/ber=1e-07/DMC-only", "SG/ber=1e-07/two-phase",
			"SG/ber=1e-06/MSHR-based", "SG/ber=1e-06/DMC-only", "SG/ber=1e-06/two-phase",
			"SG/ber=1e-05/MSHR-based", "SG/ber=1e-05/DMC-only", "SG/ber=1e-05/two-phase",
			"SG/ber=0.0001/MSHR-based", "SG/ber=0.0001/DMC-only", "SG/ber=0.0001/two-phase",
		},
		"stride": {
			"FT/two-phase/frfcfs", "FT/two-phase/hetero", "FT/warp/frfcfs", "FT/warp/hetero",
			"SG/two-phase/frfcfs", "SG/two-phase/hetero", "SG/warp/frfcfs", "SG/warp/hetero",
		},
	}
	if len(presets) != len(want) {
		t.Errorf("%d presets, %d pinned", len(presets), len(want))
	}
	for _, pr := range presets {
		s, err := pr.Spec("FT", sweepTestParams(), SweepOptions{})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		s.Benches = []string{"FT", "SG"}
		g, err := s.compile()
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		var got []string
		for i := 0; i < g.n(); i++ {
			got = append(got, g.name(i))
		}
		if !reflect.DeepEqual(got, want[pr.name]) {
			t.Errorf("%s grid:\n got %q\nwant %q", pr.name, got, want[pr.name])
		}
	}
}

// TestPresetSpecRejectsBadGrids pins that a grid no job of which could
// run fails when its spec is built, before any job starts.
func TestPresetSpecRejectsBadGrids(t *testing.T) {
	p := sweepTestParams()
	for _, c := range []struct {
		preset, bench string
		opt           SweepOptions
		override      Axis
		want          string
	}{
		{"mshr", "FT", SweepOptions{}, AxisOf("mshr", []int{0}), "mshr=0"},
		{"fault", "FT", SweepOptions{}, AxisOf("ber", []float64{2}), "outside [0,1]"},
		{"fault", "FT", SweepOptions{Variant: Variant{Backend: BackendDDR}}, Axis{}, "HMC-only"},
		{"timeout", "FT", SweepOptions{}, Axis{"timeout", []string{"-1"}}, "timeout axis"},
		{"timeout", "nope", SweepOptions{}, Axis{}, "unknown benchmark"},
		{"runall", "", SweepOptions{}, Axis{"mode", []string{"two-phase"}}, "fixes its mode axis"},
	} {
		pr, err := LookupPreset(c.preset)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr.Spec(c.bench, p, c.opt, c.override); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %+v: error %v, want one naming %q", c.preset, c.override, err, c.want)
		}
	}
	if _, err := LookupPreset("fig99"); err == nil || !strings.Contains(err.Error(), "runall, fig14") {
		t.Errorf("unknown preset: error %v, want the valid names", err)
	}
}
