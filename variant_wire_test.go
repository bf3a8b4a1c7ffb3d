package hmccoal

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestVariantWireBytes pins the sweep spec's JSON bytes — the dsweep wire
// format and the input of every checkpoint fingerprint — for the default
// machine, a ddr/warp/hetero one and a preset that sweeps two Variant
// fields, as the string-field spec wrote them. Old checkpoints therefore
// still restore, and a worker of either build reads the other's specs.
func TestVariantWireBytes(t *testing.T) {
	p := TraceParams{CPUs: 4, OpsPerCPU: 600, Seed: 3}
	for _, c := range []struct {
		preset    string
		v         Variant
		raw, hash string
	}{
		{"fig14", Variant{},
			`{"params":{"CPUs":4,"OpsPerCPU":600,"Seed":3,"ThinkScale":0},"benches":["SG","HPCG","SSCA2","STREAM","SparseLU","Sort","Health","FT","EP","SP","LU","CG"],"axes":[{"name":"timeout","values":["16","20","24","28"]}]}`,
			"f33067764b212f14"},
		{"fig14", Variant{Backend: BackendDDR, Frontend: FrontendWarp, Sched: SchedHetero},
			`{"params":{"CPUs":4,"OpsPerCPU":600,"Seed":3,"ThinkScale":0},"benches":["SG","HPCG","SSCA2","STREAM","SparseLU","Sort","Health","FT","EP","SP","LU","CG"],"axes":[{"name":"timeout","values":["16","20","24","28"]}],"backend":"ddr","frontend":"warp","sched":"hetero"}`,
			"ff11395e9e889dd7"},
		{"stride", Variant{Backend: BackendIdeal, Frontend: FrontendWarp, Sched: SchedHetero},
			`{"params":{"CPUs":4,"OpsPerCPU":600,"Seed":3,"ThinkScale":0},"benches":["stride1","stride2","stride4","stride8","stride16","stride32"],"axes":[{"name":"frontend","values":["two-phase","warp"]},{"name":"sched","values":["frfcfs","hetero"]}],"backend":"ideal"}`,
			"b14da678e7207540"},
	} {
		pr, err := LookupPreset(c.preset)
		if err != nil {
			t.Fatal(err)
		}
		s, err := pr.Spec("", p, SweepOptions{Variant: c.v})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != c.raw {
			t.Errorf("%s %+v spec:\n got %s\nwant %s", c.preset, c.v, raw, c.raw)
		}
		if fp, err := s.fingerprint(); err != nil || fp != c.hash {
			t.Errorf("%s %+v fingerprint %s, %v; want %s", c.preset, c.v, fp, err, c.hash)
		}
	}

	// Specs that spelled the default out, as an empty or a named value,
	// decode to it.
	for _, backend := range []string{`""`, `"hmc"`} {
		var s SweepSpec
		if err := json.Unmarshal([]byte(`{"benches":["FT"],"axes":[],"backend":`+backend+`,"frontend":"","sched":"frfcfs"}`), &s); err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		if s.Variant != (Variant{}) {
			t.Errorf("backend %s decodes to %+v, want the default", backend, s.Variant)
		}
	}
	// An unknown name is a sweep-spec error on the worker that decodes it.
	_, err := NewSweepRunner().RunGroup(context.Background(), []byte(`{"benches":["SG"],"axes":[{"name":"timeout","values":["16"]}],"backend":"sram"}`), []int{0})
	if err == nil || !strings.Contains(err.Error(), "sweep spec") || !strings.Contains(err.Error(), `"sram"`) {
		t.Errorf("unknown backend: error %v, want a sweep spec error naming it", err)
	}
}
