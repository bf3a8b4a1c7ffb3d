package workloads

import (
	"math"
	"testing"

	"hmccoal/internal/trace"
)

func smallParams() Params {
	return Params{CPUs: 4, OpsPerCPU: 2000, Seed: 7}
}

func TestAllHasTwelveBenchmarks(t *testing.T) {
	gens := All()
	if len(gens) != 12 {
		t.Fatalf("All() = %d generators, want 12", len(gens))
	}
	seen := map[string]bool{}
	for _, g := range gens {
		if g.Name() == "" || g.Description() == "" {
			t.Errorf("generator %T missing name/description", g)
		}
		if seen[g.Name()] {
			t.Errorf("duplicate benchmark name %q", g.Name())
		}
		seen[g.Name()] = true
	}
	for _, want := range []string{"SG", "STREAM", "HPCG", "SSCA2", "SparseLU", "Sort", "Health", "FT", "EP", "SP", "LU", "CG"} {
		if !seen[want] {
			t.Errorf("missing benchmark %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	g, ok := ByName("FT")
	if !ok || g.Name() != "FT" {
		t.Fatalf("ByName(FT) = %v, %v", g, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) succeeded")
	}
}

func TestNamesMatchAll(t *testing.T) {
	names := Names()
	gens := All()
	if len(names) != len(gens) {
		t.Fatal("Names/All length mismatch")
	}
	for i := range names {
		if names[i] != gens[i].Name() {
			t.Errorf("Names()[%d] = %q != %q", i, names[i], gens[i].Name())
		}
	}
}

func TestParamsValidation(t *testing.T) {
	for _, p := range []Params{
		{CPUs: 0, OpsPerCPU: 100},
		{CPUs: 4, OpsPerCPU: 0},
		{CPUs: 1000, OpsPerCPU: 100},
		{CPUs: 4, OpsPerCPU: 100, ThinkScale: -1},
		{CPUs: 4, OpsPerCPU: 100, ThinkScale: math.NaN()},
		{CPUs: 4, OpsPerCPU: 100, ThinkScale: math.Inf(1)},
	} {
		if _, err := (ftGen{}).Generate(p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestTracesWellFormed(t *testing.T) {
	p := smallParams()
	for _, g := range All() {
		accs, err := generate(g, p)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if len(accs) < p.CPUs*p.OpsPerCPU/8 {
			t.Errorf("%s: only %d accesses", g.Name(), len(accs))
		}
		var prev uint64
		perCPU := map[uint8]int{}
		for i, a := range accs {
			if a.Tick < prev {
				t.Fatalf("%s: access %d tick %d before %d", g.Name(), i, a.Tick, prev)
			}
			prev = a.Tick
			if a.Size == 0 || a.Size > 512 {
				t.Fatalf("%s: access %d has size %d", g.Name(), i, a.Size)
			}
			if a.Kind != trace.Load && a.Kind != trace.Store {
				t.Fatalf("%s: access %d has kind %v", g.Name(), i, a.Kind)
			}
			if int(a.CPU) >= p.CPUs {
				t.Fatalf("%s: access %d from CPU %d", g.Name(), i, a.CPU)
			}
			if a.Addr>>52 != 0 {
				t.Fatalf("%s: access %d address %#x exceeds 52 bits", g.Name(), i, a.Addr)
			}
			perCPU[a.CPU]++
		}
		for cpu := 0; cpu < p.CPUs; cpu++ {
			if perCPU[uint8(cpu)] == 0 {
				t.Errorf("%s: CPU %d generated nothing", g.Name(), cpu)
			}
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	p := smallParams()
	for _, g := range All() {
		a, err := generate(g, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic length %d vs %d", g.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: access %d differs between runs", g.Name(), i)
			}
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	p := smallParams()
	p2 := p
	p2.Seed = 8
	for _, name := range []string{"SSCA2", "Health", "SG"} { // random-heavy
		g, _ := ByName(name)
		a, _ := generate(g, p)
		b, _ := generate(g, p2)
		same := len(a) == len(b)
		if same {
			for i := range a {
				if a[i] != b[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: identical traces for different seeds", name)
		}
	}
}

func TestStoreMix(t *testing.T) {
	p := smallParams()
	stores := func(name string) float64 {
		g, ok := ByName(name)
		if !ok {
			t.Fatalf("no generator %s", name)
		}
		accs, err := generate(g, p)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, a := range accs {
			if a.Kind == trace.Store {
				n++
			}
		}
		return float64(n) / float64(len(accs))
	}
	// STREAM triad writes one of three streams; FT copies (≈half stores);
	// SSCA2 and HPCG are read-dominated.
	if s := stores("STREAM"); s < 0.25 || s > 0.45 {
		t.Errorf("STREAM store ratio = %.2f", s)
	}
	if s := stores("FT"); s < 0.4 || s > 0.6 {
		t.Errorf("FT store ratio = %.2f", s)
	}
	if s := stores("HPCG"); s > 0.05 {
		t.Errorf("HPCG store ratio = %.2f", s)
	}
}

func TestEPIsComputeBound(t *testing.T) {
	p := smallParams()
	ep, _ := ByName("EP")
	ft, _ := ByName("FT")
	a, _ := generate(ep, p)
	b, _ := generate(ft, p)
	// EP emits far fewer accesses and moves far less data than FT.
	if len(a)*4 > len(b) {
		t.Errorf("EP accesses %d not ≪ FT %d", len(a), len(b))
	}
	var epBytes, ftBytes uint64
	for _, acc := range a {
		epBytes += uint64(acc.Size)
	}
	for _, acc := range b {
		ftBytes += uint64(acc.Size)
	}
	if epBytes*4 > ftBytes {
		t.Errorf("EP payload %d not ≪ FT %d", epBytes, ftBytes)
	}
}

func TestThinkScaleStretchesTrace(t *testing.T) {
	p := smallParams()
	g, _ := ByName("FT")
	base, err := generate(g, p)
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.ThinkScale = 3
	slow, err := generate(g, p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(slow) {
		t.Fatalf("ThinkScale changed access count: %d vs %d", len(base), len(slow))
	}
	bSpan := base[len(base)-1].Tick - base[0].Tick
	sSpan := slow[len(slow)-1].Tick - slow[0].Tick
	if sSpan < bSpan*2 {
		t.Errorf("ThinkScale=3 span %d not ≫ base span %d", sSpan, bSpan)
	}
}
