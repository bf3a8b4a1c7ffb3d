package sim

import (
	"strings"
	"testing"

	"hmccoal/internal/trace"
	"hmccoal/internal/workloads"
)

func genTrace(t *testing.T, name string, ops int) []trace.Access {
	t.Helper()
	g, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	st, err := g.Generate(workloads.Params{CPUs: 12, OpsPerCPU: ops, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return st.Flatten()
}

func runMode(t *testing.T, accs []trace.Access, mode Mode) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(accs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewSystemValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClockGHz = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Error("zero clock accepted")
	}
	cfg = DefaultConfig()
	cfg.MaxOutstanding = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Error("zero MLP accepted")
	}
	cfg = DefaultConfig()
	cfg.Coalescer.LineBytes = 128
	if _, err := NewSystem(cfg); err == nil {
		t.Error("mismatched line sizes accepted")
	}
}

func TestModeString(t *testing.T) {
	if Baseline.String() != "MSHR-based" || DMCOnly.String() != "DMC-only" || TwoPhase.String() != "two-phase" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode has empty name")
	}
}

func TestRunRejectsForeignCPU(t *testing.T) {
	s, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run([]trace.Access{{Addr: 0, Size: 8, Kind: trace.Load, CPU: 200}})
	if err == nil {
		t.Fatal("access from CPU 200 accepted on a 12-CPU system")
	}
}

func TestRunBasicInvariants(t *testing.T) {
	accs := genTrace(t, "STREAM", 3000)
	res := runMode(t, accs, TwoPhase)
	if res.RuntimeCycles == 0 {
		t.Fatal("zero runtime")
	}
	if res.LLCMisses == 0 {
		t.Fatal("no LLC misses on a streaming workload")
	}
	if res.HMCRequests == 0 || res.HMCRequests > res.LLCMisses {
		t.Fatalf("HMCRequests = %d of %d misses", res.HMCRequests, res.LLCMisses)
	}
	if res.HMC.Requests != res.HMCRequests {
		t.Fatalf("device saw %d requests, coalescer issued %d", res.HMC.Requests, res.HMCRequests)
	}
	if res.MSHR.Allocations != res.HMCRequests {
		t.Fatalf("allocations %d != issued %d", res.MSHR.Allocations, res.HMCRequests)
	}
	if eff := res.CoalescingEfficiency(); eff <= 0 || eff >= 1 {
		t.Fatalf("CoalescingEfficiency = %v", eff)
	}
	if res.RawBandwidthEfficiency() <= 0 || res.RawBandwidthEfficiency() >= 1 {
		t.Fatalf("RawBandwidthEfficiency = %v", res.RawBandwidthEfficiency())
	}
	if res.CoalescedBandwidthEfficiency() <= res.RawBandwidthEfficiency() {
		t.Fatalf("coalesced efficiency %v not above raw %v",
			res.CoalescedBandwidthEfficiency(), res.RawBandwidthEfficiency())
	}
	if res.BandwidthSavedBytes() <= 0 {
		t.Fatalf("BandwidthSavedBytes = %d", res.BandwidthSavedBytes())
	}
	if res.RuntimeNs() <= 0 {
		t.Fatal("RuntimeNs not positive")
	}
}

func TestDeterminism(t *testing.T) {
	accs := genTrace(t, "SG", 1500)
	a := runMode(t, accs, TwoPhase)
	b := runMode(t, accs, TwoPhase)
	if a.RuntimeCycles != b.RuntimeCycles || a.HMCRequests != b.HMCRequests ||
		a.HMC.TransferredBytes != b.HMC.TransferredBytes {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestTwoPhaseBeatsBaselineOnCoalescing(t *testing.T) {
	accs := genTrace(t, "FT", 2000)
	base := runMode(t, accs, Baseline)
	dmc := runMode(t, accs, DMCOnly)
	full := runMode(t, accs, TwoPhase)
	if full.CoalescingEfficiency() <= base.CoalescingEfficiency() {
		t.Errorf("two-phase %.3f not above baseline %.3f",
			full.CoalescingEfficiency(), base.CoalescingEfficiency())
	}
	if full.CoalescingEfficiency() < dmc.CoalescingEfficiency() {
		t.Errorf("two-phase %.3f below DMC-only %.3f",
			full.CoalescingEfficiency(), dmc.CoalescingEfficiency())
	}
	// FT is the paper's most coalescable benchmark: expect a strong ratio.
	if full.CoalescingEfficiency() < 0.5 {
		t.Errorf("FT two-phase efficiency = %.3f, want ≥ 0.5", full.CoalescingEfficiency())
	}
}

func TestCoalescerImprovesRuntime(t *testing.T) {
	accs := genTrace(t, "FT", 2000)
	base := runMode(t, accs, Baseline)
	full := runMode(t, accs, TwoPhase)
	if full.RuntimeCycles >= base.RuntimeCycles {
		t.Fatalf("coalescer runtime %d not below baseline %d",
			full.RuntimeCycles, base.RuntimeCycles)
	}
}

func TestFencesDrain(t *testing.T) {
	accs := genTrace(t, "SG", 300)
	// Inject a fence per CPU in the middle of the trace.
	withFences := make([]trace.Access, 0, len(accs)+12)
	for i, a := range accs {
		withFences = append(withFences, a)
		if i == len(accs)/2 {
			for cpu := 0; cpu < 12; cpu++ {
				withFences = append(withFences, trace.Access{
					Kind: trace.FenceOp, CPU: uint8(cpu), Tick: a.Tick,
				})
			}
		}
	}
	res := runMode(t, withFences, TwoPhase)
	if res.Coalescer.Fences != 12 {
		t.Fatalf("Fences = %d, want 12", res.Coalescer.Fences)
	}
}

func TestStallAccounting(t *testing.T) {
	accs := genTrace(t, "STREAM", 2000)
	res := runMode(t, accs, Baseline)
	if res.StallCycles == 0 {
		t.Error("memory-bound baseline run recorded no stalls")
	}
}

func TestPayloadDistribution(t *testing.T) {
	accs := genTrace(t, "HPCG", 2000)
	a, err := AnalyzePayload(DefaultConfig().Hierarchy, accs, 16)
	if err != nil {
		t.Fatal(err)
	}
	hist := a.Hist
	if len(hist) == 0 {
		t.Fatal("empty distribution")
	}
	var total, small uint64
	for size, n := range hist {
		if size%16 != 0 || size == 0 || size > 256 {
			t.Fatalf("illegal bucket %d", size)
		}
		total += n
		if size == 16 {
			small += n
		}
	}
	// Figure 10: HPCG is dominated by small requests; 16 B must be the
	// plurality bucket.
	frac := float64(small) / float64(total)
	if frac < 0.25 {
		t.Errorf("16 B share = %.2f, want the dominant bucket (≥0.25)", frac)
	}
	for size, n := range hist {
		if size != 16 && n > small {
			t.Errorf("bucket %d B (%d) larger than 16 B bucket (%d)", size, n, small)
		}
	}
}

func TestPayloadDistributionValidation(t *testing.T) {
	cfg := DefaultConfig().Hierarchy
	cfg.CPUs = 0
	if _, err := AnalyzePayload(cfg, nil, 16); err == nil {
		t.Fatal("bad hierarchy accepted")
	}
}

func TestSummaryRenders(t *testing.T) {
	accs := genTrace(t, "FT", 500)
	res := runMode(t, accs, TwoPhase)
	s := res.Summary()
	for _, want := range []string{"runtime", "coalescing efficiency", "row activations"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

func TestOpenPageNarrowsTheGap(t *testing.T) {
	if testing.Short() {
		t.Skip("four full runs")
	}
	accs := genTrace(t, "STREAM", 1500)
	speedup := func(open bool) float64 {
		var rt [2]uint64
		for m, mode := range []Mode{Baseline, TwoPhase} {
			cfg := DefaultConfig()
			cfg.HMC.OpenPage = open
			cfg.Mode = mode
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(accs)
			if err != nil {
				t.Fatal(err)
			}
			rt[m] = res.RuntimeCycles
		}
		return 1 - float64(rt[1])/float64(rt[0])
	}
	closed, open := speedup(false), speedup(true)
	if open >= closed {
		t.Errorf("open-page speedup %.3f not below closed-page %.3f", open, closed)
	}
}

// TestCalibrationShape is a regression guard on the workload calibration:
// the orderings the paper's figures depend on must survive future edits.
func TestCalibrationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 12 benchmarks")
	}
	eff := map[string]float64{}
	for _, g := range workloads.All() {
		st, err := g.Generate(workloads.Params{CPUs: 12, OpsPerCPU: 1200, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res := runMode(t, st.Flatten(), TwoPhase)
		eff[g.Name()] = res.CoalescingEfficiency()
	}
	// Streaming benchmarks coalesce heavily…
	for _, name := range []string{"FT", "STREAM", "SparseLU", "SP", "LU"} {
		if eff[name] < 0.55 {
			t.Errorf("%s two-phase efficiency = %.3f, want ≥ 0.55", name, eff[name])
		}
	}
	// …irregular ones barely.
	for _, name := range []string{"SSCA2", "Health", "EP", "CG"} {
		if eff[name] > 0.30 {
			t.Errorf("%s two-phase efficiency = %.3f, want ≤ 0.30", name, eff[name])
		}
	}
	// FT must beat every irregular benchmark by a wide margin.
	if eff["FT"] < 2*eff["SSCA2"] {
		t.Errorf("FT (%.3f) not well above SSCA2 (%.3f)", eff["FT"], eff["SSCA2"])
	}
}

// TestPayloadAnalysisInvariants property-checks the §5.3.2 study across
// random workloads: payload ≤ coalesced ≤ raw transfer volume and both
// efficiencies within (0, 1].
func TestPayloadAnalysisInvariants(t *testing.T) {
	for _, name := range []string{"FT", "SSCA2", "HPCG", "Sort"} {
		for seed := int64(1); seed <= 3; seed++ {
			g, _ := workloads.ByName(name)
			st, err := g.Generate(workloads.Params{CPUs: 6, OpsPerCPU: 600, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			a, err := AnalyzePayload(DefaultConfig().Hierarchy, st.Flatten(), 16)
			if err != nil {
				t.Fatal(err)
			}
			if a.Misses == 0 {
				t.Fatalf("%s/%d: no misses", name, seed)
			}
			if a.PayloadBytes > a.CoalescedBytes {
				t.Errorf("%s/%d: payload %d exceeds coalesced transfer %d",
					name, seed, a.PayloadBytes, a.CoalescedBytes)
			}
			if a.CoalescedBytes > a.RawBytes {
				t.Errorf("%s/%d: coalesced %d exceeds raw %d", name, seed, a.CoalescedBytes, a.RawBytes)
			}
			if e := a.RawEfficiency(); e <= 0 || e > 1 {
				t.Errorf("%s/%d: raw efficiency %v", name, seed, e)
			}
			if e := a.CoalescedEfficiency(); e <= 0 || e > 1 {
				t.Errorf("%s/%d: coalesced efficiency %v", name, seed, e)
			}
			var fromHist uint64
			for size, n := range a.Hist {
				fromHist += (uint64(size) + 32) * n
			}
			if fromHist != a.CoalescedBytes {
				t.Errorf("%s/%d: histogram bytes %d != CoalescedBytes %d",
					name, seed, fromHist, a.CoalescedBytes)
			}
		}
	}
}
