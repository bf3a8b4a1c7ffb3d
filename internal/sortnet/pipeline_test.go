package sortnet

import (
	"reflect"
	"testing"
)

func TestPerStageFoldMatchesFigure7(t *testing.T) {
	// §4.1 / Figure 7: the 10 steps of the n=16 network fold into 4 stages
	// with 2, 2, 3, 3 steps; stage fill cost 3τ, buffers 64.
	net := MustNew(16)
	p, err := NewPipeline(net, PerStage)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.StageDepths(); !reflect.DeepEqual(got, []int{2, 2, 3, 3}) {
		t.Fatalf("StageDepths() = %v, want [2 2 3 3]", got)
	}
	if got := p.NumStages(); got != 4 {
		t.Errorf("NumStages() = %d, want 4", got)
	}
	if got := p.IntervalCycles(); got != 3*StepCycles {
		t.Errorf("IntervalCycles() = %d, want %d", got, 3*StepCycles)
	}
	if got := p.FullLatencyCycles(); got != 10*StepCycles {
		t.Errorf("FullLatencyCycles() = %d, want %d", got, 10*StepCycles)
	}
	if got := p.Buffers(); got != 64 {
		t.Errorf("Buffers() = %d, want 64", got)
	}
}

func TestPerStepFold(t *testing.T) {
	// §4.1: one pipeline stage per comparator step → 10 stages, interval τ,
	// 160 request buffers, full 63 comparators.
	net := MustNew(16)
	p, err := NewPipeline(net, PerStep)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NumStages(); got != 10 {
		t.Errorf("NumStages() = %d, want 10", got)
	}
	if got := p.IntervalCycles(); got != StepCycles {
		t.Errorf("IntervalCycles() = %d, want %d", got, StepCycles)
	}
	if got := p.Buffers(); got != 160 {
		t.Errorf("Buffers() = %d, want 160", got)
	}
	if got := p.ComparatorCost(); got != 63 {
		t.Errorf("ComparatorCost() = %d, want 63", got)
	}
}

func TestPerStageComparatorReuse(t *testing.T) {
	// Folding must strictly reduce comparator hardware versus per-step.
	net := MustNew(16)
	perStep, _ := NewPipeline(net, PerStep)
	perStage, _ := NewPipeline(net, PerStage)
	if perStage.ComparatorCost() >= perStep.ComparatorCost() {
		t.Errorf("PerStage cost %d not below PerStep cost %d",
			perStage.ComparatorCost(), perStep.ComparatorCost())
	}
	// Buffers shrink 160 → 64 but the 2τ extra fill delay appears:
	// interval grows from τ to 3τ.
	if perStage.IntervalCycles()-perStep.IntervalCycles() != 2*StepCycles {
		t.Errorf("interval delta = %d, want 2τ", perStage.IntervalCycles()-perStep.IntervalCycles())
	}
}

func TestLatencyStageSelect(t *testing.T) {
	net := MustNew(16)
	p, _ := NewPipeline(net, PerStage)
	tau := uint64(StepCycles)
	cases := []struct {
		m    int
		want uint64
	}{
		{0, 0},
		{1, 0},
		{2, 2 * tau},   // 1 merge stage = 1 step, covered by pipeline stage of depth 2
		{4, 4 * tau},   // 2 merge stages = 3 steps → two pipeline stages (2+2)
		{8, 7 * tau},   // 3 merge stages = 6 steps → three pipeline stages (2+2+3)
		{16, 10 * tau}, // full traversal
	}
	for _, c := range cases {
		if got := p.LatencyCycles(c.m); got != c.want {
			t.Errorf("LatencyCycles(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestLatencyMonotoneInRequests(t *testing.T) {
	net := MustNew(16)
	for _, fold := range []Fold{PerStep, PerStage} {
		p, err := NewPipeline(net, fold)
		if err != nil {
			t.Fatal(err)
		}
		prev := uint64(0)
		for m := 0; m <= 16; m++ {
			got := p.LatencyCycles(m)
			if got < prev {
				t.Errorf("fold %d: LatencyCycles(%d) = %d < previous %d", fold, m, got, prev)
			}
			prev = got
		}
	}
}

func TestIntervalAtPaperClock(t *testing.T) {
	// §4.1: 3τ ≈ 3.64 ns at 3.3 GHz with τ = 4 cycles.
	net := MustNew(16)
	p, _ := NewPipeline(net, PerStage)
	ns := float64(p.IntervalCycles()) / 3.3
	if ns < 3.5 || ns > 3.8 {
		t.Errorf("interval = %.2f ns at 3.3 GHz, want ≈3.64", ns)
	}
}

func TestFenceDrainCycles(t *testing.T) {
	net := MustNew(16)
	p, _ := NewPipeline(net, PerStage)
	if got := p.FenceDrainCycles(); got != p.FullLatencyCycles()+p.IntervalCycles() {
		t.Errorf("FenceDrainCycles() = %d", got)
	}
}

func TestBadFold(t *testing.T) {
	if _, err := NewPipeline(MustNew(8), Fold(99)); err == nil {
		t.Fatal("NewPipeline with bad fold succeeded")
	}
}

func TestPerStageFoldWidth32(t *testing.T) {
	// n=32: 5 merge stages, 15 steps → even fold of 3 steps per stage.
	net := MustNew(32)
	p, err := NewPipeline(net, PerStage)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.StageDepths(); !reflect.DeepEqual(got, []int{3, 3, 3, 3, 3}) {
		t.Fatalf("StageDepths() = %v, want [3 3 3 3 3]", got)
	}
	if got := p.Buffers(); got != 5*32 {
		t.Errorf("Buffers() = %d, want 160", got)
	}
}

func TestComparatorCostMonotoneInFold(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		net := MustNew(n)
		perStep, _ := NewPipeline(net, PerStep)
		perStage, _ := NewPipeline(net, PerStage)
		if perStep.ComparatorCost() != net.Comparators() {
			t.Errorf("n=%d: per-step cost %d != total %d", n, perStep.ComparatorCost(), net.Comparators())
		}
		if perStage.ComparatorCost() > perStep.ComparatorCost() {
			t.Errorf("n=%d: per-stage cost above per-step", n)
		}
		if perStage.FullLatencyCycles() != perStep.FullLatencyCycles() {
			t.Errorf("n=%d: full traversal latency differs between folds", n)
		}
	}
}
