package sortnet

import "fmt"

// StepCycles is τ from §4.1: each parallel step performs a fully
// parallel compare (2 cycles) and exchange (2 cycles).
const StepCycles = 4

// Pipeline folds the comparator steps of a Network into hardware pipeline
// stages and prices traversals in clock cycles (paper §4.1).
//
// Two folds matter in the paper for n = 16:
//
//	PerStep:  10 pipeline stages, one per comparator step. Fastest
//	          (initiation interval τ) but needs a buffer row and a
//	          comparator set per step (160 buffers for n=16).
//	PerStage: 4 pipeline stages with step depths {2,2,3,3}; buffers and
//	          comparators are reused across the steps of a stage. Adds a
//	          2τ fill delay but quarters the buffer cost.
type Pipeline struct {
	net    *Network
	depths []int // comparator steps per pipeline stage
}

// Fold selects how comparator steps map onto pipeline stages.
type Fold int

// Supported folds.
const (
	// PerStep gives every comparator step its own pipeline stage.
	PerStep Fold = iota
	// PerStage distributes the steps evenly over Stages() pipeline stages,
	// with the deeper groups at the tail — the optimized design of §4.1.
	PerStage
)

// NewPipeline builds the pipeline model for net with the given fold, each
// comparator step taking τ = StepCycles.
func NewPipeline(net *Network, fold Fold) (*Pipeline, error) {
	p := &Pipeline{net: net}
	switch fold {
	case PerStep:
		p.depths = make([]int, net.Depth())
		for i := range p.depths {
			p.depths[i] = 1
		}
	case PerStage:
		stages := net.Stages()
		total := net.Depth()
		base := total / stages
		rem := total % stages
		p.depths = make([]int, stages)
		for i := range p.depths {
			p.depths[i] = base
			// Put the surplus steps at the tail so the early stages stay
			// shallow, matching the {2,2,3,3} layout of Figure 7.
			if i >= stages-rem {
				p.depths[i]++
			}
		}
	default:
		return nil, fmt.Errorf("sortnet: unknown fold %d", fold)
	}
	return p, nil
}

// StageDepths returns the number of comparator steps per pipeline stage.
func (p *Pipeline) StageDepths() []int {
	out := make([]int, len(p.depths))
	copy(out, p.depths)
	return out
}

// NumStages returns the pipeline depth in stages.
func (p *Pipeline) NumStages() int { return len(p.depths) }

// LatencyCycles returns the time for one sequence of m valid requests to
// traverse the pipeline, honoring stage-select: merge stages beyond
// StagesNeeded(m) are disabled and skipped (§3.3). The traversal cost of an
// enabled pipeline stage is its step depth × τ.
func (p *Pipeline) LatencyCycles(m int) uint64 {
	needSteps := stepsForStages(StagesNeeded(m))
	var cycles uint64
	covered := 0
	for _, d := range p.depths {
		if covered >= needSteps {
			break
		}
		cycles += uint64(d) * StepCycles
		covered += d
	}
	return cycles
}

// IntervalCycles returns the initiation interval: a new sequence can enter
// the pipeline once the first (deepest) stage drains, i.e. max stage depth
// × τ. For the 4-stage n=16 fold this is 3τ (§4.1).
func (p *Pipeline) IntervalCycles() uint64 {
	max := 0
	for _, d := range p.depths {
		if d > max {
			max = d
		}
	}
	return uint64(max) * StepCycles
}

// FullLatencyCycles returns the fill time for a full-width sequence.
func (p *Pipeline) FullLatencyCycles() uint64 {
	return p.LatencyCycles(p.net.Width())
}

// Buffers returns the request-buffer cost of the pipeline: each pipeline
// stage holds one full sequence (n requests). The paper's 10-stage n=16
// pipeline needs 160 buffers, the 4-stage fold 64 (§4.1).
func (p *Pipeline) Buffers() int { return len(p.depths) * p.net.Width() }

// ComparatorCost returns the comparator hardware cost: within a pipeline
// stage the comparator set is reused across steps, so each stage needs the
// maximum per-step comparator count among its steps.
func (p *Pipeline) ComparatorCost() int {
	per := p.net.StepComparators()
	total, idx := 0, 0
	for _, d := range p.depths {
		max := 0
		for i := 0; i < d; i++ {
			if per[idx] > max {
				max = per[idx]
			}
			idx++
		}
		total += max
	}
	return total
}

// stepsForStages returns how many comparator steps the first `stages` merge
// stages contain: 1+2+…+stages.
func stepsForStages(stages int) int {
	return stages * (stages + 1) / 2
}

// FenceDrainCycles returns the cost of a memory fence: the fence
// monopolizes one entire pipeline stage (§3.4), so following requests are
// delayed by one initiation interval on top of the drain of everything in
// flight (a full traversal).
func (p *Pipeline) FenceDrainCycles() uint64 {
	return p.FullLatencyCycles() + p.IntervalCycles()
}
