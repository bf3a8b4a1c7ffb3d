package sim

import (
	"fmt"

	"hmccoal/internal/trace"
)

// TraceIndex is the CSR bucketing of a trace by CPU: streamOff[c] ..
// streamOff[c+1] delimits CPU c's access indices within streamIdx. It is
// read-only after construction, so runs replaying the same trace — a
// sweep's common case of several modes/configs over one workload — share
// a single index instead of each re-bucketing the trace.
type TraceIndex struct {
	accs      []trace.Access
	streamOff []int32
	streamIdx []int32
	cpus      int
}

// NewTraceIndex validates and buckets accs for a system with cpus cores.
// The trace must be ordered by tick (as produced by internal/workloads);
// every access must name a CPU below cpus.
func NewTraceIndex(accs []trace.Access, cpus int) (*TraceIndex, error) {
	idx := &TraceIndex{}
	if err := idx.init(accs, cpus); err != nil {
		return nil, err
	}
	return idx, nil
}

// init buckets accs into idx. Split from NewTraceIndex so Start can build
// a stack-local index without the extra heap allocation (the single-run
// allocation count is pinned by the Sim benchmarks).
func (idx *TraceIndex) init(accs []trace.Access, cpus int) error {
	if cpus <= 0 {
		return fmt.Errorf("sim: trace index needs at least one CPU")
	}
	if len(accs) > 1<<31-1 {
		return fmt.Errorf("sim: trace too long (%d accesses)", len(accs))
	}
	idx.accs = accs
	idx.cpus = cpus
	idx.streamOff = make([]int32, cpus+1)
	for i := range accs {
		if int(accs[i].CPU) >= cpus {
			return fmt.Errorf("sim: access from CPU %d, system has %d", accs[i].CPU, cpus)
		}
		idx.streamOff[int(accs[i].CPU)+1]++
	}
	for c := 0; c < cpus; c++ {
		idx.streamOff[c+1] += idx.streamOff[c]
	}
	idx.streamIdx = make([]int32, len(accs))
	fill := make([]int32, cpus)
	copy(fill, idx.streamOff[:cpus])
	for i := range accs {
		c := accs[i].CPU
		idx.streamIdx[fill[c]] = int32(i)
		fill[c]++
	}
	return nil
}

// CPUs returns the core count the index was bucketed for.
func (idx *TraceIndex) CPUs() int { return idx.cpus }

// Len returns the number of accesses in the indexed trace.
func (idx *TraceIndex) Len() int { return len(idx.accs) }
