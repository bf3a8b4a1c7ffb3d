package sim

import (
	"fmt"
	"sync"

	"hmccoal/internal/cache"
	"hmccoal/internal/trace"
)

// TraceIndex is a trace laid out for the tick loop, CPU by CPU:
// streamOff[c] .. streamOff[c+1] delimits CPU c's accesses. A generated
// trace (NewStreamIndex) is already stored stream by stream, so the
// offsets index accs directly. A tick-ordered trace (NewTraceIndex) stays
// where the caller keeps it, and streamIdx maps each stream position to
// an access in accs instead of copying the accesses. The layout is
// read-only after construction, so runs replaying the same trace — a
// sweep's common case of several modes/configs over one workload — share
// a single index.
//
// The index also carries the trace's private-level filters
// (cache.PrivateFilter), one per (L1, L2) config pair, indexed by stream
// position. The first run on each pair builds its filter under mu, walking
// every CPU's stream through one L1/L2 pair that lives only for the walk;
// every later run of the trace, concurrent or not, replays only the
// shared LLC.
type TraceIndex struct {
	accs      []trace.Access
	streamOff []int32
	streamIdx []int32 // nil when accs is stored stream by stream
	cpus      int

	mu sync.Mutex
	// filters holds one filter per (L1, L2) pair, built on first use. An
	// entry never changes once appended, so a pointer into an array that
	// a later append outgrew still reads the same filter.
	filters []cache.PrivateFilter
}

// NewTraceIndex validates and buckets accs for a system with cpus cores.
// The trace must be ordered by tick (as returned by GenerateTrace); every
// access must name a CPU below cpus.
func NewTraceIndex(accs []trace.Access, cpus int) (*TraceIndex, error) {
	idx := &TraceIndex{}
	if err := idx.init(accs, cpus); err != nil {
		return nil, err
	}
	return idx, nil
}

// NewStreamIndex wraps per-CPU streams, as internal/workloads generates
// them, for a system with cpus cores, without copying them. There must be
// one stream per core, each holding only its own CPU's accesses in tick
// order.
func NewStreamIndex(st trace.Streams, cpus int) (*TraceIndex, error) {
	if cpus <= 0 || len(st.Off) != cpus+1 || st.Off[0] != 0 || int(st.Off[cpus]) != len(st.Accs) {
		return nil, fmt.Errorf("sim: %d stream offsets over %d accesses do not delimit %d CPUs", len(st.Off), len(st.Accs), cpus)
	}
	for c := 0; c < cpus; c++ {
		if st.Off[c] > st.Off[c+1] {
			return nil, fmt.Errorf("sim: stream offsets decrease at CPU %d", c)
		}
		var prev uint64
		for _, a := range st.Accs[st.Off[c]:st.Off[c+1]] {
			if int(a.CPU) != c {
				return nil, fmt.Errorf("sim: access from CPU %d in CPU %d's stream", a.CPU, c)
			}
			if a.Tick < prev {
				return nil, fmt.Errorf("sim: CPU %d's stream goes back from tick %d to %d", c, prev, a.Tick)
			}
			prev = a.Tick
		}
	}
	return &TraceIndex{accs: st.Accs, streamOff: st.Off, cpus: cpus}, nil
}

// init buckets accs into idx. Split from NewTraceIndex so Start can build
// a stack-local index without the extra heap allocation (the single-run
// allocation count is pinned by TestAllocationGate).
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

// privateFilter returns the trace's filter for hier's L1 and L2 configs,
// building it on first use by walking each CPU's stream, in stream order,
// through one transient L1/L2 pair (cache.FilterPrivate). Concurrent
// callers wait for one build.
func (idx *TraceIndex) privateFilter(hier cache.HierarchyConfig) (*cache.PrivateFilter, error) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	for i := range idx.filters {
		if f := &idx.filters[i]; f.L1 == hier.L1 && f.L2 == hier.L2 {
			return f, nil
		}
	}
	f, err := cache.FilterPrivate(hier, idx.accs, idx.streamOff, idx.streamIdx)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	idx.filters = append(idx.filters, f)
	return &idx.filters[len(idx.filters)-1], nil
}

// Merged returns the trace's tick-ordered view (equal ticks by CPU for
// generated streams; the caller's order for a bucketed trace).
func (idx *TraceIndex) Merged() trace.Merger {
	if idx.streamIdx != nil {
		return trace.NewMerger([][]trace.Access{idx.accs})
	}
	return trace.Streams{Accs: idx.accs, Off: idx.streamOff}.Merged()
}
