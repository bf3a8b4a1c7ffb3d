package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Stats summarizes a trace.
type Stats struct {
	Accesses, Loads, Stores, Fences int
	// PayloadBytes is the total data requested.
	PayloadBytes uint64
	// FootprintBytes approximates the touched memory: distinct 64 B lines
	// × 64.
	FootprintBytes uint64
	// SpanTicks is the distance between the first and last access.
	SpanTicks uint64
	// CPUs is the number of distinct cores appearing in the trace.
	CPUs int
}

// Summarize computes Stats over a trace.
func Summarize(accs []Access) Stats {
	var s Stats
	if len(accs) == 0 {
		return s
	}
	lines := make(map[uint64]struct{})
	cpus := make(map[uint8]struct{})
	first, last := accs[0].Tick, accs[0].Tick
	for _, a := range accs {
		s.Accesses++
		cpus[a.CPU] = struct{}{}
		if a.Tick < first {
			first = a.Tick
		}
		if a.Tick > last {
			last = a.Tick
		}
		switch a.Kind {
		case Load:
			s.Loads++
		case Store:
			s.Stores++
		case FenceOp:
			s.Fences++
			continue
		}
		s.PayloadBytes += uint64(a.Size)
		for ln := a.Addr / 64; ln <= (a.End()-1)/64; ln++ {
			lines[ln] = struct{}{}
		}
	}
	s.FootprintBytes = uint64(len(lines)) * 64
	s.SpanTicks = last - first
	s.CPUs = len(cpus)
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d accesses (%d loads, %d stores, %d fences) from %d CPUs",
		s.Accesses, s.Loads, s.Stores, s.Fences, s.CPUs)
	fmt.Fprintf(&b, ", %.2f MB payload over a %.2f MB footprint, %d ticks",
		float64(s.PayloadBytes)/1e6, float64(s.FootprintBytes)/1e6, s.SpanTicks)
	return b.String()
}

// Merge interleaves several traces into one, ordered by tick. It is
// stable: accesses with equal ticks come out by source index, then in
// source order, so per-source program order is preserved. A source not
// already in tick order is stable-sorted into a copy first; the inputs are
// never modified.
func Merge(traces ...[]Access) []Access {
	srcs := make([][]Access, 0, len(traces))
	n := 0
	for _, t := range traces {
		if len(t) == 0 {
			continue
		}
		if !ticksOrdered(t) {
			t = slices.Clone(t)
			slices.SortStableFunc(t, func(a, b Access) int { return cmp.Compare(a.Tick, b.Tick) })
		}
		srcs = append(srcs, t)
		n += len(t)
	}
	m := NewMerger(srcs)
	return m.collect(n)
}

// Streams is a multi-core trace held stream by stream in one CPU-ordered
// array: CPU c's accesses, in tick order, are Accs[Off[c]:Off[c+1]].
// Readers that need the global order walk it with Merged; the simulator's
// tick loop reads the streams directly.
type Streams struct {
	Accs []Access
	Off  []int32
}

// Merged returns the streams' tick-ordered view, equal ticks by CPU.
func (s Streams) Merged() Merger {
	srcs := make([][]Access, 0, len(s.Off))
	for c := 0; c+1 < len(s.Off); c++ {
		srcs = append(srcs, s.Accs[s.Off[c]:s.Off[c+1]])
	}
	return NewMerger(srcs)
}

// Flatten materializes the tick-ordered view as one trace (nil when empty).
func (s Streams) Flatten() []Access {
	m := s.Merged()
	return m.collect(len(s.Accs))
}

// Merger walks tick-ordered sources in global tick order, lowest (tick,
// source index) first, one run of equal-tick accesses of one source per
// Next. It scans the source heads linearly: no heap is needed at the at
// most 256 per-core streams of a generated trace.
type Merger struct{ srcs [][]Access }

// NewMerger merges srcs, each of which must be in tick order. The Merger
// owns srcs and drops its empty sources in place.
func NewMerger(srcs [][]Access) Merger {
	return Merger{slices.DeleteFunc(srcs, func(s []Access) bool { return len(s) == 0 })}
}

// Next returns the next run of accesses, aliasing its source, or nil once
// every source is exhausted. The last source left comes back whole.
func (m *Merger) Next() []Access {
	switch len(m.srcs) {
	case 0:
		return nil
	case 1:
		run := m.srcs[0]
		m.srcs = nil
		return run
	}
	best := 0 // the first source holding the lowest head tick
	for i := 1; i < len(m.srcs); i++ {
		if m.srcs[i][0].Tick < m.srcs[best][0].Tick {
			best = i
		}
	}
	src := m.srcs[best]
	run := 1
	for run < len(src) && src[run].Tick == src[0].Tick {
		run++
	}
	if run == len(src) {
		m.srcs = slices.Delete(m.srcs, best, best+1) // keeps source order
	} else {
		m.srcs[best] = src[run:]
	}
	return src[:run]
}

// collect copies the n accesses left in m into one exact-length trace.
func (m *Merger) collect(n int) []Access {
	if n == 0 {
		return nil
	}
	out := make([]Access, 0, n)
	for run := m.Next(); run != nil; run = m.Next() {
		out = append(out, run...)
	}
	return out
}

// ticksOrdered reports whether accs is in non-decreasing tick order.
func ticksOrdered(accs []Access) bool {
	for i := 1; i < len(accs); i++ {
		if accs[i].Tick < accs[i-1].Tick {
			return false
		}
	}
	return true
}

// Validate checks the invariants the simulator relies on: ticks
// non-decreasing, sizes positive for loads/stores, addresses within 52
// bits. It returns the first violation.
func Validate(accs []Access) error {
	var prev uint64
	for i, a := range accs {
		if a.Tick < prev {
			return fmt.Errorf("trace: access %d at tick %d before predecessor %d", i, a.Tick, prev)
		}
		prev = a.Tick
		if a.Kind == FenceOp {
			continue
		}
		if a.Size == 0 {
			return fmt.Errorf("trace: access %d has zero size", i)
		}
		if a.Addr>>52 != 0 {
			return fmt.Errorf("trace: access %d address %#x exceeds 52 bits", i, a.Addr)
		}
	}
	return nil
}
