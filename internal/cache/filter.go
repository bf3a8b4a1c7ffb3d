package cache

import (
	"math/bits"

	"hmccoal/internal/trace"
)

// narrowLines is the widest access whose private-level misses fit the
// filter's one byte per access; wider accesses keep a full mask aside.
const narrowLines = 8

// PrivateFilter is one trace's outcome in the private levels: for every
// access, which of its lines miss both the core's L1 and its L2 — the only
// lines the shared LLC ever sees — plus the L1 and L2 totals over the
// whole trace. The private levels see each core's accesses in program
// order and answer only to them (see the package comment), so the filter
// depends on the trace and the (L1, L2) configs alone: it is computed once
// and every run of the trace replays just the LLC (ReplayLLC). It is
// immutable once built.
type PrivateFilter struct {
	// L1 and L2 are the private levels the trace was walked through: the
	// filter holds for any hierarchy with these two configs.
	L1, L2 Config
	// L1Stats and L2Stats are the private levels' counters summed over
	// the cores, as a full walk of the trace leaves them.
	L1Stats, L2Stats Stats

	// miss holds one byte per walked access: bit k is set iff line k of
	// the access missed L1 and L2. An access spanning more than
	// narrowLines lines has a nonzero byte iff any line missed, and its
	// mask, one bit per line, in wide.
	miss []uint8
	wide map[int][]uint64
}

// lineSpan returns the first cache line a touches and how many lines its
// bytes Addr .. End()-1 span, as the load/store unit splits an access.
// Lines are 1<<shift bytes.
func lineSpan(a *trace.Access, shift int) (first, n uint64) {
	first = a.Addr >> shift
	last := (a.End() - 1) >> shift
	if a.Size == 0 || last < first {
		return first, 0
	}
	return first, last - first + 1
}

// FilterPrivate walks a trace through the private L1 and L2 levels of
// cfg and returns its PrivateFilter. CPU c's stream is walk positions
// streamOff[c] .. streamOff[c+1]-1, in its program order; walk position p
// is accs[order[p]], or accs[p] when order is nil, and the filter is
// indexed by p. Cores never share a private line, so one L1/L2 pair,
// reset before each stream, gives every core's outcome; the pair lives
// only for the walk.
func FilterPrivate(cfg HierarchyConfig, accs []trace.Access, streamOff, order []int32) (PrivateFilter, error) {
	if err := cfg.Validate(); err != nil {
		return PrivateFilter{}, err
	}
	l1, err := New(cfg.L1)
	if err != nil {
		return PrivateFilter{}, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return PrivateFilter{}, err
	}
	var n int32
	if len(streamOff) > 0 {
		n = streamOff[len(streamOff)-1]
	}
	f := PrivateFilter{L1: cfg.L1, L2: cfg.L2, miss: make([]uint8, n)}
	shift := bits.TrailingZeros32(cfg.L1.LineBytes)
	for c := 0; c+1 < len(streamOff); c++ {
		l1.Reset()
		l2.Reset()
		for p := int(streamOff[c]); p < int(streamOff[c+1]); p++ {
			a := &accs[p]
			if order != nil {
				a = &accs[order[p]]
			}
			if a.Kind == trace.FenceOp {
				continue
			}
			write := a.Kind == trace.Store
			first, lines := lineSpan(a, shift)
			var mask []uint64 // the wide mask, for accesses past narrowLines
			if lines > narrowLines {
				mask = make([]uint64, (lines+63)/64)
			}
			for k := uint64(0); k < lines; k++ {
				// L1 victims are clean toward L2 in this model (L2 is
				// inclusive enough for the traffic shapes we simulate),
				// and private dirty evictions make no memory traffic:
				// only LLC victims are written back.
				if hit, _, _ := l1.Access(first+k, write); hit {
					continue
				}
				if hit, _, _ := l2.Access(first+k, write); hit {
					continue
				}
				if mask == nil {
					f.miss[p] |= 1 << k
				} else {
					mask[k/64] |= 1 << (k % 64)
					f.miss[p] = 1
				}
			}
			if f.miss[p] != 0 && mask != nil {
				if f.wide == nil {
					f.wide = make(map[int][]uint64)
				}
				f.wide[p] = mask
			}
		}
		f.L1Stats.add(l1.Stats())
		f.L2Stats.add(l2.Stats())
	}
	return f, nil
}

// ReplayLLC runs walk position p of f, access a, through c, the shared
// LLC: only the lines f records as missing both private levels reach it,
// in address order. It appends to misses, and returns, the LLC-level
// misses the full three-level walk of a produces — a fetch for each line
// the LLC misses, each followed by the dirty write-back its fill evicted —
// so replaying every access of a trace in any order that keeps each core's
// program order is that walk, and c's counters match it.
func (c *Cache) ReplayLLC(f *PrivateFilter, p int, a *trace.Access, misses []Miss) []Miss {
	if f.miss[p] == 0 {
		return misses
	}
	lineBytes := uint64(c.cfg.LineBytes)
	first, lines := lineSpan(a, bits.TrailingZeros64(lineBytes))
	narrow := [1]uint64{uint64(f.miss[p])}
	words := narrow[:]
	if lines > narrowLines {
		words = f.wide[p]
	}
	write := a.Kind == trace.Store
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			ln := first + uint64(w*64+bits.TrailingZeros64(word))
			hit, wb, hasWB := c.Access(ln, write)
			if hit {
				continue
			}
			// Useful bytes of this access that land in line ln.
			lo, hi := ln*lineBytes, (ln+1)*lineBytes
			if a.Addr > lo {
				lo = a.Addr
			}
			if a.End() < hi {
				hi = a.End()
			}
			misses = append(misses, Miss{Line: ln, Addr: lo, Write: write, Payload: uint32(hi - lo), CPU: a.CPU})
			if hasWB {
				misses = append(misses, Miss{
					Line:      wb,
					Addr:      wb * lineBytes,
					Write:     true,
					WriteBack: true,
					Payload:   c.cfg.LineBytes,
					CPU:       a.CPU,
				})
			}
		}
	}
	return misses
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.WriteBacks += o.WriteBacks
}
