package sim

import (
	"cmp"
	"slices"

	"hmccoal/internal/cache"
	"hmccoal/internal/hmc"
	"hmccoal/internal/trace"
)

// PayloadAnalysis is the payload-granularity study behind Figures 9–11: the
// LLC miss stream is coalesced by the *actual requested data size* rather
// than the cache line size (§5.3.2), and transfers are priced at FLIT
// granularity.
//
// The accounting follows the paper's bandwidth-efficiency methodology:
//
//   - raw: every miss moves a full 64 B line plus 32 B control (96 B
//     transactions) while the core only wanted the triggering access's
//     bytes — hence single-digit raw efficiencies for small accesses.
//   - coalesced: line-adjacent same-type misses of one sorter sequence
//     share a packet that carries only their FLIT-rounded payloads and one
//     control pair.
type PayloadAnalysis struct {
	// Misses is the number of demand misses analyzed (write-backs are
	// excluded as in Figure 10).
	Misses uint64
	// PayloadBytes is the data the cores actually requested.
	PayloadBytes uint64
	// RawBytes prices the conventional MHA: one 64 B packet + 32 B control
	// per miss.
	RawBytes uint64
	// CoalescedBytes prices the payload-coalesced requests.
	CoalescedBytes uint64
	// Hist is the Figure 10 request-size distribution of the coalesced
	// requests (16 B granularity buckets).
	Hist map[uint32]uint64
}

// RawEfficiency is Figure 9's raw series (Equation 1 over 96 B-per-miss
// transfers).
func (a PayloadAnalysis) RawEfficiency() float64 {
	if a.RawBytes == 0 {
		return 0
	}
	return float64(a.PayloadBytes) / float64(a.RawBytes)
}

// CoalescedEfficiency is Figure 9's coalesced series.
func (a PayloadAnalysis) CoalescedEfficiency() float64 {
	if a.CoalescedBytes == 0 {
		return 0
	}
	return float64(a.PayloadBytes) / float64(a.CoalescedBytes)
}

// SavedBytes is Figure 11's metric: transfer volume avoided by coalescing.
func (a PayloadAnalysis) SavedBytes() int64 {
	return int64(a.RawBytes) - int64(a.CoalescedBytes)
}

// AnalyzePayload runs the payload-granularity coalescing study over a
// trace. width is the sorter sequence width used to batch the miss stream
// (16 in the paper). It builds only an LLC: the private levels are the
// trace's filter.
func AnalyzePayload(hier cache.HierarchyConfig, accs []trace.Access, width int) (PayloadAnalysis, error) {
	llc, err := cache.New(hier.LLC)
	if err != nil {
		return PayloadAnalysis{Hist: make(map[uint32]uint64)}, err
	}
	idx, err := NewTraceIndex(accs, hier.CPUs)
	if err != nil {
		return PayloadAnalysis{Hist: make(map[uint32]uint64)}, err
	}
	// The analysis reads only a System's hierarchy, LLC and miss buffer.
	return (&System{cfg: Config{Hierarchy: hier}, llc: llc}).AnalyzePayload(idx, width)
}

// AnalyzePayload is the package-level AnalyzePayload over an indexed
// trace, on the System's own LLC and miss buffer, which it resets first.
// A sweep so runs its analyses on pooled Systems instead of building
// megabytes of tag arrays per call, and shares the index's private-level
// filter with the trace's simulation runs; the result is identical to a
// fresh build. It walks the trace's private-level misses through the LLC
// in tick order: the shared LLC sees the cores' accesses interleaved. The
// System must be Reset before its next run (Pool.Get does).
func (s *System) AnalyzePayload(idx *TraceIndex, width int) (PayloadAnalysis, error) {
	s.llc.Reset()
	res := PayloadAnalysis{Hist: make(map[uint32]uint64)}
	f, err := idx.privateFilter(s.cfg.Hierarchy)
	if err != nil {
		return res, err
	}
	if width <= 0 {
		width = 16
	}
	lineBytes := uint64(s.cfg.Hierarchy.LLC.LineBytes)
	linesPerBlock := hmc.MaxRequestBytes / lineBytes

	// The miss stream is batched as the sorter would batch it, one
	// width-sized batch at a time, so memory does not grow with the trace.
	batch := make([]payloadMiss, 0, width)
	// The merge keeps each CPU's program order, so CPU c's k-th access is
	// at stream position streamOff[c]+k, the filter's index. A uint8 names
	// the CPU, so streams past the 256th are empty.
	var next [256]int32
	copy(next[:], idx.streamOff[:min(idx.cpus, len(next))])
	m := idx.Merged()
	for run := m.Next(); run != nil; run = m.Next() {
		for i := range run {
			p := next[run[i].CPU]
			next[run[i].CPU]++
			s.missBuf = s.llc.ReplayLLC(f, int(p), &run[i], s.missBuf[:0])
			for _, miss := range s.missBuf {
				if miss.WriteBack {
					continue // write-backs are full-line by definition; excluded
				}
				batch = append(batch, payloadMiss{line: miss.Line, write: miss.Write, payload: miss.Payload})
				res.PayloadBytes += uint64(miss.Payload)
				if len(batch) == width {
					coalesceBatch(&res, batch, linesPerBlock)
					batch = batch[:0]
				}
			}
		}
	}
	coalesceBatch(&res, batch, linesPerBlock)
	res.RawBytes = res.Misses * (lineBytes + hmc.ControlBytes)
	return res, nil
}

// payloadMiss is one demand miss of the payload study.
type payloadMiss struct {
	line    uint64
	write   bool
	payload uint32
}

// coalesceBatch counts one batch of the miss stream into res: it sorts the
// batch as the sorter would and coalesces line-adjacent same-type misses.
// Each coalesced packet moves the FLIT-rounded payloads of its members and
// one 32 B control pair, and may not span more than one HMC block.
func coalesceBatch(res *PayloadAnalysis, batch []payloadMiss, linesPerBlock uint64) {
	res.Misses += uint64(len(batch))
	slices.SortFunc(batch, func(a, b payloadMiss) int {
		if a.write != b.write {
			if a.write {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.line, b.line)
	})
	i := 0
	for i < len(batch) {
		cur := batch[i]
		size := roundUp16(cur.payload)
		first := cur.line
		j := i + 1
		for j < len(batch) &&
			batch[j].write == cur.write &&
			(batch[j].line == batch[j-1].line || batch[j].line == batch[j-1].line+1) &&
			batch[j].line-first < linesPerBlock {
			size += roundUp16(batch[j].payload)
			j++
		}
		if size > hmc.MaxRequestBytes {
			size = hmc.MaxRequestBytes
		}
		res.Hist[size]++
		res.CoalescedBytes += uint64(size) + hmc.ControlBytes
		i = j
	}
}

func roundUp16(b uint32) uint32 {
	if b == 0 {
		return 16
	}
	return (b + 15) / 16 * 16
}
