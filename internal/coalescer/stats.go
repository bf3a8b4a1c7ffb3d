package coalescer

// Stats aggregates coalescer activity. All cycle counts are core clock
// cycles; convert to nanoseconds with a clock rate (the paper uses
// 3.3 GHz).
type Stats struct {
	// Requests is the number of LLC requests (misses + write-backs)
	// presented to the coalescer.
	Requests uint64
	// PayloadBytes is the total useful data those requests wanted.
	PayloadBytes uint64
	// Fences counts memory fence operations.
	Fences uint64
	// Bypassed counts requests that took the §4.2 idle path around the
	// sorter straight to the MSHRs.
	Bypassed uint64

	// Batches is the number of sequences flushed into the sorter;
	// BatchRequests sums their sizes. The flush-cause counters partition
	// Batches: FullFlushes closed at full width, TimeoutFlushes on
	// input-buffer timeout expiry, FenceFlushes on a memory fence, and
	// DrainFlushes on the end-of-run drain.
	Batches        uint64
	BatchRequests  uint64
	FullFlushes    uint64
	TimeoutFlushes uint64
	FenceFlushes   uint64
	DrainFlushes   uint64

	// SortCycles sums the sorting-pipeline traversal latencies.
	SortCycles uint64
	// DMCCycles sums the DMC unit's compare/merge work (Figure 12).
	DMCCycles uint64
	// FirstPhaseMerges counts requests absorbed into a larger packet by
	// the DMC unit.
	FirstPhaseMerges uint64
	// Packets counts packets entering the CRQ (all paths).
	Packets uint64

	// CRQPeak is the CRQ occupancy high-water mark. CRQFills counts the
	// episodes in which the CRQ filled to capacity from empty, and
	// CRQFillCycles sums their durations (Figure 13).
	CRQPeak       int
	CRQFills      uint64
	CRQFillCycles uint64

	// RequestLatency sums, over LatencySamples requests, the time from
	// arrival at the coalescer to arrival in the CRQ: buffer wait + sort +
	// DMC (Figure 14).
	RequestLatency uint64
	LatencySamples uint64

	// HMCRequests is the number of memory requests actually dispatched.
	HMCRequests uint64

	// Fault-recovery counters. All stay zero on a clean link.

	// PoisonedPackets counts responses that arrived poisoned (link retry
	// budget exhausted below); DroppedPackets counts responses that never
	// arrived at all.
	PoisonedPackets uint64
	DroppedPackets  uint64
	// LinkRetryRounds sums the link-level retransmission rounds reported
	// by the issue callback across all dispatched packets.
	LinkRetryRounds uint64
	// RetriedPackets counts failed spans re-issued as fresh packets, and
	// RetryBackoffCycles sums the backoff delays they waited.
	RetriedPackets     uint64
	RetryBackoffCycles uint64
	// FailedTargets counts waiters completed with the error bit set after
	// the span-level retry budget ran out.
	FailedTargets uint64
	// DegradedEntries counts transitions into degraded mode;
	// DegradedCycles is the total time spent there, and DegradedSplits the
	// number of multi-line packets split down to 64 B because of it.
	DegradedEntries uint64
	DegradedCycles  uint64
	DegradedSplits  uint64
}

// Stats returns a snapshot of the counters.
func (c *Coalescer) Stats() Stats { return c.stats }

// CoalescingEfficiency is the Figure 8 metric: the fraction of LLC
// requests eliminated before reaching the HMC.
func (s Stats) CoalescingEfficiency() float64 {
	if s.Requests == 0 {
		return 0
	}
	return 1 - float64(s.HMCRequests)/float64(s.Requests)
}

// AvgDMCLatencyNs returns the Figure 12 metric: mean DMC-unit coalescing
// time per sequence, in nanoseconds at the given clock.
func (s Stats) AvgDMCLatencyNs(clockGHz float64) float64 {
	if s.Batches == 0 || clockGHz <= 0 {
		return 0
	}
	return float64(s.DMCCycles) / float64(s.Batches) / clockGHz
}

// AvgCRQFillNs returns the Figure 13 metric: mean time to fill the CRQ to
// capacity, in nanoseconds at the given clock.
func (s Stats) AvgCRQFillNs(clockGHz float64) float64 {
	if s.CRQFills == 0 || clockGHz <= 0 {
		return 0
	}
	return float64(s.CRQFillCycles) / float64(s.CRQFills) / clockGHz
}

// AvgRequestLatencyNs returns the Figure 14 metric: mean per-request
// coalescer latency (buffer wait + sorting + DMC), in nanoseconds.
func (s Stats) AvgRequestLatencyNs(clockGHz float64) float64 {
	if s.LatencySamples == 0 || clockGHz <= 0 {
		return 0
	}
	return float64(s.RequestLatency) / float64(s.LatencySamples) / clockGHz
}
