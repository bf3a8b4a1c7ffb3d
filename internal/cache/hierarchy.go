package cache

import "fmt"

// Miss is one line-granular request leaving the LLC toward memory.
type Miss struct {
	// Line is the absolute cache line number (Addr / LineBytes).
	Line uint64
	// Addr is the byte address of the first useful byte within the line
	// (the line base for write-backs).
	Addr uint64
	// Write is the request's T bit: store misses and write-backs are
	// stores, load misses are loads (paper §3.4).
	Write bool
	// WriteBack marks dirty-eviction traffic (always Write=true).
	WriteBack bool
	// Payload is the number of useful bytes the core wanted from this
	// line (the full line for write-backs). Drives Equation-1 accounting.
	Payload uint32
	// CPU is the core whose access triggered the miss.
	CPU uint8
}

// HierarchyConfig describes the paper's three-level setup.
type HierarchyConfig struct {
	CPUs int
	L1   Config // private, per core
	L2   Config // private, per core
	LLC  Config // shared
}

// DefaultHierarchyConfig returns the 12-CPU evaluation hierarchy: 32 KiB
// 8-way L1, 256 KiB 8-way L2, 16 MiB 16-way shared LLC, 64 B lines.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		CPUs: 12,
		L1:   Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, HitLatency: 4},
		L2:   Config{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, HitLatency: 12},
		LLC:  Config{SizeBytes: 16 << 20, Ways: 16, LineBytes: 64, HitLatency: 40},
	}
}

// Hierarchy is the full cache stack shared by the simulated cores.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []*Cache
	l2  []*Cache
	llc *Cache

	missBuf []Miss // reused across ReplayLLC calls to keep the hot path allocation-free
}

// Validate checks the hierarchy shape without building it.
func (cfg HierarchyConfig) Validate() error {
	if cfg.CPUs <= 0 {
		return fmt.Errorf("cache: need at least one CPU")
	}
	if cfg.CPUs > 256 {
		// Traces address cores with a uint8.
		return fmt.Errorf("cache: %d CPUs exceeds the 256-core trace format limit", cfg.CPUs)
	}
	if cfg.L1.LineBytes != cfg.LLC.LineBytes || cfg.L2.LineBytes != cfg.LLC.LineBytes {
		return fmt.Errorf("cache: mismatched line sizes %d/%d/%d",
			cfg.L1.LineBytes, cfg.L2.LineBytes, cfg.LLC.LineBytes)
	}
	return nil
}

// NewHierarchy builds the stack. All levels must share one line size.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i < cfg.CPUs; i++ {
		l1, err := New(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("cache: L1: %w", err)
		}
		l2, err := New(cfg.L2)
		if err != nil {
			return nil, fmt.Errorf("cache: L2: %w", err)
		}
		h.l1 = append(h.l1, l1)
		h.l2 = append(h.l2, l2)
	}
	llc, err := New(cfg.LLC)
	if err != nil {
		return nil, fmt.Errorf("cache: LLC: %w", err)
	}
	h.llc = llc
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Reset returns every level to its freshly built state in place. The tag
// arrays — the dominant allocation of the whole simulated system — are
// reused and invalidated generationally, so a stack reset is O(CPUs)
// instead of rebuilding (or even re-zeroing) megabytes of tags per run.
func (h *Hierarchy) Reset() {
	for i := range h.l1 {
		h.l1[i].Reset()
		h.l2[i].Reset()
	}
	h.llc.Reset()
	h.missBuf = h.missBuf[:0]
}

// LineBytes returns the common cache line size.
func (h *Hierarchy) LineBytes() uint32 { return h.cfg.LLC.LineBytes }

// LLCStats returns the shared LLC counters.
func (h *Hierarchy) LLCStats() Stats { return h.llc.Stats() }
