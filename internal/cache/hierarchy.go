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
		L1:   Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L2:   Config{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64},
		LLC:  Config{SizeBytes: 16 << 20, Ways: 16, LineBytes: 64},
	}
}

// Validate checks the hierarchy shape: the core count, each level's
// geometry, and that all levels share one line size.
func (cfg HierarchyConfig) Validate() error {
	if cfg.CPUs <= 0 {
		return fmt.Errorf("cache: need at least one CPU")
	}
	if cfg.CPUs > 256 {
		// Traces address cores with a uint8.
		return fmt.Errorf("cache: %d CPUs exceeds the 256-core trace format limit", cfg.CPUs)
	}
	if err := cfg.L1.validate(); err != nil {
		return fmt.Errorf("cache: L1: %w", err)
	}
	if err := cfg.L2.validate(); err != nil {
		return fmt.Errorf("cache: L2: %w", err)
	}
	if err := cfg.LLC.validate(); err != nil {
		return fmt.Errorf("cache: LLC: %w", err)
	}
	if cfg.L1.LineBytes != cfg.LLC.LineBytes || cfg.L2.LineBytes != cfg.LLC.LineBytes {
		return fmt.Errorf("cache: mismatched line sizes %d/%d/%d",
			cfg.L1.LineBytes, cfg.L2.LineBytes, cfg.LLC.LineBytes)
	}
	return nil
}
