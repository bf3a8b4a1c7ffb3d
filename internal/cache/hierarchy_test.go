package cache

import (
	"testing"

	"hmccoal/internal/trace"
)

func tinyHierarchy(t *testing.T) *oracle {
	t.Helper()
	cfg := HierarchyConfig{
		CPUs: 2,
		L1:   Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64},
		L2:   Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64},
		LLC:  Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64},
	}
	o, err := newOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestHierarchyConfigValidate(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.CPUs = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero CPUs accepted")
	}
	cfg = DefaultHierarchyConfig()
	cfg.L2.LineBytes = 128
	if err := cfg.Validate(); err == nil {
		t.Error("mismatched line sizes accepted")
	}
	cfg = DefaultHierarchyConfig()
	cfg.CPUs = 257
	if err := cfg.Validate(); err == nil {
		t.Error("257 CPUs accepted past the uint8 trace format")
	}
	cfg = DefaultHierarchyConfig()
	cfg.L1.Ways = 3
	if err := cfg.Validate(); err == nil {
		t.Error("L1 size not a multiple of its way size accepted")
	}
	cfg = DefaultHierarchyConfig()
	cfg.LLC.SizeBytes = 0
	if err := cfg.Validate(); err == nil {
		t.Error("empty LLC accepted")
	}
}

func TestColdAccessMissesToMemory(t *testing.T) {
	h := tinyHierarchy(t)
	misses, _ := h.Access(trace.Access{Addr: 0x1000, Size: 8, Kind: trace.Load, CPU: 0})
	if len(misses) != 1 {
		t.Fatalf("misses = %d, want 1", len(misses))
	}
	m := misses[0]
	if m.Line != 0x1000/64 || m.Write || m.WriteBack || m.Payload != 8 || m.CPU != 0 {
		t.Errorf("miss = %+v", m)
	}
}

func TestHitsAfterFill(t *testing.T) {
	h := tinyHierarchy(t)
	a := trace.Access{Addr: 0x2000, Size: 8, Kind: trace.Load, CPU: 1}
	h.Access(a)
	misses, _ := h.Access(a)
	if len(misses) != 0 {
		t.Fatalf("second access missed: %v", misses)
	}
	if l1, _ := h.levelStats(); l1.Hits != 1 {
		t.Errorf("L1 hits = %d, want 1", l1.Hits)
	}
}

func TestSharedLLCAcrossCores(t *testing.T) {
	h := tinyHierarchy(t)
	a := trace.Access{Addr: 0x3000, Size: 8, Kind: trace.Load, CPU: 0}
	h.Access(a)
	// Another core misses its private levels but hits the shared LLC:
	// no memory traffic.
	b := a
	b.CPU = 1
	misses, _ := h.Access(b)
	if len(misses) != 0 {
		t.Fatalf("cross-core access went to memory: %v", misses)
	}
	if llc := h.llc.Stats(); llc.Hits != 1 {
		t.Errorf("LLC hits = %d, want 1", llc.Hits)
	}
}

func TestLineSplitAccess(t *testing.T) {
	h := tinyHierarchy(t)
	// 16 B access starting 8 B before a line boundary touches two lines.
	misses, _ := h.Access(trace.Access{Addr: 64*10 - 8, Size: 16, Kind: trace.Load, CPU: 0})
	if len(misses) != 2 {
		t.Fatalf("misses = %d, want 2", len(misses))
	}
	if misses[0].Line != 9 || misses[1].Line != 10 {
		t.Errorf("miss lines = %d,%d want 9,10", misses[0].Line, misses[1].Line)
	}
	if misses[0].Payload != 8 || misses[1].Payload != 8 {
		t.Errorf("payloads = %d,%d want 8,8", misses[0].Payload, misses[1].Payload)
	}
}

func TestStoreMissIsStoreRequest(t *testing.T) {
	h := tinyHierarchy(t)
	misses, _ := h.Access(trace.Access{Addr: 0x4000, Size: 4, Kind: trace.Store, CPU: 0})
	if len(misses) != 1 || !misses[0].Write || misses[0].WriteBack {
		t.Fatalf("store miss = %+v", misses)
	}
}

func TestDirtyLLCEvictionEmitsWriteBack(t *testing.T) {
	h := tinyHierarchy(t)
	llcLines := h.cfg.LLC.SizeBytes / 64
	// Dirty one line, then stream enough distinct lines through the same
	// LLC set space to evict it.
	h.Access(trace.Access{Addr: 0, Size: 8, Kind: trace.Store, CPU: 0})
	var sawWB bool
	for i := uint64(1); i <= llcLines*2; i++ {
		misses, _ := h.Access(trace.Access{Addr: i * 64, Size: 8, Kind: trace.Load, CPU: 0})
		for _, m := range misses {
			if m.WriteBack {
				if !m.Write {
					t.Fatal("writeback without Write bit")
				}
				if m.Payload != 64 {
					t.Fatalf("writeback payload = %d, want full line", m.Payload)
				}
				if m.Line == 0 {
					sawWB = true
				}
			}
		}
	}
	if !sawWB {
		t.Fatal("dirty line 0 never written back")
	}
}

func TestFenceIsTransparentToCaches(t *testing.T) {
	h := tinyHierarchy(t)
	misses, _ := h.Access(trace.Access{Kind: trace.FenceOp, CPU: 0})
	if l1, _ := h.levelStats(); misses != nil || l1.Accesses != 0 {
		t.Errorf("fence produced misses %v, %d L1 accesses", misses, l1.Accesses)
	}
}

func TestStatsAggregation(t *testing.T) {
	h := tinyHierarchy(t)
	for i := uint64(0); i < 100; i++ {
		h.Access(trace.Access{Addr: i * 64, Size: 8, Kind: trace.Load, CPU: uint8(i % 2)})
	}
	l1, l2 := h.levelStats()
	if l1.Accesses != 100 {
		t.Errorf("L1 accesses = %d, want 100", l1.Accesses)
	}
	if l2.Accesses != l1.Misses {
		t.Errorf("L2 accesses %d != L1 misses %d", l2.Accesses, l1.Misses)
	}
	if llc := h.llc.Stats(); llc.Accesses != l2.Misses {
		t.Errorf("LLC accesses %d != L2 misses %d", llc.Accesses, l2.Misses)
	}
}

func TestAccessRejectsBadCPU(t *testing.T) {
	h := tinyHierarchy(t)
	if _, err := h.Access(trace.Access{Addr: 0, Size: 4, Kind: trace.Load, CPU: 9}); err == nil {
		t.Fatal("no error for out-of-range CPU")
	}
}

func TestDefaultHierarchyConfigBuilds(t *testing.T) {
	if _, err := newOracle(DefaultHierarchyConfig()); err != nil {
		t.Fatal(err)
	}
}
