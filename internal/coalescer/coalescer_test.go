package coalescer

import (
	"math/rand"
	"sort"
	"testing"

	"hmccoal/internal/hmc"
	"hmccoal/internal/mshr"
)

// harness wires a coalescer to a fixed-latency fake memory and records
// every dispatch and completion.
type harness struct {
	c          *Coalescer
	memLatency uint64
	issues     []issueRecord
	completed  map[uint64]uint64 // token → completion tick
}

type issueRecord struct {
	tick     uint64
	baseLine uint64
	lines    int
	write    bool
}

// issueOf records a dispatched packet in cache lines of the default
// geometry.
func issueOf(tick uint64, req hmc.Request) issueRecord {
	line := uint64(DefaultConfig().LineBytes)
	return issueRecord{tick, req.Addr / line, int(uint64(req.PacketBytes) / line), req.Write}
}

func newHarness(t *testing.T, mode Mode, kind Kind, cfg Config) *harness {
	t.Helper()
	h := &harness{memLatency: 400, completed: map[uint64]uint64{}}
	c, err := New(cfg, mode, kind, SchedFRFCFS, testLanes,
		func(tick uint64, req hmc.Request) (hmc.Completion, error) {
			h.issues = append(h.issues, issueOf(tick, req))
			return hmc.Completion{Done: tick + h.memLatency}, nil
		},
		func(tick uint64, subs []mshr.Sub, fault bool) {
			for _, s := range subs {
				if _, dup := h.completed[s.Token]; dup {
					t.Fatalf("token %d completed twice", s.Token)
				}
				h.completed[s.Token] = tick
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	return h
}

// testLanes is the warp gather's lane count in the tests; requests that
// leave CPU at zero all share lane 0.
const testLanes = 4

// forEachGather runs an issue-stage test once per gather stage.
func forEachGather(t *testing.T, test func(t *testing.T, kind Kind)) {
	for _, k := range []Kind{KindTwoPhase, KindWarp} {
		t.Run(k.String(), func(t *testing.T) { test(t, k) })
	}
}

func noBypass() Config {
	cfg := DefaultConfig()
	cfg.Bypass = false
	return cfg
}

func TestNewValidation(t *testing.T) {
	cb := func(uint64, hmc.Request) (hmc.Completion, error) { return hmc.Completion{}, nil }
	cc := func(uint64, []mshr.Sub, bool) {}
	if _, err := New(DefaultConfig(), TwoPhase, KindTwoPhase, SchedFRFCFS, 1, nil, cc); err == nil {
		t.Error("nil issue accepted")
	}
	if _, err := New(DefaultConfig(), TwoPhase, KindTwoPhase, SchedFRFCFS, 1, cb, nil); err == nil {
		t.Error("nil complete accepted")
	}
	cfg := DefaultConfig()
	cfg.Width = 12
	if _, err := New(cfg, TwoPhase, KindTwoPhase, SchedFRFCFS, 1, cb, cc); err == nil {
		t.Error("non-power-of-two width accepted")
	}
	cfg = DefaultConfig()
	cfg.LineBytes = 0
	if _, err := New(cfg, TwoPhase, KindTwoPhase, SchedFRFCFS, 1, cb, cc); err == nil {
		t.Error("zero line size accepted")
	}
	cfg.LineBytes = 2 * BlockBytes
	if _, err := New(cfg, TwoPhase, KindTwoPhase, SchedFRFCFS, 1, cb, cc); err == nil {
		t.Error("line larger than a block accepted")
	}
	if _, err := New(DefaultConfig(), Mode(3), KindTwoPhase, SchedFRFCFS, 1, cb, cc); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestFullBatchCoalescesContiguousLoads(t *testing.T) {
	// 16 contiguous line misses span four 256 B blocks → exactly four
	// 4-line (256 B) packets, i.e. 75% coalescing efficiency.
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	for i := uint64(0); i < 16; i++ {
		h.c.Push(10, Request{Line: i, Payload: 8, Token: i})
	}
	h.c.Drain(10)
	if len(h.issues) != 4 {
		t.Fatalf("issued %d requests, want 4", len(h.issues))
	}
	for k, is := range h.issues {
		if is.lines != 4 || is.baseLine != uint64(k)*4 || is.write {
			t.Errorf("issue %d = %+v", k, is)
		}
	}
	s := h.c.Stats()
	if s.HMCRequests != 4 || s.Requests != 16 {
		t.Errorf("stats = %+v", s)
	}
	if got := s.CoalescingEfficiency(); got != 0.75 {
		t.Errorf("CoalescingEfficiency = %v, want 0.75", got)
	}
	if s.FirstPhaseMerges != 12 {
		t.Errorf("FirstPhaseMerges = %d, want 12", s.FirstPhaseMerges)
	}
	if len(h.completed) != 16 {
		t.Errorf("completed %d tokens, want 16", len(h.completed))
	}
}

func TestScatteredLoadsDontCoalesce(t *testing.T) {
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	for i := uint64(0); i < 16; i++ {
		h.c.Push(10, Request{Line: i * 100, Payload: 8, Token: i})
	}
	h.c.Drain(10)
	if len(h.issues) != 16 {
		t.Fatalf("issued %d requests, want 16", len(h.issues))
	}
	if got := h.c.Stats().CoalescingEfficiency(); got != 0 {
		t.Errorf("CoalescingEfficiency = %v, want 0", got)
	}
}

func TestTimeoutFlush(t *testing.T) {
	cfg := noBypass()
	cfg.TimeoutCycles = 24
	h := newHarness(t, TwoPhase, KindTwoPhase, cfg)
	h.c.Push(100, Request{Line: 0, Payload: 8, Token: 1})
	h.c.Push(105, Request{Line: 1, Payload: 8, Token: 2})
	// Nothing flushed yet: the window is open until 124.
	if h.c.Stats().Batches != 0 {
		t.Fatal("flushed before timeout")
	}
	h.c.Advance(130)
	s := h.c.Stats()
	if s.Batches != 1 || s.TimeoutFlushes != 1 || s.BatchRequests != 2 {
		t.Fatalf("stats after timeout = %+v", s)
	}
	h.c.Drain(130)
	if len(h.issues) != 1 || h.issues[0].lines != 2 {
		t.Fatalf("issues = %+v, want one 2-line packet", h.issues)
	}
}

func TestTypesNeverShareAPacket(t *testing.T) {
	// Alternating load/store misses on contiguous lines: the type bit
	// sorts stores after loads, so the DMC forms separate packets.
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	for i := uint64(0); i < 16; i++ {
		h.c.Push(10, Request{Line: i, Write: i%2 == 1, Payload: 8, Token: i})
	}
	h.c.Drain(10)
	for _, is := range h.issues {
		if is.lines > 1 {
			// Same-type lines are every other line — never contiguous, so
			// no packet may exceed one line.
			t.Errorf("mixed/adjacent coalesce happened: %+v", is)
		}
	}
	if len(h.issues) != 16 {
		t.Errorf("issued %d, want 16", len(h.issues))
	}
	loads, stores := 0, 0
	for _, is := range h.issues {
		if is.write {
			stores++
		} else {
			loads++
		}
	}
	if loads != 8 || stores != 8 {
		t.Errorf("loads/stores = %d/%d", loads, stores)
	}
}

func TestContiguousStoresCoalesce(t *testing.T) {
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	for i := uint64(0); i < 4; i++ {
		h.c.Push(10, Request{Line: i, Write: true, Payload: 64, Token: i})
	}
	h.c.Advance(100) // timeout flush
	h.c.Drain(100)
	if len(h.issues) != 1 || !h.issues[0].write || h.issues[0].lines != 4 {
		t.Fatalf("issues = %+v, want one 4-line store", h.issues)
	}
}

func TestBlockBoundarySplitsPacket(t *testing.T) {
	// Lines 2..5 are contiguous but lines 3|4 straddle a 256 B block
	// boundary: the DMC must emit [2,3] and [4,5].
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	for _, ln := range []uint64{2, 3, 4, 5} {
		h.c.Push(10, Request{Line: ln, Payload: 8, Token: ln})
	}
	h.c.Advance(100)
	h.c.Drain(100)
	if len(h.issues) != 2 {
		t.Fatalf("issued %d requests, want 2", len(h.issues))
	}
	if h.issues[0].baseLine != 2 || h.issues[0].lines != 2 ||
		h.issues[1].baseLine != 4 || h.issues[1].lines != 2 {
		t.Errorf("issues = %+v", h.issues)
	}
}

func TestDuplicateLinesAbsorb(t *testing.T) {
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	for i := uint64(0); i < 4; i++ {
		h.c.Push(10, Request{Line: 7, Payload: 8, Token: i})
	}
	h.c.Advance(100)
	h.c.Drain(100)
	if len(h.issues) != 1 || h.issues[0].lines != 1 {
		t.Fatalf("issues = %+v, want one 1-line packet", h.issues)
	}
	if len(h.completed) != 4 {
		t.Errorf("completed %d tokens, want 4", len(h.completed))
	}
}

func TestSecondPhaseMergesAcrossBatches(t *testing.T) {
	// Batch 1 issues lines 0-3 as one 256 B request. While it is in
	// flight, batch 2 wants lines 0-1 again: Case A merge, no new request.
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	h.memLatency = 100000 // keep the first request outstanding
	for i := uint64(0); i < 4; i++ {
		h.c.Push(10, Request{Line: i, Payload: 8, Token: i})
	}
	h.c.Advance(200) // flush batch 1; packet issues
	if len(h.issues) != 1 {
		t.Fatalf("batch 1 issued %d", len(h.issues))
	}
	for i := uint64(0); i < 2; i++ {
		h.c.Push(300, Request{Line: i, Payload: 8, Token: 100 + i})
	}
	h.c.Advance(600)
	if len(h.issues) != 1 {
		t.Fatalf("second batch issued a request despite full overlap")
	}
	h.c.Drain(600)
	if len(h.completed) != 6 {
		t.Errorf("completed %d tokens, want 6", len(h.completed))
	}
	if got := h.c.MSHRStats().MergedTargets; got != 2 {
		t.Errorf("MergedTargets = %d, want 2", got)
	}
}

// TestModeSelectsPhases runs one request stream — a 4-line batch, then
// two of its lines again while the first request is outstanding — under
// each mode: the mode alone decides which phases coalesce.
func TestModeSelectsPhases(t *testing.T) {
	for _, mode := range []Mode{Baseline, DMCOnly, TwoPhase} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, mode, KindTwoPhase, noBypass())
			h.memLatency = 100000
			for i := uint64(0); i < 4; i++ {
				h.c.Push(10, Request{Line: i, Payload: 8, Token: i})
			}
			h.c.Advance(200)
			for i := uint64(0); i < 2; i++ {
				h.c.Push(300, Request{Line: i, Payload: 8, Token: 100 + i})
			}
			if _, err := h.c.Drain(600); err != nil {
				t.Fatal(err)
			}
			// Baseline has no first phase and DMCOnly no second; each
			// enabled phase merges on this stream.
			if first := h.c.Stats().FirstPhaseMerges; (first > 0) != (mode != Baseline) {
				t.Errorf("first-phase merges = %d", first)
			}
			if second := h.c.MSHRStats().MergedTargets; (second > 0) != (mode != DMCOnly) {
				t.Errorf("MSHR merged targets = %d", second)
			}
			if len(h.completed) != 6 {
				t.Errorf("completed %d tokens, want 6", len(h.completed))
			}
		})
	}
}

func TestMSHROnlyMode(t *testing.T) {
	// Baseline: every miss reaches the MSHRs alone; coalescing only
	// happens when lines overlap outstanding entries.
	h := newHarness(t, Baseline, KindTwoPhase, DefaultConfig())
	h.memLatency = 100000
	h.c.Push(10, Request{Line: 5, Payload: 8, Token: 1})
	h.c.Push(11, Request{Line: 5, Payload: 8, Token: 2}) // merges
	h.c.Push(12, Request{Line: 6, Payload: 8, Token: 3}) // new entry
	if len(h.issues) != 2 {
		t.Fatalf("issued %d, want 2", len(h.issues))
	}
	for _, is := range h.issues {
		if is.lines != 1 {
			t.Errorf("conventional mode issued %d-line packet", is.lines)
		}
	}
	h.c.Drain(12)
	if got := h.c.Stats().CoalescingEfficiency(); got < 0.33 || got > 0.34 {
		t.Errorf("CoalescingEfficiency = %v, want 1/3", got)
	}
}

func TestDMCOnlyModeNeverMergesInMSHR(t *testing.T) {
	h := newHarness(t, DMCOnly, KindTwoPhase, noBypass())
	h.memLatency = 100000
	for i := uint64(0); i < 4; i++ {
		h.c.Push(10, Request{Line: i, Payload: 8, Token: i})
	}
	h.c.Advance(200)
	for i := uint64(0); i < 4; i++ {
		h.c.Push(300, Request{Line: i, Payload: 8, Token: 100 + i})
	}
	h.c.Advance(600)
	if len(h.issues) != 2 {
		t.Fatalf("issued %d, want 2 (no MSHR merging)", len(h.issues))
	}
	if got := h.c.MSHRStats().MergedTargets; got != 0 {
		t.Errorf("MergedTargets = %d, want 0", got)
	}
	h.c.Drain(600)
}

func TestBypassIdlePath(t *testing.T) {
	cfg := DefaultConfig() // bypass on
	h := newHarness(t, TwoPhase, KindTwoPhase, cfg)
	h.c.Push(10, Request{Line: 42, Payload: 8, Token: 1})
	// Idle coalescer, free MSHRs: the request must dispatch immediately,
	// with no sorting latency.
	if len(h.issues) != 1 || h.issues[0].tick != 10 {
		t.Fatalf("bypass issues = %+v", h.issues)
	}
	if h.c.Stats().Bypassed != 1 {
		t.Errorf("Bypassed = %d, want 1", h.c.Stats().Bypassed)
	}
	h.c.Drain(10)
}

func TestBypassStopsWhenMSHRsFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHR.Entries = 2
	h := newHarness(t, TwoPhase, KindTwoPhase, cfg)
	h.memLatency = 100000
	h.c.Push(10, Request{Line: 0, Payload: 8, Token: 1})
	h.c.Push(11, Request{Line: 100, Payload: 8, Token: 2})
	// File now full: next requests must buffer for coalescing.
	h.c.Push(12, Request{Line: 200, Payload: 8, Token: 3})
	if got := h.c.Stats().Bypassed; got != 2 {
		t.Fatalf("Bypassed = %d, want 2", got)
	}
	if h.c.Stats().Batches != 0 && len(h.issues) > 2 {
		t.Fatal("request 3 dispatched while MSHRs full")
	}
	h.c.Drain(12)
	if len(h.completed) != 3 {
		t.Errorf("completed %d, want 3", len(h.completed))
	}
}

func TestFenceFlushesPending(t *testing.T) {
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	h.c.Push(10, Request{Line: 0, Payload: 8, Token: 1})
	h.c.Push(11, Request{Line: 1, Payload: 8, Token: 2})
	h.c.Fence(12)
	s := h.c.Stats()
	if s.Fences != 1 || s.Batches != 1 || s.BatchRequests != 2 {
		t.Fatalf("stats after fence = %+v", s)
	}
	if s.FenceFlushes != 1 || s.TimeoutFlushes != 0 {
		t.Fatalf("fence-triggered drain misattributed: fence=%d timeout=%d",
			s.FenceFlushes, s.TimeoutFlushes)
	}
	h.c.Drain(12)
	if len(h.issues) != 1 || h.issues[0].lines != 2 {
		t.Errorf("issues = %+v", h.issues)
	}
}

func TestDrainCompletesEverything(t *testing.T) {
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	rng := rand.New(rand.NewSource(2))
	tokens := 0
	tick := uint64(0)
	for i := 0; i < 500; i++ {
		tick += uint64(rng.Intn(10))
		h.c.Push(tick, Request{
			Line:    rng.Uint64() % 4096,
			Write:   rng.Intn(4) == 0,
			Payload: uint32(8 * (1 + rng.Intn(8))),
			Token:   uint64(tokens),
		})
		tokens++
	}
	idle, err := h.c.Drain(tick)
	if err != nil {
		t.Fatal(err)
	}
	if idle < tick {
		t.Errorf("idle %d before last push %d", idle, tick)
	}
	if len(h.completed) != tokens {
		t.Fatalf("completed %d of %d tokens", len(h.completed), tokens)
	}
	if h.c.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after drain", h.c.Outstanding())
	}
	s := h.c.Stats()
	if s.HMCRequests == 0 || s.HMCRequests > s.Requests {
		t.Errorf("HMCRequests = %d of %d", s.HMCRequests, s.Requests)
	}
	if s.HMCRequests != h.c.MSHRStats().Allocations {
		t.Errorf("HMCRequests %d != allocations %d", s.HMCRequests, h.c.MSHRStats().Allocations)
	}
}

func TestLatencyStatsPopulated(t *testing.T) {
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	for i := uint64(0); i < 16; i++ {
		h.c.Push(10+i, Request{Line: i, Payload: 8, Token: i})
	}
	h.c.Drain(100)
	s := h.c.Stats()
	if s.LatencySamples != 16 || s.RequestLatency == 0 {
		t.Errorf("latency stats = %d samples, %d cycles", s.LatencySamples, s.RequestLatency)
	}
	if s.SortCycles == 0 || s.DMCCycles == 0 {
		t.Errorf("sort/DMC cycles = %d/%d", s.SortCycles, s.DMCCycles)
	}
	if ns := s.AvgDMCLatencyNs(3.3); ns <= 0 || ns > 30 {
		t.Errorf("AvgDMCLatencyNs = %v", ns)
	}
	if ns := s.AvgRequestLatencyNs(3.3); ns <= 0 {
		t.Errorf("AvgRequestLatencyNs = %v", ns)
	}
}

func TestHigherTimeoutRaisesLatency(t *testing.T) {
	// Figure 14's overall trend: growing the timeout grows the average
	// coalescer latency for sparse request streams.
	var prev float64
	for i, timeout := range []uint64{16, 64, 256} {
		cfg := noBypass()
		cfg.TimeoutCycles = timeout
		h := newHarness(t, TwoPhase, KindTwoPhase, cfg)
		tick := uint64(0)
		for r := uint64(0); r < 400; r++ {
			tick += 8 // sparse: timeout governs flushing
			h.c.Push(tick, Request{Line: r * 7, Payload: 8, Token: r})
		}
		h.c.Drain(tick)
		ns := h.c.Stats().AvgRequestLatencyNs(3.3)
		if i > 0 && ns <= prev {
			t.Errorf("timeout %d: latency %.2f not above previous %.2f", timeout, ns, prev)
		}
		prev = ns
	}
}

func TestCRQFillEpisodes(t *testing.T) {
	forEachGather(t, func(t *testing.T, kind Kind) {
		cfg := noBypass()
		cfg.MSHR.Entries = 4 // CRQ capacity 4
		h := newHarness(t, TwoPhase, kind, cfg)
		h.memLatency = 1 << 40 // nothing completes during pushes
		// Scattered misses spaced past the timeout: each closes its own
		// sequence, so packets reach the CRQ one at a time and a fill
		// episode spans several closes under either gather.
		for i := uint64(0); i < 64; i++ {
			h.c.Push(10+30*i, Request{Line: i * 50, Payload: 8, Token: i})
		}
		h.c.Advance(1 << 20)
		s := h.c.Stats()
		if s.CRQFills == 0 {
			t.Fatal("CRQ never filled despite saturation")
		}
		if s.CRQPeak < 4 {
			t.Errorf("CRQPeak = %d, want ≥ 4", s.CRQPeak)
		}
		if ns := s.AvgCRQFillNs(3.3); ns <= 0 {
			t.Errorf("AvgCRQFillNs = %v", ns)
		}
		h.c.Drain(1 << 41)
	})
}

func TestPayloadAccounting(t *testing.T) {
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	h.c.Push(10, Request{Line: 0, Payload: 8, Token: 1})
	h.c.Push(10, Request{Line: 1, Payload: 32, Token: 2})
	h.c.Drain(10)
	if got := h.c.Stats().PayloadBytes; got != 40 {
		t.Errorf("PayloadBytes = %d, want 40", got)
	}
}

func TestIssueTicksNonDecreasing(t *testing.T) {
	forEachGather(t, func(t *testing.T, kind Kind) {
		h := newHarness(t, TwoPhase, kind, noBypass())
		rng := rand.New(rand.NewSource(9))
		tick := uint64(0)
		for i := 0; i < 2000; i++ {
			tick += uint64(rng.Intn(6))
			h.c.Push(tick, Request{
				Line:  rng.Uint64() % 512,
				Write: rng.Intn(5) == 0, Payload: 8, Token: uint64(i),
			})
		}
		h.c.Drain(tick)
		for i := 1; i < len(h.issues); i++ {
			if h.issues[i].tick < h.issues[i-1].tick {
				t.Fatalf("issue %d at %d before issue %d at %d",
					i, h.issues[i].tick, i-1, h.issues[i-1].tick)
			}
		}
	})
}

func TestAdaptiveTimeoutTracksCoalescingCost(t *testing.T) {
	cfg := noBypass()
	cfg.AdaptiveTimeout = true
	cfg.TimeoutCycles = 24
	h := newHarness(t, TwoPhase, KindTwoPhase, cfg)
	if h.c.sorter.curTimeout != 24 {
		t.Fatalf("initial timeout = %d, want seed 24", h.c.sorter.curTimeout)
	}
	// Full batches of coalescable traffic: per-sequence cost is sorting
	// (40 cycles) + DMC work, so the EWMA must climb above the seed.
	tick := uint64(0)
	for batch := uint64(0); batch < 60; batch++ {
		for i := uint64(0); i < 16; i++ {
			h.c.Push(tick, Request{Line: batch*100 + i, Payload: 8, Token: batch*16 + i})
		}
		tick += 200
		h.c.Advance(tick)
	}
	h.c.Drain(tick)
	if got := h.c.sorter.curTimeout; got <= 24 {
		t.Errorf("adaptive timeout = %d, want above seed 24", got)
	}
	if got, hi := h.c.sorter.curTimeout, cfg.TimeoutCycles*4; got > hi {
		t.Errorf("adaptive timeout = %d, beyond clamp %d", got, hi)
	}
}

func TestStaticTimeoutUnchanged(t *testing.T) {
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	for i := uint64(0); i < 64; i++ {
		h.c.Push(i*10, Request{Line: i, Payload: 8, Token: i})
	}
	h.c.Drain(1000)
	if got := h.c.sorter.curTimeout; got != DefaultConfig().TimeoutCycles {
		t.Errorf("static timeout drifted to %d", got)
	}
}

// TestFirstPhaseMatchesOracle is a differential test of the DMC unit: a
// random batch pushed at one tick must produce exactly the packets a
// reference implementation computes (sort by type+line, group adjacent
// same-type runs bounded by the 256 B block, split into 4/2/1 lines).
func TestFirstPhaseMatchesOracle(t *testing.T) {
	oracle := func(reqs []Request) []issueRecord {
		type key struct {
			write bool
			line  uint64
		}
		sorted := append([]Request(nil), reqs...)
		sort.Slice(sorted, func(i, j int) bool {
			a, b := sorted[i], sorted[j]
			if a.Write != b.Write {
				return !a.Write
			}
			return a.Line < b.Line
		})
		var out []issueRecord
		seen := map[key]bool{}
		var uniq []Request
		for _, r := range sorted {
			k := key{r.Write, r.Line}
			if !seen[k] {
				seen[k] = true
				uniq = append(uniq, r)
			}
		}
		i := 0
		for i < len(uniq) {
			base := uniq[i]
			block := base.Line / 4
			end := base.Line + 1
			j := i + 1
			for j < len(uniq) && uniq[j].Write == base.Write &&
				uniq[j].Line == end && uniq[j].Line/4 == block && end-base.Line < 4 {
				end = uniq[j].Line + 1
				j++
			}
			// split into 4/2/1
			lines := int(end - base.Line)
			at := base.Line
			for lines > 0 {
				sz := 1
				if lines >= 4 {
					sz = 4
				} else if lines >= 2 {
					sz = 2
				}
				out = append(out, issueRecord{baseLine: at, lines: sz, write: base.Write})
				at += uint64(sz)
				lines -= sz
			}
			i = j
		}
		return out
	}

	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		h := newHarness(t, DMCOnly, KindTwoPhase, noBypass()) // isolate the first phase
		n := 1 + rng.Intn(16)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{
				Line:    uint64(rng.Intn(24)),
				Write:   rng.Intn(3) == 0,
				Payload: 8,
				Token:   uint64(trial*100 + i),
			}
		}
		for _, r := range reqs {
			h.c.Push(100, r)
		}
		h.c.Drain(100)
		want := oracle(reqs)
		if len(h.issues) != len(want) {
			t.Fatalf("trial %d: %d packets, oracle wants %d\nreqs=%+v\ngot=%+v\nwant=%+v",
				trial, len(h.issues), len(want), reqs, h.issues, want)
		}
		for k := range want {
			g := h.issues[k]
			if g.baseLine != want[k].baseLine || g.lines != want[k].lines || g.write != want[k].write {
				t.Fatalf("trial %d packet %d: got %+v want %+v\nreqs=%+v",
					trial, k, g, want[k], reqs)
			}
		}
	}
}

func TestWidth32EndToEnd(t *testing.T) {
	cfg := noBypass()
	cfg.Width = 32
	h := newHarness(t, TwoPhase, KindTwoPhase, cfg)
	for i := uint64(0); i < 32; i++ {
		h.c.Push(10, Request{Line: i, Payload: 8, Token: i})
	}
	h.c.Drain(10)
	// 32 contiguous lines = 8 blocks = 8 × 256 B packets.
	if len(h.issues) != 8 {
		t.Fatalf("issued %d requests, want 8", len(h.issues))
	}
	if len(h.completed) != 32 {
		t.Errorf("completed %d tokens, want 32", len(h.completed))
	}
}

func TestFlushCausePartitionsBatches(t *testing.T) {
	h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
	// Full-width flush.
	for i := uint64(0); i < 16; i++ {
		h.c.Push(10, Request{Line: i, Payload: 8, Token: i})
	}
	// Timeout flush.
	h.c.Push(1000, Request{Line: 100, Payload: 8, Token: 20})
	h.c.Advance(2000)
	// Fence flush.
	h.c.Push(3000, Request{Line: 200, Payload: 8, Token: 21})
	h.c.Fence(3001)
	// End-of-run drain flush.
	h.c.Push(4000, Request{Line: 300, Payload: 8, Token: 22})
	h.c.Drain(4001)
	s := h.c.Stats()
	if s.FullFlushes != 1 || s.TimeoutFlushes != 1 || s.FenceFlushes != 1 || s.DrainFlushes != 1 {
		t.Errorf("flush causes = full %d, timeout %d, fence %d, drain %d; want 1 each",
			s.FullFlushes, s.TimeoutFlushes, s.FenceFlushes, s.DrainFlushes)
	}
	if sum := s.FullFlushes + s.TimeoutFlushes + s.FenceFlushes + s.DrainFlushes; sum != s.Batches {
		t.Errorf("flush causes sum to %d, Batches = %d", sum, s.Batches)
	}
}

func TestBlockedCRQHeadRetries(t *testing.T) {
	forEachGather(t, func(t *testing.T, kind Kind) {
		// Saturate a 2-entry MSHR file with scattered misses: the CRQ head
		// must park (blocked on a packed file), survive the retry without
		// re-issuing already placed targets, and drain to completion in FIFO
		// order once completions free entries.
		cfg := noBypass()
		cfg.MSHR.Entries = 2
		h := newHarness(t, TwoPhase, kind, cfg)
		h.memLatency = 1000
		const n = 6
		for i := uint64(0); i < n; i++ {
			h.c.Push(10, Request{Line: i * 100, Payload: 8, Token: i}) // scattered: no coalescing
		}
		h.c.Advance(500) // timeout flush; only 2 packets can enter the file
		if len(h.issues) != 2 {
			t.Fatalf("issued %d before any completion, want 2 (file capacity)", len(h.issues))
		}
		if _, crq := h.c.QueueDepths(); crq == 0 {
			t.Fatal("CRQ drained despite a packed MSHR file")
		}
		// Until the first response frees an entry, every further pass over
		// the blocked one-target head repeats its fruitless Insert exactly:
		// one stall for the packed file and nothing issued.
		firstDone := h.issues[0].tick + h.memLatency
		for tick := uint64(501); tick < firstDone; tick += 37 {
			stalls := h.c.MSHRStats().FullStalls
			h.c.Advance(tick)
			if d := h.c.MSHRStats().FullStalls - stalls; d != 1 {
				t.Fatalf("Advance(%d) on the blocked head counted %d stalls, want 1", tick, d)
			}
			if len(h.issues) != 2 {
				t.Fatalf("Advance(%d) issued on a packed file: %d issues", tick, len(h.issues))
			}
		}
		// The head issues at the first completion's tick, and the dispatch
		// order preserves the sorted FIFO order.
		h.c.Advance(firstDone)
		if len(h.issues) < 3 || h.issues[2].tick != firstDone {
			t.Fatalf("after the first completion at %d: issues %+v, want the head issued then",
				firstDone, h.issues)
		}
		h.c.Drain(firstDone)
		if len(h.issues) != n {
			t.Fatalf("issued %d total, want %d", len(h.issues), n)
		}
		for i := 1; i < len(h.issues); i++ {
			if h.issues[i].baseLine <= h.issues[i-1].baseLine {
				t.Errorf("FIFO order broken: issue %d line %d after line %d",
					i, h.issues[i].baseLine, h.issues[i-1].baseLine)
			}
		}
		if len(h.completed) != n {
			t.Errorf("completed %d tokens, want %d", len(h.completed), n)
		}
		if got := h.c.MSHRStats().FullStalls; got == 0 {
			t.Error("FullStalls = 0, blocked-head path not exercised")
		}
	})
}

func TestSplitPacketChunking(t *testing.T) {
	cases := []struct {
		base   uint64
		length int
		want   []chunk
	}{
		{0, 1, []chunk{{0, 1}}},
		{0, 2, []chunk{{0, 2}}},
		{0, 3, []chunk{{0, 2}, {2, 1}}},
		{0, 4, []chunk{{0, 4}}},
		{4, 4, []chunk{{4, 4}}},
		{0, 5, []chunk{{0, 4}, {4, 1}}},
		{0, 7, []chunk{{0, 4}, {4, 2}, {6, 1}}},
		{8, 8, []chunk{{8, 4}, {12, 4}}},
		{3, 2, []chunk{{3, 2}}}, // caller guarantees block bounds; split is size-only
	}
	for _, c := range cases {
		var buf [maxChunks]chunk
		got := buf[:splitPacket(c.base, c.length, &buf)]
		if len(got) != len(c.want) {
			t.Errorf("splitPacket(%d, %d) = %v, want %v", c.base, c.length, got, c.want)
			continue
		}
		covered := c.base
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitPacket(%d, %d)[%d] = %v, want %v", c.base, c.length, i, got[i], c.want[i])
			}
			if got[i].base != covered {
				t.Errorf("splitPacket(%d, %d) leaves a gap at line %d", c.base, c.length, covered)
			}
			if got[i].len != 1 && got[i].len != 2 && got[i].len != 4 {
				t.Errorf("splitPacket(%d, %d) produced illegal size %d", c.base, c.length, got[i].len)
			}
			covered += uint64(got[i].len)
		}
		if covered != c.base+uint64(c.length) {
			t.Errorf("splitPacket(%d, %d) covers through %d", c.base, c.length, covered)
		}
	}
}

func TestFenceMonopolizesPipelineStage(t *testing.T) {
	// §3.4: a fence occupies an entire pipeline stage, so a batch flushed
	// right after a fence becomes ready later than without the fence.
	ready := func(withFence bool) uint64 {
		h := newHarness(t, TwoPhase, KindTwoPhase, noBypass())
		h.c.Push(10, Request{Line: 0, Payload: 8, Token: 1})
		if withFence {
			h.c.Fence(11)
		}
		for i := uint64(1); i < 8; i++ {
			h.c.Push(12, Request{Line: i * 10, Payload: 8, Token: 1 + i})
		}
		h.c.Drain(12)
		return h.issues[len(h.issues)-1].tick
	}
	without, with := ready(false), ready(true)
	if with <= without {
		t.Errorf("fence did not delay the pipeline: %d vs %d", with, without)
	}
}
